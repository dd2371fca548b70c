"""Span bookkeeping of bench/tracer.py on synthetic traces.

    python3 -m pytest bench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import (  # noqa: E402
    LAYERS, Tracer, call_counts, instrumented, opens_span, self_times,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("design.solve"):
        clock.advance(1.0)
        with tracer.span("design.range"):
            clock.advance(0.5)
            with tracer.span("policies"):
                clock.advance(2.0)
            clock.advance(0.25)
        clock.advance(1.0)
        with tracer.span("policies"):
            clock.advance(3.0)
    with tracer.span("design.solve"):
        clock.advance(4.0)

    selfs = self_times(tracer.spans)
    assert selfs == {"design.solve": 6.0, "design.range": 0.75, "policies": 5.0}
    assert sum(selfs.values()) == clock.now
    assert call_counts(tracer.spans) == {"design.solve": 2, "design.range": 1, "policies": 2}
    parents = {sp.name: sp.parent for sp in tracer.spans[:3]}
    assert parents == {"design.solve": -1, "design.range": 0, "policies": 1}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with pytest.raises(ValueError):
        with tracer.span("estimation.iv"):
            clock.advance(1.5)
            raise ValueError("relevance")
    assert tracer.current is None
    assert self_times(tracer.spans) == {"estimation.iv": 1.5}


def test_spans_open_at_layer_and_named_sub_span_boundaries():
    tracer = Tracer()
    assert opens_span(None, "experiments")
    with tracer.span("mechanism.allocate"):
        assert not opens_span(tracer.current, "mechanism")
        assert not opens_span(tracer.current, "mechanism.allocate")
        assert opens_span(tracer.current, "mechanism.sample_queues")
        assert opens_span(tracer.current, "propensity")
    with tracer.span("design"):
        assert opens_span(tracer.current, "design.solve")


@pytest.fixture
def fake_package(monkeypatch):
    """A package with one module per layer; ``design`` and ``experiments``
    import functions by name, as the real modules do."""
    modules = {layer: types.ModuleType(f"fakepkg.{layer}") for layer in LAYERS}
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    for module in modules.values():
        monkeypatch.setitem(sys.modules, module.__name__, module)
    policies, design, experiments = (
        modules["policies"], modules["design"], modules["experiments"]
    )
    exec("def assortative_policy(u):\n    return [2 * x for x in u]\n", vars(policies))
    design.assortative_policy = policies.assortative_policy
    exec(
        "def feasible_utility_range(u):\n"
        "    theta = assortative_policy(u)\n"
        "    return min(theta), max(theta)\n",
        vars(design),
    )
    experiments.feasible_utility_range = design.feasible_utility_range
    exec("def run_pareto(u):\n    return feasible_utility_range(u)\n", vars(experiments))
    return modules


def test_instrumented_rebinds_every_alias_and_restores_them(fake_package):
    design, experiments = fake_package["design"], fake_package["experiments"]
    originals = (design.assortative_policy, experiments.feasible_utility_range)
    tracer = Tracer()
    with instrumented(tracer, package="fakepkg"):
        assert design.assortative_policy is fake_package["policies"].assortative_policy
        assert experiments.feasible_utility_range is design.feasible_utility_range
        assert experiments.run_pareto([1.0, 3.0]) == (2.0, 6.0)
    assert (design.assortative_policy, experiments.feasible_utility_range) == originals
    assert [(sp.name, sp.parent) for sp in tracer.spans] == [
        ("experiments", -1), ("design.range", 0), ("policies", 1),
    ]
