"""In-memory spans around the public functions of each queuedesign module.

A span opens where a call crosses into a layer (a package module) or into a
named sub-span of it, such as ``design.solve`` inside ``design``.  Calls a
layer makes to its own unnamed public helpers stay inside the caller's span,
so ``mechanism.allocate`` includes the ranking it does through
``mechanism.arrival_ranks``.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the drivers
run on one thread.

The tracer rebinds every alias of each wrapped function in every loaded
``queuedesign`` module: ``experiments`` imports the solvers, the bootstrap
and the mechanism by name, and ``design`` holds its own
``assortative_policy``.  A missed alias would make a layer read as free, so
the benchmark also checks, per workload, which spans must and must not
appear.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = (
    "cohorts", "mechanism", "policies", "propensity", "counterfactual",
    "design", "estimation", "experiments", "cli", "config",
)

# Functions with a span of their own; every other public function of a
# layer records under the layer's name.
SPAN_NAMES = {
    "design.optimize_exogenous": "design.solve",
    "design.optimize_endogenous": "design.solve",
    "design.feasible_utility_range": "design.range",
    "mechanism.sample_queues": "mechanism.sample_queues",
    "mechanism.allocate": "mechanism.allocate",
    "estimation.multiplier_bootstrap": "estimation.bootstrap",
    "estimation.multiplier_band": "estimation.bootstrap",
    "estimation.estimate_pliv": "estimation.iv",
    "estimation.estimate_iv_ratio": "estimation.iv",
    "estimation.estimate_dr_ate": "estimation.dr",
    "estimation.dr_influence": "estimation.dr",
    "estimation.oracle_nuisances": "estimation.nuisance",
    "estimation.fit_nuisances": "estimation.nuisance",
    "estimation.variance_dr_formula": "estimation.variance",
    "estimation.variance_pliv_formula": "estimation.variance",
    "counterfactual.mc_propensities": "counterfactual.mc",
    "cli.write_csv": "cli.write_csv",
}


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = float("nan")


class Tracer:
    """Spans and counters of one traced driver call, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else -1
        sp = Span(id=len(self.spans), parent=parent, name=name, start=self.clock())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def count(self, name: str, amount=1):
        self.counters[name] += amount

    def record_max(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, excluding the time covered by child spans."""
    child_time = Counter()
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    totals: dict[str, float] = Counter()
    for sp in spans:
        totals[sp.name] += (sp.end - sp.start) - child_time[sp.id]
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(sp.name for sp in spans))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def opens_span(current: Span | None, name: str) -> bool:
    """A call opens a span unless it stays inside the current span's layer
    and names no sub-span other than the current one."""
    if current is None or layer_of(current.name) != layer_of(name):
        return True
    return name != layer_of(name) and name != current.name


# ---------------------------------------------------------------------------
# counters taken at span boundaries
# ---------------------------------------------------------------------------


def _count_solve(tracer, args, result):
    tracer.count("design.iterations", int(result.iterations))
    tracer.count("design.not_converged", int(not result.converged))
    tracer.record_max("design.kkt_max", float(result.kkt_residual))


def _count_bootstrap(tracer, args, result):
    data = args.get("influence", args.get("columns"))
    tracer.count("estimation.bootstrap.normals", int(args["reps"]) * len(data))


def _count_allocate(tracer, args, result):
    tracer.count("mechanism.units_allocated", int(result.n))


def _count_mc(tracer, args, result):
    if args["forced"]:
        n, k = result.theta.shape
        tracer.count("counterfactual.forced_cells", n * k * int(args["reps"]))


def _count_write(tracer, args, result):
    tracer.count("cli.bytes_written", os.path.getsize(args["path"]))


COUNTERS = {
    "design.solve": _count_solve,
    "estimation.bootstrap": _count_bootstrap,
    "mechanism.allocate": _count_allocate,
    "counterfactual.mc": _count_mc,
    "cli.write_csv": _count_write,
}


def _wrap(tracer: Tracer, fn, name: str):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not opens_span(tracer.current, name):
            return fn(*args, **kwargs)
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if layer_of(name) == "estimation":
                    tracer.count("estimation.errors")
                raise
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            return result

    return traced


def public_functions(module) -> dict[str, object]:
    return {
        attr: obj for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


def _package_modules(package: str):
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))]


@contextmanager
def instrumented(tracer: Tracer, package: str = "queuedesign"):
    """Rebind every alias of every layer's public functions to a traced
    wrapper for the duration of the block; restore them afterwards."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in public_functions(module).items():
            wrappers[fn] = _wrap(tracer, fn, SPAN_NAMES.get(f"{layer}.{attr}", layer))
    patched = []
    try:
        for module in _package_modules(package):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)
