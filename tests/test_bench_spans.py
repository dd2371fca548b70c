"""The benchmark's span coverage, held on small configs.

``bench/run.py --trace 1`` marks a run incorrect when a workload misses a
span it must record or records one it must not.  This runs each workload's
driver on a shrunk copy of its config under ``bench/tracer.instrumented``
and asserts the same lists, so a fast path that skips a public call fails
here and not only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest
import yaml

from queuedesign import cli, config, experiments  # with these, every layer is loaded

BENCH = Path(__file__).resolve().parents[1] / "bench"

# each workload's bench config with its sizes cut down
SHRUNK = {
    "frontier-2k": {"cohort": {"n": 200}, "design": {"c_grid_size": 3},
                    "estimation": {"bootstrap_reps": 100}},
    "bias-32k": {"cohort": {"n": 300}, "execution": {"bias_replications": 3}},
    "propensity-tau52": {"cohort": {"n": 150}, "execution": {
        "n_grid": [150], "propensity_reps": 3, "treated_mass_reps": 2}},
}


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module.  It sets two thread variables on import,
    which the fixture restores afterwards, and it is imported afresh, with
    its ``tracer``, and dropped from ``sys.modules`` again."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("run", "tracer")}
    yield importlib.import_module("run")
    for name, module in saved.items():
        sys.modules.pop(name, None)
        if module is not None:
            sys.modules[name] = module


@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_traced_call_records_the_workloads_spans(workload, bench_run, tmp_path):
    spec = bench_run.WORKLOADS[workload]
    data = yaml.safe_load((BENCH / "configs" / f"{workload}.yaml").read_text())
    for block, keys in SHRUNK[workload].items():
        data[block].update(keys)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))

    tracer = bench_run.Tracer()
    with bench_run.instrumented(tracer):
        cfg = config.load_config(str(path))
        result = getattr(experiments, spec.driver)(cfg)
        tables = result if len(spec.outputs) > 1 else (result,)
        for (name, columns), rows in zip(spec.outputs, tables):
            cli.write_csv(str(tmp_path / name), getattr(experiments, columns), rows)
    counts = bench_run.call_counts(tracer.spans)
    assert [name for name in spec.present if not counts.get(name)] == []
    assert {name: counts[name] for name in spec.absent if counts.get(name)} == {}
