"""Benchmark: the paper's replication drivers, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is one YAML config
under ``bench/configs`` run through a public driver in
``queuedesign.experiments`` and serialized with ``queuedesign.cli.write_csv``,
in this one process, one driver call after another (a closed loop with one
client).  The CSV bytes of every call are checked against the sha256 values
in ``bench/references.json``; a call that raises or differs counts as failed.

``--seed N`` selects the run's inputs: call ``i`` of the run sets the config
seed to the workload's default seed plus ``(N + i) mod 16``, one of the
sixteen seeds whose references are recorded (``bench/record.py`` records
them).  Solve times differ between cohorts at n = 2000, so a run's median
spans several inputs rather than resting on one.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
calls and reports the per-layer metrics from the spans of ``bench/tracer.py``.
The last line of standard output is one JSON object; the lines before it name
each metric with its unit, and the machine and package versions go to
``.bench_out/env.json`` and to the line starting ``env:``.
"""

from __future__ import annotations

import os

# The bootstrap's matrix product goes through OpenBLAS, which otherwise
# uses every core; both must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Tracer, call_counts, instrumented, layer_of, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
REFERENCE_SEEDS = 16
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    driver: str
    outputs: tuple  # (file name, column-tuple name in experiments)
    present: tuple  # spans every traced call must record
    absent: tuple  # spans no traced call may record


_ALWAYS = ("config", "experiments", "cohorts", "propensity", "policies", "cli.write_csv")

WORKLOADS = {
    "frontier-2k": Workload(
        driver="run_pareto",
        outputs=(("frontier.csv", "FRONTIER_COLUMNS"), ("bands.csv", "BANDS_COLUMNS")),
        present=_ALWAYS + ("design.solve", "design.range", "estimation.bootstrap",
                           "estimation.variance"),
        absent=("mechanism.sample_queues", "mechanism.allocate", "counterfactual.mc",
                "estimation.iv", "estimation.dr", "estimation.nuisance"),
    ),
    "bias-32k": Workload(
        driver="run_bias",
        outputs=(("bias.csv", "BIAS_COLUMNS"),),
        present=_ALWAYS + ("design.solve", "design.range", "mechanism.sample_queues",
                           "mechanism.allocate", "estimation.iv", "estimation.dr",
                           "estimation.nuisance"),
        absent=("estimation.bootstrap", "estimation.variance", "counterfactual.mc"),
    ),
    "propensity-tau52": Workload(
        driver="run_propensity_check",
        outputs=(("propensity.csv", "PROPENSITY_COLUMNS"),),
        present=_ALWAYS + ("mechanism.sample_queues", "mechanism.allocate",
                           "counterfactual.mc"),
        absent=("design.solve", "design.range", "estimation.bootstrap", "estimation.iv",
                "estimation.dr", "estimation.nuisance", "estimation.variance"),
    ),
}


def load_package():
    """Import queuedesign from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    for name in ("queuedesign", "queuedesign.cli", "queuedesign.config",
                 "queuedesign.experiments"):
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"{name} was imported from {module.__file__}, not {SRC}")


def resolve_config(workload: str, seed: int):
    """The workload's RunConfig at its default seed plus seed mod 16."""
    config = sys.modules["queuedesign.config"]
    base = config.load_config(str(BENCH / "configs" / f"{workload}.yaml"))
    return config.apply_overrides(
        base, seed=int(base.execution.seed) + seed % REFERENCE_SEEDS,
        out_dir=str(OUT / workload), threads=1,
    )


def run_workload(workload: str, seed: int) -> tuple[int, dict[str, str]]:
    """One config resolution, driver call and CSV write; returns the config
    seed and the sha256 of each CSV written."""
    experiments = sys.modules["queuedesign.experiments"]
    cli = sys.modules["queuedesign.cli"]
    spec = WORKLOADS[workload]
    cfg = resolve_config(workload, seed)
    result = getattr(experiments, spec.driver)(cfg)
    tables = result if len(spec.outputs) > 1 else (result,)
    os.makedirs(cfg.execution.out_dir, exist_ok=True)
    paths = []
    for (file_name, columns), rows in zip(spec.outputs, tables):
        paths.append(os.path.join(cfg.execution.out_dir, file_name))
        cli.write_csv(paths[-1], getattr(experiments, columns), rows)
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return int(cfg.execution.seed), digests


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and resolve
    the workload's config."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
        f"run.load_package(); run.resolve_config({workload!r}, {seed})"
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


class Run:
    """Driver calls of one benchmark run, with their byte checks."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.workload, self.seed = workload, seed
        self.references = references.get(workload, {})
        self.attempted = 0
        self.failed = 0

    def call(self, index: int) -> float:
        """Time call ``index`` of the run, on the inputs of seed + index."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            cfg_seed, digests = run_workload(self.workload, self.seed + index)
        except Exception:  # a raising driver is a counted failure, not a crash
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        expected = self.references.get(str(cfg_seed))
        if digests != expected:
            print(f"CSV bytes differ from the reference at config seed {cfg_seed}: "
                  f"{digests} != {expected}", file=sys.stderr)
            self.failed += 1
        return elapsed


def measure_untraced(run: Run, seconds: float) -> list[float]:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(run.call(len(walls)))
    return walls


def traced_metrics(tracer, wall: float) -> dict[str, float]:
    selfs = self_times(tracer.spans)
    metrics = {"trace.wall_s": wall}
    for name, count in call_counts(tracer.spans).items():
        metrics[f"{name}.calls"] = count
    for name, value in selfs.items():
        metrics[f"{name}.self_s"] = value
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if layer_of(k) == layer)
    metrics.update(tracer.counters)
    metrics.update(tracer.maxima)
    return metrics


def measure_traced(run: Run, seconds: float):
    """Alternate untraced and traced calls on the same inputs; per-layer
    metrics are medians over the traced calls, and the spans of the last one
    are kept."""
    spec = WORKLOADS[run.workload]
    untraced, traced, samples, coverage_errors = [], [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + statistics.median(untraced) + statistics.median(traced) <= seconds):
        untraced.append(run.call(len(traced)))
        tracer = Tracer()
        with instrumented(tracer):
            traced.append(run.call(len(traced)))
        samples.append(traced_metrics(tracer, traced[-1]))
        counts = call_counts(tracer.spans)
        coverage_errors += [f"{n} recorded no call" for n in spec.present if not counts.get(n)]
        coverage_errors += [f"{n} recorded {counts[n]} calls" for n in spec.absent if counts.get(n)]
    print(f"untraced calls: {untraced}\ntraced calls: {traced}")
    with open(OUT / f"{run.workload}-spans.json", "w") as fh:
        json.dump([[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans], fh)
    keys = set().union(*samples)
    metrics = {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, coverage_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    needed = [SRC / "queuedesign" / "__init__.py", ROOT / "BENCHMARK.json", REFERENCES,
              BENCH / "configs" / f"{args.workload}.yaml"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"not a queuedesign source checkout; missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads(REFERENCES.read_text())

    setup = setup_seconds(args.workload, args.seed)
    load_package()
    OUT.mkdir(exist_ok=True)
    env = environment()
    (OUT / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env: " + json.dumps(env))

    run = Run(args.workload, args.seed, references)
    coverage_errors = []
    if args.trace:
        declared_metrics = declared["per_layer"]
        traced, coverage_errors = measure_traced(run, args.seconds)
        # a span or counter the workload never reaches reads zero
        computed = {m["name"]: 0 for m in declared_metrics} | traced
        for err in coverage_errors:
            print(f"wrapper coverage: {err}", file=sys.stderr)
    else:
        walls = measure_untraced(run, args.seconds)
        computed = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"wall_s: median of {len(walls)} calls: {walls}")
        print(f"setup_s: median of {len(setup)} interpreters: {setup}")
        declared_metrics = declared["end_to_end"]

    metrics = {}
    for m in declared_metrics:
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {computed[m['name']]} {m['unit']}")
    print(f"failed_frac = {run.failed / run.attempted} ({run.failed} of {run.attempted} calls)")
    print(json.dumps({
        "correct": run.failed == 0 and not coverage_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
