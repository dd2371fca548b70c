"""CLI contract: subcommands, CSV schemas, exit codes, determinism, and
what a cold start imports."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml

from queuedesign.cli import main, write_csv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class Run(NamedTuple):
    code: int
    out: str
    err: str


def run_main(args):
    """Call ``main(args)`` in this process and return its exit code, stdout
    and stderr.  A ``SystemExit`` is read as the interpreter reads it: no
    code is 0, and a message is printed to stderr with code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exit_:
            code = exit_.code
            if code is None:
                code = 0
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
    return Run(code, out.getvalue(), err.getvalue())


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


SMALL_ESTIMATE = {
    "cohort": {"n": 200},
    "execution": {"seed": 4},
}
SMALL_PARETO = {
    "cohort": {"n": 200},
    "design": {"c_grid_size": 2, "switch_strengths": [0.5], "greedy_scales": [1.0]},
    "estimation": {"bootstrap_reps": 200},
    "execution": {"seed": 4},
}
SMALL_PROPENSITY = {
    "execution": {"seed": 4, "n_grid": [150], "propensity_reps": 20, "treated_mass_reps": 5},
}
SMALL_BIAS = {
    "cohort": {"n": 150, "dgp": "partially_linear"},
    "design": {"bias_arms": [[0.6, 0.5]]},
    "execution": {"seed": 4, "bias_replications": 10},
}


SUMMARIES = {
    "pareto": "Sweep utility floors and heuristics; write frontier.csv and bands.csv.",
    "bias": "Run the fixed-design endogeneity bias study; write bias.csv.",
    "check-propensity": "Compare MC propensities with the closed form; write propensity.csv.",
    "estimate": "Simulate one allocation and run the three estimators; write estimates.csv.",
}


def normalized(text):
    return " ".join(text.split())


class TestSurface:
    def test_help_shows_each_command_summary(self):
        result = run_main(["--help"])
        assert result.code == 0, result.err
        text = normalized(result.out)
        for summary in SUMMARIES.values():
            assert summary in text

    @pytest.mark.parametrize("name", sorted(SUMMARIES))
    def test_command_help_shows_summary_and_common_options(self, name):
        result = run_main([name, "--help"])
        assert result.code == 0, result.err
        text = normalized(result.out)
        assert SUMMARIES[name] in text
        for option in ("--config FILE", "--seed INTEGER", "--out DIRECTORY",
                       "--threads INTEGER"):
            assert option in text


class TestCsvWriter:
    def test_formats(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b", "c", "d", "e"),
                  [(1, 0.123456789012345, float("inf"), float("nan"), "ok")])
        text = path.read_text()
        assert text == "a,b,c,d,e\n1,0.123456789,inf,nan,ok\n"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("v",), [(np.float64(-0.000123456789123),)])
        assert path.read_text().splitlines()[1] == "-0.000123456789"


class TestCommands:
    def test_estimate_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ESTIMATE)
        out = tmp_path / "out"
        result = run_main(["estimate", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0] == "estimator,point,se,ci_low,ci_high,n,seed,status"
        assert len(lines) == 4  # header + three estimators
        assert all(line.endswith("ok") for line in lines[1:])

    def test_pareto_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_PARETO)
        out = tmp_path / "out"
        result = run_main(["pareto", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        front = (out / "frontier.csv").read_text().splitlines()
        bands = (out / "bands.csv").read_text().splitlines()
        assert front[0] == (
            "method,c_or_param,achieved_utility,variance_proxy,band_low,band_high,status"
        )
        assert bands[0] == "method,c_or_param,band_low,band_high"
        assert len(front) == 1 + 2 + 3  # header + grid + rct/switch/greedy
        assert len(bands) == len(front)

    def test_check_propensity_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_PROPENSITY)
        out = tmp_path / "out"
        result = run_main(["check-propensity", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        lines = (out / "propensity.csv").read_text().splitlines()
        assert lines[0] == "n,k,mc_pi_tilde,alpha_formula,abs_dev,treated_mass,mass_cap"
        assert len(lines) == 3  # header + two queues

    def test_bias_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_BIAS)
        out = tmp_path / "out"
        result = run_main(["bias", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        lines = (out / "bias.csv").read_text().splitlines()
        assert lines[0] == "alpha_config,c_level,estimator,mean_bias,mc_se,replications"
        assert len(lines) == 3
        assert lines[1].startswith("0.6/0.4,")

    def test_statistical_precondition_is_data_not_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "cohort": {"n": 150},
            "mechanism": {"k": 1, "p": [1.0]},
            "execution": {"seed": 4},
        })
        out = tmp_path / "out"
        result = run_main(["estimate", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        lines = (out / "estimates.csv").read_text().splitlines()
        pliv = next(line for line in lines if line.startswith("pliv"))
        assert pliv.endswith("relevance_error")
        assert "nan" in pliv


    @pytest.mark.parametrize("method, beta, iv_status", [
        ("polynomial", 0.005, "ok"),  # two treated units for a degree-3 fit
        ("binned", 0.001, "relevance_error"),  # nobody treated
    ])
    def test_failed_nuisance_fit_is_data_not_failure(self, tmp_path, method, beta, iv_status):
        cfg = write_config(tmp_path, {
            "cohort": {"n": 400},
            "mechanism": {"beta": beta},
            "estimation": {"nuisance_method": method},
            "execution": {"seed": 7},
        })
        out = tmp_path / "out"
        result = run_main(["estimate", "--config", cfg, "--out", str(out)])
        assert result.code == 0, result.err
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[1] == "dr_ate,nan,nan,nan,nan,200,7,precondition_error"
        assert lines[2] == "pliv,nan,nan,nan,nan,200,7,precondition_error"
        # the IV ratio reads no nuisance, so it still runs
        assert lines[3].startswith("iv_ratio,") and lines[3].endswith("," + iv_status)


def exit_case_args(case, tmp_path):
    """The command line of one row of ``EXIT_CODES``."""
    good = write_config(tmp_path, SMALL_ESTIMATE)
    out = str(tmp_path / "o")
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("cohort: [unclosed\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    negative_n = write_config(tmp_path, {"cohort": {"n": -5}}, "negative_n.yaml")
    # a bias study on three queues is a configuration problem
    three_queues = write_config(tmp_path, {
        "cohort": {"dgp": "partially_linear"},
        "mechanism": {"k": 3, "p": [0.4, 0.3, 0.3]},
        "execution": {"bias_replications": 4},
    }, "three_queues.yaml")
    # expm1(1000 * h) overflows for h > 0.71 and the greedy fill's rows turn
    # NaN: run_pareto refuses the policy rather than write a row of NaN
    greedy_overflow = write_config(tmp_path, {
        "cohort": {"n": 2000},
        "design": {"c_grid_size": 1, "greedy_scales": [1000.0]},
    }, "greedy_overflow.yaml")
    return {
        "valid estimate": ["estimate", "--config", good, "--out", out],
        "negative cohort.n": ["estimate", "--config", negative_n, "--out", out],
        "invalid yaml": ["estimate", "--config", str(bad_yaml), "--out", out],
        "bias on three queues": ["bias", "--config", three_queues, "--out", out],
        "overflowing greedy scale": ["pareto", "--config", greedy_overflow, "--out", out],
        "zero threads": ["estimate", "--config", good, "--out", out, "--threads", "0"],
        "negative seed": ["estimate", "--config", good, "--out", out, "--seed", "-1"],
        "uncreatable out": ["estimate", "--config", good, "--out", str(afile / "sub")],
        "missing config file": ["estimate", "--config", str(tmp_path / "nope.yaml")],
        "unknown command": ["frobnicate"],
        "no command": [],
        "non-integer seed": ["estimate", "--config", good, "--seed", "x"],
        "out is a file": ["estimate", "--config", good, "--out", str(afile)],
        "abbreviated option": ["estimate", "--conf", good, "--out", out],
    }[case]


# case, exit code, the stream that reports it, text that stream must hold.
# 0: the run wrote its CSVs; 1: a config, I/O or driver error, printed as
# "Error: ..."; 2: a usage error.
EXIT_CODES = [
    ("valid estimate", 0, "stdout", "estimates.csv: 3 rows"),
    ("negative cohort.n", 1, "stderr", "cohort.n"),
    ("invalid yaml", 1, "stderr", "Error: "),
    ("bias on three queues", 1, "stderr", "k=2"),
    ("overflowing greedy scale", 1, "stderr", "policy entries must be nonnegative"),
    ("zero threads", 1, "stderr", "execution.threads"),
    ("negative seed", 1, "stderr", "execution.seed"),
    ("uncreatable out", 1, "stderr", "Error: "),
    ("missing config file", 2, "stderr", "nope.yaml"),
    ("unknown command", 2, "stderr", "'frobnicate'"),
    ("no command", 2, "stderr", "check-propensity"),  # the usage lists the commands
    ("non-integer seed", 2, "stderr", "--seed"),
    ("out is a file", 2, "stderr", "--out"),
    ("abbreviated option", 2, "stderr", "--conf"),
]


class TestExitCodes:
    @pytest.mark.parametrize("case, code, stream, text", EXIT_CODES,
                             ids=[row[0] for row in EXIT_CODES])
    def test_exit_code_and_message(self, tmp_path, case, code, stream, text):
        got, out, err = run_main(exit_case_args(case, tmp_path))
        assert got == code, (out, err)
        assert text in {"stdout": out, "stderr": err}[stream]
        if code == 1:
            assert err.startswith("Error: ")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_PARETO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_main(["pareto", "--config", cfg, "--out", str(out1)]).code == 0
        assert run_main(["pareto", "--config", cfg, "--out", str(out2)]).code == 0
        assert read(out1 / "frontier.csv") == read(out2 / "frontier.csv")
        assert read(out1 / "bands.csv") == read(out2 / "bands.csv")

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ESTIMATE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_main(["estimate", "--config", cfg, "--out", str(out1)])
        run_main(["estimate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert read(out1 / "estimates.csv") != read(out2 / "estimates.csv")

    def test_thread_count_never_changes_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_BIAS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_main(["bias", "--config", cfg, "--out", str(out1), "--threads", "1"])
        r2 = run_main(["bias", "--config", cfg, "--out", str(out2), "--threads", "2"])
        assert r1.code == 0 and r2.code == 0
        assert read(out1 / "bias.csv") == read(out2 / "bias.csv")


# Runs in a fresh interpreter: this one has already imported scipy.
COLD_START = """
import json, sys
from queuedesign.cli import main

HEAVY = ("scipy.optimize", "concurrent.futures.process", "numpy.ma")

def run(*args):
    main(list(args))
    return [name in sys.modules for name in HEAVY]

cfg, out = sys.argv[1], sys.argv[2]
seen = {}
for name in ("check-propensity", "estimate"):
    seen[name] = run(name, "--config", cfg, "--out", out + "/" + name)
seen["pareto"] = run("pareto", "--config", cfg, "--out", out + "/pareto")
seen["bias"] = run("bias", "--config", cfg, "--out", out + "/bias", "--threads", "2")
print(json.dumps(seen))
"""


class TestColdStart:
    def test_only_solves_and_worker_pools_load_their_modules(self, tmp_path):
        data = {}
        for small in (SMALL_ESTIMATE, SMALL_PARETO, SMALL_PROPENSITY, SMALL_BIAS):
            for block, vals in small.items():
                data.setdefault(block, {}).update(vals)
        cfg = write_config(tmp_path, data)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", COLD_START, cfg, str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        # (scipy.optimize, concurrent.futures.process, numpy.ma loaded) after
        # each; numpy.ma costs about 1.25 MB of peak RSS, and np.unique (which
        # np.quantile calls) loads it.  `bias --threads 2` starts a pool only
        # where this process may run on two or more CPUs.
        pooled = len(os.sched_getaffinity(0)) >= 2
        assert seen == {
            "check-propensity": [False, False, False],
            "estimate": [False, False, True],
            "pareto": [True, False, True],
            "bias": [True, pooled, True],
        }

    @staticmethod
    def loaded_after_import(module, names):
        """Which of ``names`` a fresh interpreter holds after importing ``module``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        probe = (
            "import json, sys\n"
            f"import {module}\n"
            f"print(json.dumps([m in sys.modules for m in {names!r}]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_design_loads_neither_estimation_nor_counterfactual(self):
        # the design layer solves; scoring its policies belongs to the drivers
        loaded = self.loaded_after_import(
            "queuedesign.design", ("queuedesign.estimation", "queuedesign.counterfactual")
        )
        assert loaded == [False, False]

    def test_estimation_does_not_load_counterfactual(self):
        # the estimators read propensities, not the Monte Carlo that makes them
        loaded = self.loaded_after_import("queuedesign.estimation", ("queuedesign.counterfactual",))
        assert loaded == [False]

    def test_cli_does_not_load_click(self):
        # the CLI is argparse; no third-party parser comes with it
        assert self.loaded_after_import("queuedesign.cli", ("click",)) == [False]


def imported_packages(path):
    """Top-level names of the absolute imports anywhere in a source file."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


class TestDependencies:
    def test_declared_dependencies_are_the_imported_packages(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            declared = tomllib.load(fh)["project"]["dependencies"]
        import_name = {"PyYAML": "yaml"}
        declared = {
            import_name.get(name, name) for name in
            (re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared)
        }
        imported = set().union(*map(imported_packages, (SRC / "queuedesign").glob("*.py")))
        third_party = imported - set(sys.stdlib_module_names) - {"queuedesign"}
        assert third_party == declared == {"numpy", "scipy", "yaml"}
