"""The shipped configs' CSVs against the copies committed under ``results/``.

``results/<config>/`` holds the CSVs that ``configs/<config>.yaml`` writes
at ``--threads 1``, with the names the CLI gives them.  The bias configs
are compared in ``tests/test_acceptance.py``, which runs them anyway; this
module runs the four cheap ones (about 11 s in all).  The bytes hold for
the CPU dispatch ``tests/test_output_bytes.py`` names, so a mismatch
prints it beside the dispatch this process runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from queuedesign.cli import main

from test_output_bytes import dispatch_note

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "results"

CHEAP_CONFIGS = {
    "pareto_exogenous": "pareto",
    "pareto_endogenous": "pareto",
    "estimate_default": "estimate",
    "propensity_check": "check-propensity",
}


def assert_matches_results(config, out_dir):
    """Every CSV under ``results/<config>/`` equals its namesake in ``out_dir``."""
    recorded = sorted((RESULTS_DIR / config).glob("*.csv"))
    assert recorded, f"no CSVs recorded under results/{config}"
    for path in recorded:
        written = (Path(out_dir) / path.name).read_bytes()
        assert written == path.read_bytes(), f"results/{config}/{path.name}: {dispatch_note()}"


@pytest.mark.parametrize("config", sorted(CHEAP_CONFIGS))
def test_shipped_config_writes_recorded_bytes(config, tmp_path):
    main([CHEAP_CONFIGS[config], "--config", str(REPO_ROOT / "configs" / f"{config}.yaml"),
          "--out", str(tmp_path), "--threads", "1"])
    assert_matches_results(config, tmp_path)


def test_bench_frontier_references_are_the_recorded_frontier():
    # bench/configs/frontier-2k.yaml at seed 7 is configs/pareto_exogenous.yaml
    references = json.loads((REPO_ROOT / "bench" / "references.json").read_text())
    recorded = {
        name: hashlib.sha256((RESULTS_DIR / "pareto_exogenous" / name).read_bytes()).hexdigest()
        for name in ("frontier.csv", "bands.csv")
    }
    assert references["frontier-2k"]["7"] == recorded


def test_every_shipped_config_has_recorded_results():
    configs = {path.stem for path in (REPO_ROOT / "configs").glob("*.yaml")}
    recorded = {path.name for path in RESULTS_DIR.iterdir() if path.is_dir()}
    assert configs == recorded
    for config in configs:
        assert list((RESULTS_DIR / config).glob("*.csv")), config
