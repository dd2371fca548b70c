"""The benchmark records at the repo root, held to one schema.

A change that quotes benchmark numbers commits ``BENCH_<n>.json`` beside
``BENCHMARK.json``.  For each workload it gives the parent and change median
of every end-to-end metric, with its unit.  A measured record also keeps each
``bench/run.py`` run's last JSON line as printed, with its seed and the order
of each pair, and its medians are the medians of those lines.  A back-filled
record (``"backfilled": true``) copies only what an earlier CHANGES.md entry
states: a median it does not state is null, with the entry's words beside it.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_records_exist():
    assert {path.name for path in RECORDS} >= {"BENCH_24.json", "BENCH_25.json"}


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record["backfilled"], bool)
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for workload in record["workloads"].values():
        assert set(workload["metrics"]) == set(UNITS)
        for name, metric in workload["metrics"].items():
            assert metric["unit"] == UNITS[name]
            for side in SIDES:
                value = metric[side]
                if value is None:
                    assert record["backfilled"] and metric["stated"]
                else:
                    assert isinstance(value, (int, float)) and value > 0
        if record["backfilled"]:
            continue
        assert record["env"].startswith("env: {")
        runs = workload["runs"]
        assert len(runs) == workload["pairs"] and len({run["seed"] for run in runs}) == len(runs)
        for run in runs:
            assert sorted(run["order"]) == sorted(SIDES)
            for side in SIDES:
                line = run[side]
                assert line["correct"] and line["failed"] == 0
                assert {n: m["unit"] for n, m in line["metrics"].items()} == UNITS
        for name, metric in workload["metrics"].items():
            for side in SIDES:
                values = [run[side]["metrics"][name]["value"] for run in runs]
                assert metric[side] == statistics.median(values)
