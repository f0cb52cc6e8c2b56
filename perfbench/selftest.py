"""Self-test of the benchmark at tiny sizes.

Run from the repository root with `python3 -m pytest perfbench/selftest.py`.
The file name keeps it out of the default test collection: each case
starts a fresh interpreter to measure set-up time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, workloads  # noqa: E402
from perfbench.run import WORKLOAD_NAMES, report_lines  # noqa: E402
from perfbench.tracing import LAYER_METRICS  # noqa: E402


def _run(name: str, trace: bool, seconds: float = 0.2) -> dict:
    return harness.run_workload(name, 3, seconds, trace, tiny=True, setup_repeats=1)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [*LAYER_METRICS, "trace.overhead_frac"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_prints_every_metric_with_its_unit(name, trace):
    record = _run(name, trace)
    assert record["correct"], record["notes"]
    assert record["failed"] == 0 and record["failed_frac"] == 0.0
    assert record["attempted"] >= 2

    wanted = {**LAYER_METRICS, "trace.overhead_frac": "ratio"} if trace else harness.END_TO_END
    assert list(record["metrics"]) == list(wanted)
    lines = report_lines(record)
    for metric, m in record["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert m["unit"] and (wanted[metric] or m["unit"].endswith("/s"))
        assert f"{metric} {m['value']!r} {m['unit']}" in lines
    assert f"failed_frac {record['failed_frac']!r} ratio" in lines
    if not trace:
        assert all(record["metrics"][k]["value"] > 0 for k in harness.END_TO_END)


def test_traced_counts_repeat_between_iterations():
    record = _run("series", True, seconds=1.0)
    assert record["attempted"] >= 5  # warm-up plus two untraced/traced pairs
    assert record["correct"], record["notes"]
    assert record["metrics"]["integrate.series_steps"]["value"] > 0
    assert record["spans"] and {"id", "name", "parent", "start_s", "end_s"} <= set(
        record["spans"][0]
    )


def test_wrong_expected_hash_counts_as_failed(tmp_path, monkeypatch):
    expected = json.loads(workloads.EXPECTED_HASHES.read_text())
    expected["fig1/lbs.csv"] = "0" * 64
    wrong = tmp_path / "expected_hashes.json"
    wrong.write_text(json.dumps(expected))
    monkeypatch.setattr(workloads, "EXPECTED_HASHES", wrong)

    record = _run("figures", False, seconds=0.01)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] >= 2
    assert record["failed_frac"] == 1.0
    assert any("fig1/lbs.csv" in note for note in record["notes"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
