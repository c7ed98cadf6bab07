"""tools/bench_pairs.py: a crashed run is recorded and reported, not fatal."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def record(checkout, seed, value=1.0, correct=True):
    result = {"correct": correct, "failed": 0,
              "metrics": {name: {"value": value} for name in METRICS}}
    return {"checkout": checkout, "workload": "w", "seed": seed, "trace_hash": "h",
            "exit": 0, "result": result}


def test_a_run_without_a_json_result_is_recorded(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('trace_hash abc over 1 passes')\n"
        "sys.stderr.write('Traceback: boom\\n')\nsys.exit(1)\n")
    rec = bench_pairs.run_one("change", str(tmp_path), "w", 3, 0.1)
    assert rec["result"] is None
    assert rec["exit"] == 1
    assert rec["trace_hash"] == "abc"
    assert "boom" in rec["stderr_tail"]


def test_summary_names_crashed_and_wrong_seeds():
    crashed = dict(record("change", 2), exit=1, result=None, stderr_tail="boom")
    records = [record("parent", 1, 2.0), record("change", 1, 1.0),
               record("parent", 2), crashed,
               record("parent", 3, correct=False), record("change", 3)]
    entry = bench_pairs.summarize(records)["w"]
    assert entry["seeds"] == [1, 2, 3]
    assert entry["all_correct"] is False
    assert entry["failed_seeds"] == {"parent": [3], "change": [2]}
    # metrics cover the seeds that both checkouts measured
    assert entry["metrics"]["wall_s"]["parent"]["median"] == 1.5
    assert entry["metrics"]["wall_s"]["change"]["median"] == 1.0


def test_summary_of_correct_runs():
    records = [record("parent", 1), record("change", 1)]
    entry = bench_pairs.summarize(records)["w"]
    assert entry["all_correct"] is True
    assert entry["failed_seeds"] == {"parent": [], "change": []}
