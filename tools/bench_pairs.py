"""Paired benchmark runs of two checkouts, and their summary.

    python3 tools/bench_pairs.py run --parent DIR --change DIR \\
        --workload batch-wide --seeds 2001-2010 --seconds 30 --out runs.jsonl
    python3 tools/bench_pairs.py summarize runs.jsonl > BENCH_<n>.json

``run`` alternates the two checkouts seed by seed (the parent first on
odd pairs, the change first on even ones) and appends one JSON line per
run of ``perfbench/run.py --trace 0``: the checkout, workload, seed, exit
code, the ``trace_hash`` of its passes, and the run's final JSON object.
A run whose output does not end in that object is recorded with
``result: null`` and the tail of its stderr, and the next run goes on.
``summarize`` gives, per workload and checkout, the median and quartiles
of every end-to-end metric over the seeds both checkouts measured, the
seeds, each seed's ``trace_hash``, the seeds whose two ``trace_hash``
differ (``moved_hashes``: empty when the change kept every proof), and
the seeds whose run crashed, was wrong or failed a problem
(``all_correct`` is false when there is one), plus how many pairs the
change won on each metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(label: str, checkout: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    trace_hash = next((ln.split()[1] for ln in lines if ln.startswith("trace_hash ")), None)
    rec = {"checkout": label, "workload": workload, "seed": seed,
           "trace_hash": trace_hash, "exit": out.returncode, "result": None}
    try:
        rec["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["stderr_tail"] = out.stderr[-2000:]
    return rec


def cmd_run(args) -> None:
    order = [("parent", args.parent), ("change", args.change)]
    with open(args.out, "a", encoding="utf-8") as fh:
        for i, seed in enumerate(_seeds(args.seeds)):
            for label, checkout in order if i % 2 == 0 else order[::-1]:
                rec = run_one(label, checkout, args.workload, seed, args.seconds)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()


def _quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _correct(result) -> bool:
    return bool(result) and result["correct"] and result["failed"] == 0


def summarize(records) -> dict:
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = {label: {r["seed"]: r for r in records
                        if r["workload"] == workload and r["checkout"] == label}
                for label in ("parent", "change")}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        failed = {lb: [s for s in seeds if not _correct(runs[lb][s]["result"])] for lb in runs}
        measured = [s for s in seeds if all(runs[lb][s]["result"] for lb in runs)]
        hashes = {str(s): {lb: runs[lb][s]["trace_hash"] for lb in runs} for s in seeds}
        entry = {"seeds": seeds,
                 "all_correct": not any(failed.values()),
                 "failed_seeds": failed,
                 "trace_hash": hashes,
                 "moved_hashes": [s for s in seeds
                                  if hashes[str(s)]["parent"] != hashes[str(s)]["change"]],
                 "metrics": {}}
        for name, sign in better.items() if measured else ():
            vals = {lb: [runs[lb][s]["result"]["metrics"][name]["value"] for s in measured]
                    for lb in runs}
            wins = sum((c < p) if sign == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            entry["metrics"][name] = {"better": sign, "change_wins": wins,
                                      **{lb: _quartiles(v) for lb, v in vals.items()}}
        out[workload] = entry
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="N or LO-HI")
    r.add_argument("--seconds", type=float, default=30)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("runs")
    args = ap.parse_args()
    if args.command == "run":
        cmd_run(args)
    else:
        with open(args.runs, encoding="utf-8") as fh:
            records = [json.loads(ln) for ln in fh if ln.strip()]
        json.dump(summarize(records), sys.stdout, indent=1)
        print()


if __name__ == "__main__":
    main()
