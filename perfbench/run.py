"""Benchmark entry point.

    python3 perfbench/run.py --workload eq-uniform --seed 1 --seconds 30 --trace 0

Generates the workload's problems from ``--seed``, probes the workload's
known defects once, then runs rounds until ``--seconds`` have elapsed:
each round sets the problems up (repeatedly for at least
``SETUP_BURST_S``; the median of all set-ups is ``setup_s``) and runs one
pass over the fresh engines.  Passes are deterministic, so every pass
does the same work.  Each round's timings are scaled by the calibration
loop timed around it (see ``calibration``); timings are medians over
rounds, and the unscaled medians are printed as notes.  Every
metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate, the metrics are the per-layer
ones (unscaled), and the spans of set-up and of the last traced pass go
to ``perfbench/out/``.

A run is correct when no problem raises (other than a known defect with
its recorded exception), every found proof replays on the engine that
found it (``search.prove`` raises otherwise), no known non-theorem is
reported solved, and every pass (traced or not) hashes to the same
``trace_hash``.  The exit status is 0 for a correct run, 1 for an
incorrect one and 2 when the prover's sources are missing next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERCENTILES = (99.9, 99.0, 95.0, 90.0)
SETUP_BURST_S = 0.1      # set-up time spent before each pass (at least one set-up)


def _import_program():
    """Puts the checkout's ``src`` first on the path; the benchmark never
    measures an installed copy."""
    src = ROOT / "src"
    if not (src / "contab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import contab
    return Path(contab.__file__).resolve().parent == (src / "contab").resolve()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    finished child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _setup_burst(workload, problems, engine_cls, seconds):
    """Sets the problems up at least once and until ``seconds`` have
    passed; returns the last set-up and every set-up's duration."""
    from perfbench import workloads
    t_end = time.perf_counter() + seconds
    times = []
    while True:
        t0 = time.perf_counter()
        prep = workloads.setup(problems, engine_cls, workload.path_limit)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() >= t_end:
            return prep, times


def _rounds(run_round, seconds):
    """Runs rounds until ``seconds`` have elapsed, at least two."""
    t_end = time.perf_counter() + seconds
    n = 0
    while n < 2 or time.perf_counter() < t_end:
        run_round()
        n += 1


def end_to_end(rounds):
    """``rounds`` holds (pass, set-up times, main scale, pool scale) per
    round; the scales turn seconds of work done in this process and in
    the worker pool into reference seconds.  Searches, the prove/train
    loop (its training step included) and a pass without a loop count as
    pool work; set-up, and what a pass does after its loop (harvest and
    compare), as work in this process.  Timings are medians over rounds,
    so that a slow stretch of the machine moves them less; each problem's
    verdict time is its median over the passes before the median over
    problems is taken."""
    from perfbench import calibration
    passes = [p for p, _, _, _ in rounds]
    per_problem = {}
    for p, _, _, pool in rounds:
        for i, r in enumerate(p.results):
            per_problem.setdefault(i, []).append(r.wall_time * pool)
    verdicts = [statistics.median(ts) for ts in per_problem.values()]
    samples = [t for ts in per_problem.values() for t in ts]
    setups = [t * main for _, times, main, _ in rounds for t in times]

    def loop(p):
        return p.wall if p.loop_wall is None else p.loop_wall

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solved": (passes[0].solved, "count"),
        "infer_per_s": (statistics.median(
            _ratio(sum(r.inferences for r in p.results),
                   sum(r.wall_time for r in p.results) * pool)
            for p, _, _, pool in rounds), "1/s"),
        # no verdicts only when every search raised, which fails the run
        "verdict_s.p50": (statistics.median(verdicts) if verdicts else 0.0, "s"),
        "loop_iter_s": (statistics.median(loop(p) / p.iterations * pool
                                          for p, _, _, pool in rounds), "s"),
        "wall_s": (statistics.median(loop(p) * pool + (p.wall - loop(p)) * main
                                     for p, _, main, pool in rounds), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = [f"passes {len(passes)}, set-ups {len(setups)}, "
             f"verdict_s over {len(verdicts)} searches x {len(passes)} passes",
             f"calibration scale medians: main {statistics.median(r[2] for r in rounds)}, "
             f"pool {statistics.median(r[3] for r in rounds)} "
             f"(reference loop {calibration.REFERENCE_S} s); unscaled medians: "
             f"setup_s {statistics.median(t for _, ts, _, _ in rounds for t in ts)} s, "
             f"wall_s {statistics.median(p.wall for p in passes)} s",
             "pass walls " + " ".join(f"{p.wall:.3f}" for p in passes)]
    for q in PERCENTILES:
        if len(samples) * (1 - q / 100.0) >= 10:
            notes.append(f"verdict_s.p{q:g} {_percentile(samples, q)} s "
                         f"(over all {len(samples)} verdicts)")
            break
    return metrics, notes


def _layer_row(p, spans, pool_overhead):
    from perfbench import tracing
    by = tracing.totals(spans)

    def get(name):
        return by.get(name, [0.0, 0, 0])

    legal = get("tableau.legal_actions")
    inferences = sum(r.inferences for r in p.results)
    proof_len = sum(len(r.proof) for r in p.results if r.proof)
    return {
        "features.state_s": get("features.state")[0],
        "features.state_calls": get("features.state")[1],
        "features.action_s": get("features.action")[0],
        "features.action_calls": get("features.action")[1],
        "policy.predict_s": get("policy.predict")[0],
        "policy.score_s": get("policy.score")[0],
        "tableau.legal_actions_s": legal[0],
        "tableau.legal_actions_calls": legal[1],
        "tableau.actions_per_call": legal[2] / legal[1] if legal[1] else 0.0,
        "tableau.apply_s": get("tableau.apply")[0],
        "tableau.apply_calls": get("tableau.apply")[1],
        "tableau.check_proof_s": get("tableau.check_proof")[0],
        "search.self_s": tracing.self_seconds(spans, "search.prove"),
        "search.playouts": sum(r.playouts for r in p.results),
        "search.bigsteps": sum(r.bigsteps for r in p.results),
        "search.proof_ratio": proof_len / inferences if inferences else 0.0,
        "learn.train_s": get("learn.train")[0],
        "learn.examples": p.examples,
        "learn.extract_s": get("learn.extract")[0],
        "learn.pool_overhead_s": pool_overhead,
        "analysis.harvest_s": get("analysis.harvest")[0],
        "analysis.compare_s": get("analysis.compare")[0],
        "analysis.states": p.states,
    }


UNITS = {"_s": "s", "_calls": "count", "_share": "ratio", "_ratio": "ratio",
         "_per_call": "count"}


def _unit(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "B" if name == "tptp.bytes" else "count"


def per_layer(traced, untraced, setup_spans, prep):
    """Median over traced passes of each per-layer figure."""
    from perfbench import tracing
    rows = [_layer_row(*t) for t in traced]
    setup = tracing.totals(setup_spans)
    values = {}
    for key in rows[0]:
        vals = [r[key] for r in rows]
        values[key] = vals[0] if vals.count(vals[0]) == len(vals) else statistics.median(vals)
    values.update({
        "tptp.parse_s": setup.get("tptp.parse", [0.0])[0],
        "tptp.bytes": prep.bytes,
        "clausify.clausify_s": setup.get("clausify.clausify", [0.0])[0],
        "clausify.clauses": prep.clauses,
        "trace.overhead_share": (statistics.median(p.wall for p, _, _ in traced)
                                 / statistics.median(p.wall for p in untraced) - 1.0),
    })
    return {k: (v, _unit(k)) for k, v in values.items()}


def _traced_pass(workload, prep, tiny):
    from perfbench import tracing
    with tracing.installed() as tr:
        tr.reset()
        p = workload.run(prep, tiny, workload.workers)
        out = (p, tr.spans, tr.pool_overhead)
        tr.reset()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small problems, for the self-test")
    args = ap.parse_args(argv)
    if not _import_program():
        print(f"error: the prover's sources are not at {ROOT / 'src' / 'contab'}",
              file=sys.stderr)
        return 2
    from contab.tableau import Engine
    from perfbench import calibration, tracing, workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    rng = random.Random(args.seed)
    problems = wl.make_problems(rng, tiny)
    print(f"workload {wl.name} (seed {args.seed}, {len(problems)} problems): {wl.why}")
    probe = workloads.probe_known_defects(wl.known_defects(rng), Engine, wl.path_limit,
                                          wl.probe_limits)

    if args.trace:
        prep = workloads.setup(problems, Engine, wl.path_limit)
        with tracing.installed() as tr:
            tr.reset()
            traced_prep = workloads.setup(problems, tracing.TracedEngine, wl.path_limit)
            setup_spans = tr.spans
            tr.reset()
        untraced, traced = [], []

        def round_():
            untraced.append(wl.run(prep, tiny, wl.workers))
            traced.append(_traced_pass(wl, traced_prep, tiny))
        _rounds(round_, args.seconds)
        passes = untraced + [p for p, _, _ in traced]
        metrics = per_layer(traced, untraced, setup_spans, traced_prep)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(spans_path, setup_spans + traced[-1][1])
        notes = [f"spans of set-up and the last traced pass: {spans_path}"]
    else:
        # set-ups are interleaved with the passes, so both sample the
        # whole run rather than one stretch of it; the calibration loops
        # bracket each round
        rounds = []

        def scales():
            main = calibration.loop_seconds()
            return main, main if wl.workers == 1 else calibration.loop_seconds(wl.workers)

        def round_():
            before = scales()
            prep, setup_times = _setup_burst(wl, problems, Engine, SETUP_BURST_S)
            p = wl.run(prep, tiny, wl.workers)
            after = scales()
            rounds.append((p, setup_times, *(2 * calibration.REFERENCE_S / (b + a)
                                             for b, a in zip(before, after))))
        _rounds(round_, args.seconds)
        passes = [p for p, _, _, _ in rounds]
        metrics, notes = end_to_end(rounds)

    first = passes[0]
    hashes = sorted({p.trace_hash for p in passes})
    gate_errors = sorted({e for p in passes + [probe] for e in p.gate_errors})
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = len(hashes) == 1 and not gate_errors
    print(f"trace_hash {' '.join(hashes)} over {len(passes)} passes")
    print(f"solved {first.solved} of {first.attempted} attempted per pass"
          + (f" (by iteration: {first.solved_by_iteration})" if first.solved_by_iteration else ""))
    print(f"failed_share {failed / attempted} ({failed}/{attempted} in the passes)")
    if probe.attempted:
        print(f"known defects, probed once untimed: {probe.failed}/{probe.attempted} failed "
              f"with their recorded class {probe.known_failures or '(none: all fixed)'}; "
              + "; ".join(probe.lines))
    for e in gate_errors:
        print(f"WRONG {e}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
