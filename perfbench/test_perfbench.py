"""Self-test of the benchmark: generators are deterministic, and a tiny
run of every workload prints every metric of BENCHMARK.json with its unit
and repeats its trace_hash.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import problems as gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FAMILIES = {
    "eq": gen.eq_problems,
    "chain": gen.chain_problems,
    "batch": gen.batch_problems,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_seed_gives_byte_identical_problems(family):
    make = FAMILIES[family]
    first = make(random.Random(7))
    again = make(random.Random(7))
    assert [(p.name, p.text.encode("utf-8"), p.expected) for p in first] == \
           [(p.name, p.text.encode("utf-8"), p.expected) for p in again]
    other = make(random.Random(8))
    assert [p.text for p in first] != [p.text for p in other]


def test_problem_names_are_unique_and_answers_known():
    for make in FAMILIES.values():
        probs = make(random.Random(1))
        assert len({p.name for p in probs}) == len(probs)
        assert {p.expected for p in probs} <= {gen.THEOREM, gen.NON_THEOREM}


def _run(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    hashes = [ln.split()[1] for ln in lines if ln.startswith("trace_hash ")]
    assert len(hashes) == 1
    return lines, result, hashes[0]


@pytest.fixture(scope="module")
def runs():
    """Two untraced runs and one traced run of every workload."""
    return {(w, t): [_parse(_run(w, t)) for _ in range(2 - t)]
            for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_name_and_unit(runs, workload, trace):
    lines, result, _ = runs[(workload, trace)][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} {got['value']} {m['unit']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_hash_repeats_across_runs_and_tracing(runs, workload):
    hashes = [h for t in (0, 1) for _, _, h in runs[(workload, t)]]
    assert len(hashes) == 3 and len(set(hashes)) == 1


def test_known_defects_are_probed_and_tolerated(runs):
    lines, result, _ = runs[("batch-wide", 0)][0]
    assert result["correct"] is True
    assert any(ln.startswith("known defects, probed once untimed:") for ln in lines)


def test_a_raise_in_search_fails_the_run(monkeypatch, capsys):
    """``search.prove`` raises when a found proof does not replay; that
    and any other raise outside the known defects makes the run wrong."""
    from contab import learn
    from perfbench import run

    def broken(engine, problem, *args, **kwargs):
        raise RuntimeError(f"{problem}: found proof fails replay: injected")
    monkeypatch.setattr(learn, "prove", broken)
    code = run.main(["--workload", "eq-uniform", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert any(ln.startswith("WRONG ") and "RuntimeError" in ln for ln in lines)
    assert json.loads(lines[-1])["correct"] is False


def test_a_known_defect_raising_another_class_is_a_gate_error():
    from perfbench import workloads
    from contab.tableau import Engine
    [(problem, _)] = gen.known_defect_problems(random.Random(1))[:1]
    probe = workloads.probe_known_defects([(problem, "KeyError")], Engine, 30,
                                          workloads.BATCH_LIMITS)
    assert probe.gate_errors and "RecursionError" in probe.gate_errors[0]


def test_a_non_theorem_reported_solved_is_a_gate_error():
    from contab.search import ProofResult
    from perfbench import workloads
    tally = workloads._Tally({"nt": gen.NON_THEOREM, "th": gen.THEOREM})
    tally.result(ProofResult(problem="th", status="solved", proof=[]))
    tally.result(ProofResult(problem="nt", status="budget-exhausted"))
    assert not tally.gate_errors and tally.solved == 1
    tally.result(ProofResult(problem="nt", status="solved", proof=[]))
    assert tally.gate_errors == ["nt: non-theorem reported solved"]


def test_refuses_to_run_without_the_prover(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
