"""Bundled-corpus health checks: every problem parses, the designed
dead-ends stay dead, equality problems genuinely need rewriting, and
every found proof replays."""

import pytest

from contab.clausify import load_matrix
from contab.corpus import corpus_dir, corpus_problems
from contab.policy import UniformPredictor
from contab.search import SearchLimits, prove
from contab.tableau import Engine, read_trace, write_trace

LIMITS = SearchLimits(inference_limit=3000, bigstep_frequency=100)
DEAD_ENDS = {"nogoal", "wrong_const"}
EQUALITY = {"eq_basic", "eq_chain", "eq_cond", "eq_fun", "eq_fun_chain",
            "eq_nested", "eq_sym", "eq_trans"}


@pytest.fixture(scope="module")
def corpus_runs():
    runs = {}
    for path in corpus_problems():
        matrix = load_matrix(path)
        engine = Engine(matrix)
        runs[path.stem] = (engine, prove(engine, path.stem, UniformPredictor(), LIMITS))
    return runs


def test_at_least_thirty_problems():
    assert len(corpus_problems()) >= 30
    assert len(corpus_problems()) == 37  # snapshot of the shipped set


def test_every_problem_clausifies():
    for path in corpus_problems():
        matrix = load_matrix(path)
        assert matrix.clauses, path.stem


def test_axiom_include_file_present():
    assert (corpus_dir() / "common.ax").exists()
    names = {p.stem for p in corpus_problems()}
    assert "with_include" in names


def test_all_but_designed_dead_ends_are_solvable(corpus_runs):
    for name, (engine, result) in corpus_runs.items():
        if name in DEAD_ENDS:
            assert result.status == "dead-end", name
            assert result.proof is None
        else:
            assert result.status == "solved", name


def test_solved_proofs_replay_through_the_checker(corpus_runs):
    checked = 0
    for name, (engine, result) in corpus_runs.items():
        if result.status != "solved":
            continue
        assert engine.is_closed(engine.check_proof(result.proof)), name
        checked += 1
    assert checked == 35


def test_traces_roundtrip_and_still_check(corpus_runs, tmp_path):
    for name in ("chain2", "eq_basic", "diamond"):
        engine, result = corpus_runs[name]
        path = tmp_path / f"{name}.trace"
        write_trace(path, name, result.proof)
        back_name, actions = read_trace(path)
        assert back_name == name
        assert actions == result.proof
        assert engine.check_proof(actions)


def test_equality_problems_require_rewriting(corpus_runs):
    assert len(EQUALITY) >= 5
    for name in sorted(EQUALITY):
        engine, result = corpus_runs[name]
        assert result.status == "solved", name
        plain = Engine(load_matrix(corpus_dir() / f"{name}.p"), paramodulation=False)
        blocked = prove(plain, name, UniformPredictor(), LIMITS)
        assert blocked.status != "solved", name


def test_eq_basic_is_the_canonical_rewrite_example(corpus_runs):
    engine, result = corpus_runs["eq_basic"]
    assert result.status == "solved"
    assert any(a.kind == "paramodulation" for a in result.proof)


def test_statuses_are_stable_across_runs(corpus_runs):
    for name, (engine, result) in corpus_runs.items():
        fresh_engine = Engine(load_matrix(corpus_dir() / f"{name}.p"))
        again = prove(fresh_engine, name, UniformPredictor(), LIMITS)
        assert again.status == result.status, name
        assert again.inferences == result.inferences, name
        assert again.proof == result.proof, name
