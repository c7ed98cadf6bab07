"""Acceptance suite: one test per shipped criterion, each printing a
single pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see them).

Criteria, in order: worked numeric examples; calculus soundness on the
bundled corpus; search-tree properties on randomized problems; the
entropy-coefficient trend; fixed-entropy ordering transfer; the
temperature-vs-regularization contrast; gradient checks; loop
determinism.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from contab.analysis import compare, harvest_states, kl_divergence, replay_entry
from contab.cli import main
from contab.clausify import clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.learn import (LoopConfig, TrainConfig, policy_grad_logits,
                          policy_loss, prove_problems, run_loop, train,
                          value_grad_logit, value_loss)
from contab.policy import (FixedEntropyPredictor, UniformPredictor, entropy,
                           make_fixed_entropy_vector, normalized_entropy,
                           predict, softmax_temperature)
from contab.search import MCTSNode, SearchLimits, prove, select
from contab.tableau import Engine, IllegalActionError


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def fresh_corpus():
    return [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]


LOOP_LIMITS = SearchLimits(inference_limit=20000, bigstep_frequency=4)


def loop_at(alpha):
    cfg = LoopConfig(alpha=alpha, limits=LOOP_LIMITS,
                     train=TrainConfig(epochs=30, learning_rate=0.3, seed=0))
    return run_loop(fresh_corpus(), 3, cfg)


@pytest.fixture(scope="module")
def alpha_loops():
    t0 = time.monotonic()
    loops = {alpha: loop_at(alpha) for alpha in (0.0, 0.7, 2.0)}
    return loops, time.monotonic() - t0


@pytest.fixture(scope="module")
def corpus_bank():
    problems = fresh_corpus()
    bank = harvest_states(problems,
                          SearchLimits(inference_limit=400, bigstep_frequency=50))
    return bank, dict(problems)


def test_criterion_1_worked_numeric_examples():
    checks = {
        "H[.34/.33/.33]": (entropy([0.34, 0.33, 0.33]), 1.10, 0.02),
        "H[skewed 10]": (entropy([0.73, 0.07, 0.05, 0.05, 0.05,
                                  0.01, 0.01, 0.01, 0.01, 0.01]), 1.10, 0.02),
        "Hn[3]": (normalized_entropy([0.34, 0.33, 0.33]), 1.00, 0.01),
        "Hn[10]": (normalized_entropy([0.73, 0.07, 0.05, 0.05, 0.05,
                                       0.01, 0.01, 0.01, 0.01, 0.01]), 0.48, 0.01),
        "KL fwd": (kl_divergence([0.5, 0.47, 0.01, 0.01, 0.01],
                                 [0.96, 0.01, 0.01, 0.01, 0.01]), 1.48, 0.01),
        "KL rev": (kl_divergence([0.96, 0.01, 0.01, 0.01, 0.01],
                                 [0.5, 0.47, 0.01, 0.01, 0.01]), 0.58, 0.01),
    }
    failures = [k for k, (got, want, tol) in checks.items()
                if abs(got - want) > tol]
    detail = ", ".join(f"{k}={got:.4f}" for k, (got, _, _) in checks.items())
    report(1, "worked numeric examples", not failures, detail)
    assert not failures, failures


def test_criterion_2_calculus_soundness_on_corpus():
    t0 = time.monotonic()
    problems = fresh_corpus()
    limits = SearchLimits()  # stock budget: 20000 inferences, bigstep 200
    solved = replayed = 0
    eq_names = []
    for name, engine in problems:
        if any(pred == "=" for c in engine.matrix.clauses for _, pred, _ in c):
            eq_names.append(name)
        result = prove(engine, name, UniformPredictor(), limits)
        if result.solved:
            solved += 1
            try:
                engine.check_proof(result.proof)
            except IllegalActionError:
                continue
            replayed += 1
    eq_split_ok = False
    if eq_names:
        name = "eq_basic" if "eq_basic" in eq_names else eq_names[0]
        path = next(p for p in corpus_problems() if p.stem == name)
        with_eq = prove(Engine(load_matrix(path)), name, UniformPredictor(), limits)
        without = prove(Engine(load_matrix(path), paramodulation=False), name,
                        UniformPredictor(), limits)
        eq_split_ok = with_eq.solved and not without.solved
    elapsed = time.monotonic() - t0
    ok = (len(problems) >= 30 and len(eq_names) >= 5 and solved == replayed
          and solved > 0 and eq_split_ok and elapsed < 120.0)
    report(2, "calculus soundness", ok,
           f"{solved}/{len(problems)} solved, {replayed} replayed, "
           f"{len(eq_names)} equality problems, rewrite split={eq_split_ok}, "
           f"{elapsed:.1f}s")
    assert ok


def random_ground_problem(rng):
    preds = ["p", "q", "r", "s"]
    consts = ["a", "b"]
    lines = []
    for i in range(int(rng.integers(2, 7))):
        lits = []
        for _ in range(int(rng.integers(1, 4))):
            sign = "~" if rng.random() < 0.5 else ""
            lits.append(f"{sign}{rng.choice(preds)}({rng.choice(consts)})")
        lines.append(f"cnf(c{i}, axiom, {' | '.join(lits)}).")
    lines.append(f"fof(goal, conjecture, {rng.choice(preds)}({rng.choice(consts)})).")
    return "\n".join(lines)


def check_tree(node, failures):
    if node.actions:
        if node.priors is None or len(node.priors) != len(node.actions):
            failures.append("prior shape")
        elif abs(float(np.sum(node.priors)) - 1.0) > 1e-9:
            failures.append("prior sum")
        if len(node.children) != len(node.actions):
            failures.append("children alignment")
        expanded = [c for c in node.children if c is not None]
        if node.visits != 1 + sum(c.visits for c in expanded):
            failures.append("visit conservation")
    if not (-1e-9 <= node.reward_sum <= node.visits + 1e-9):
        failures.append("reward bounds")
    for child in node.children:
        if child is not None:
            check_tree(child, failures)


def select_slot(children, priors, parent_visits, cp):
    """``select`` on a hand-built parent (None marks an unexpanded slot),
    bounded as if the parent were the search's root."""
    parent = MCTSNode(None, -1)
    parent.visits = parent_visits
    parent.set_priors(priors)
    for i, child in enumerate(children):
        if child is not None:
            parent.add_child(i, child)
    return select(parent, cp, math.sqrt(math.log(parent_visits)))


def probe(score):
    node = MCTSNode(None, -1)
    node.visits, node.reward_sum = 1, score
    return node


def test_criterion_3_search_tree_properties():
    rng = np.random.default_rng(2024)
    failures = []
    statuses = {"solved": 0, "dead-end": 0, "budget-exhausted": 0}
    for i in range(1000):
        engine = Engine(clausify_text(random_ground_problem(rng)))
        limit = int(rng.choice([15, 30, 60]))
        limits = SearchLimits(inference_limit=limit,
                              bigstep_frequency=int(rng.choice([3, 7, 50])),
                              cp=float(rng.choice([0.5, 1.0, 2.0])))
        result = prove(engine, f"synth{i}", UniformPredictor(), limits)
        statuses[result.status] += 1
        if result.inferences > limit:
            failures.append(f"synth{i}: budget overrun")
        if result.status == "budget-exhausted" and result.inferences != limit:
            failures.append(f"synth{i}: inexact budget stop")
        check_tree(result.bigstep_nodes[0], failures)

    # closed-form selection score against 50-digit arithmetic: select
    # must rank the child between two probes (prior 0, so scored exactly
    # their mean) one relative 1e-12 below and above the oracle value
    uct_misses = 0
    for _ in range(1000):
        n = int(rng.integers(1, 500))
        r = float(rng.random() * n)
        p = float(rng.random())
        big_n = int(rng.integers(n + 1, 100000))
        cp = float(rng.random() * 3 + 0.1)
        child = MCTSNode(None, -1)
        child.visits, child.reward_sum = n, r
        with mp.workdps(50):
            want = float(mp.mpf(r) / n
                         + mp.mpf(cp) * mp.mpf(p) * mp.sqrt(mp.log(big_n) / n))
        tol = 1e-12 * max(abs(want), 1e-300)
        below, above = probe(want - tol), probe(want + tol)
        if (select_slot([child, below], [p, 0.0], big_n, cp) != 0
                or select_slot([above, child], [0.0, p], big_n, cp) != 0):
            uct_misses += 1
    if uct_misses:
        failures.append(f"uct oracle mismatch on {uct_misses} draws")

    # an unvisited slot's bonus eventually beats any visited child
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        r = float(rng.random() * n)
        p_vis = float(rng.random())
        low = p_vis / math.sqrt(n) + 0.2
        if low >= 0.99:
            continue
        p_new = float(rng.uniform(low, 1.0))
        cp = float(rng.uniform(0.5, 2.0))
        ln_n0 = ((r / n) / (cp * (p_new - p_vis / math.sqrt(n)))) ** 2 + 1.0
        big_n = math.exp(ln_n0)
        child = MCTSNode(None, -1)
        child.visits, child.reward_sum = n, r
        if select_slot([child, None], [p_vis, p_new], big_n, cp) != 1:
            failures.append("exploration dominance")
            break

    ok = not failures and all(v > 0 for v in statuses.values())
    report(3, "search tree properties", ok,
           f"1000 trees ({statuses}), uct within 1e-12 of the oracle "
           f"on {1000 - uct_misses}/1000 draws, "
           f"{len(failures)} violations")
    assert ok, failures[:5]


def bank_mean_entropy(predictor, bank, engines):
    total = 0.0
    for e in bank:
        engine = engines[e.problem]
        state = replay_entry(engine, e)
        probs, _ = predict(predictor, state, engine.legal_actions(state),
                           engine.matrix)
        total += normalized_entropy(probs)
    return total / len(bank)


def test_criterion_4_entropy_coefficient_trend(alpha_loops, corpus_bank):
    loops, elapsed = alpha_loops
    bank, engines = corpus_bank
    bank_h = {}
    stats_h = {}
    solved = {}
    for alpha, out in loops.items():
        pred = out.final_model.predictor(1.0)
        bank_h[alpha] = bank_mean_entropy(pred, bank, engines)
        stats_h[alpha] = out.stats[-1].mean_normalized_entropy
        solved[alpha] = out.stats[-1].solved
    increasing_bank = bank_h[0.0] < bank_h[0.7] < bank_h[2.0]
    increasing_stats = stats_h[0.0] < stats_h[0.7] < stats_h[2.0]
    ok = (increasing_bank and increasing_stats
          and solved[0.7] >= solved[0.0] and elapsed < 900.0)
    report(4, "entropy coefficient trend", ok,
           f"bank H*={bank_h[0.0]:.3f}<{bank_h[0.7]:.3f}<{bank_h[2.0]:.3f}, "
           f"search H*={stats_h[0.0]:.3f}<{stats_h[0.7]:.3f}<{stats_h[2.0]:.3f}, "
           f"solved {solved[0.0]}/{solved[0.7]}/{solved[2.0]}, {elapsed:.0f}s")
    assert ok


def test_criterion_5_fixed_entropy_ordering_transfer(alpha_loops):
    loops, _ = alpha_loops
    trained = loops[0.7].final_model.predictor(1.0)
    fixed = FixedEntropyPredictor(trained, 0.8, 0)
    problems = fresh_corpus()
    base = {r.problem for r, _ in prove_problems(problems, trained, LOOP_LIMITS)
            if r.solved}
    problems = fresh_corpus()
    via_fixed = {r.problem for r, _ in prove_problems(problems, fixed, LOOP_LIMITS)
                 if r.solved}
    ratio = len(base & via_fixed) / len(base) if base else 0.0

    worst = 0.0
    for n in list(range(2, 129)) + [200, 350]:
        worst = max(worst, abs(normalized_entropy(fixed.vector_for(n)) - 0.8))
    for target in (0.2, 0.5, 0.8, 0.95):
        for n in (2, 3, 10, 40, 128):
            vec = make_fixed_entropy_vector(n, target, seed=1)
            worst = max(worst, abs(normalized_entropy(vec) - target))

    ok = ratio >= 0.9 and len(base) > 0 and worst <= 1e-6
    report(5, "fixed-entropy ordering transfer", ok,
           f"retained {len(base & via_fixed)}/{len(base)} solved ({ratio:.0%}), "
           f"worst |H*-target|={worst:.2e}")
    assert ok


def test_criterion_6_temperature_vs_regularization(corpus_bank):
    bank, engines = corpus_bank
    pairs = prove_problems(fresh_corpus(), UniformPredictor(), LOOP_LIMITS)
    examples = [ex for _, exs in pairs for ex in exs]
    sharp = train(examples, TrainConfig(epochs=30, learning_rate=0.3, seed=0), alpha=0.0)
    soft = train(examples, TrainConfig(epochs=30, learning_rate=0.3, seed=0), alpha=2.0)
    base = sharp.predictor(1.0)
    rescaled = compare(base, sharp.predictor(3.0), bank, engines)
    retrained = compare(base, soft.predictor(1.0), bank, engines)
    ok = (rescaled.order == 1.0 and rescaled.kl_ab > 0.0
          and retrained.kl_ab > 0.0 and retrained.kl_ba > 0.0)
    report(6, "temperature vs regularization", ok,
           f"rescaled order={rescaled.order:.2f} kl={rescaled.kl_ab:.3f}; "
           f"retrained kl_ab={retrained.kl_ab:.3f} kl_ba={retrained.kl_ba:.3f} "
           f"over {rescaled.states} states")
    assert ok


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(7)
    h = 1e-6
    worst_p = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        targets = rng.random(n)
        targets /= targets.sum()
        logits = rng.standard_normal(n) * 2.0
        grad = policy_grad_logits(targets, softmax_temperature(logits, 1.0), 0.7)
        for j in range(n):
            up, down = logits.copy(), logits.copy()
            up[j] += h
            down[j] -= h
            numeric = (policy_loss(targets, softmax_temperature(up, 1.0), 0.7)
                       - policy_loss(targets, softmax_temperature(down, 1.0), 0.7)
                       ) / (2 * h)
            worst_p = max(worst_p,
                          abs(grad[j] - numeric) / max(abs(numeric), 1e-4))
    worst_v = 0.0
    for _ in range(100):
        target = float(rng.random())
        z = float(rng.standard_normal() * 3)
        pred = 1.0 / (1.0 + math.exp(-z))
        numeric = (value_loss(target, 1.0 / (1.0 + math.exp(-(z + h))))
                   - value_loss(target, 1.0 / (1.0 + math.exp(-(z - h))))) / (2 * h)
        worst_v = max(worst_v,
                      abs(value_grad_logit(target, pred) - numeric)
                      / max(abs(numeric), 1e-4))
    ok = worst_p <= 1e-4 and worst_v <= 1e-4
    report(7, "gradient checks", ok,
           f"policy rel err {worst_p:.2e}, value rel err {worst_v:.2e} "
           f"at 100 points each (alpha=0.7)")
    assert ok


def test_criterion_8_loop_determinism(tmp_path):
    args = ["loop", "--iterations", "2", "--inference-limit", "2000",
            "--bigstep-frequency", "25", "--epochs", "5", "--workers", "1",
            "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "stats.csv").read_bytes()
    second = (tmp_path / "b" / "stats.csv").read_bytes()
    ok = first == second and len(first) > 0
    report(8, "loop determinism", ok,
           f"two runs, stats.csv {len(first)} bytes, identical={first == second}")
    assert ok
