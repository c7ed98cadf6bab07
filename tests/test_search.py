"""Search tests.

Three oracles here: an arbitrary-precision recomputation of the UCT score
that ``_select`` ranks children by (mpmath at 50 digits), a full scan of
every child slot that ``_select``'s bookkeeping must agree with, and a
plain-dict scripted simulation of the whole
select/expand/backpropagate/bigstep loop that prove() must reproduce
node for node.
"""

import gc
import hashlib
import importlib.util
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

import contab.search as search_module
from contab.clausify import clausify, clausify_text, load_matrix
from contab.corpus import corpus_dir, corpus_problems
from contab.features import _hash
from contab.policy import (FixedEntropyPredictor, LinearPredictor, Predictor,
                           UniformPredictor, predict)
from contab.search import (
    DISCOUNT,
    HARVEST_CAP,
    MCTSNode,
    ProofResult,
    SearchLimits,
    _Search,
    bigstep,
    format_result_line,
    prove,
)
from contab.tableau import Engine
from contab.tptp import parse_problem

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_problems", ROOT / "perfbench" / "problems.py")
bench_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_problems)

TRIVIAL = "fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a))."
CHAIN3 = (
    "cnf(a1, axiom, q(a)).\ncnf(a2, axiom, p(X) | ~q(X)).\n"
    "fof(c, conjecture, p(a))."
)
DEADEND = "cnf(g, negated_conjecture, ~q(a)).\ncnf(ax, axiom, p(a))."
INFINITE = "cnf(rule, axiom, p(X) | ~p(f(X))).\nfof(c, conjecture, p(a))."
BRANCHY = (
    "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
    "cnf(a3, axiom, ~q(X) | r(X)).\ncnf(a4, axiom, ~r(X) | q(X)).\n"
    "cnf(a5, axiom, ~q(X) | s(X)).\ncnf(a6, axiom, ~s(X) | q(X)).\n"
    "fof(c, conjecture, p(a))."
)


def make_node(visits=0, reward=0.0, depth=1):
    n = MCTSNode(None, None, -1, depth)
    n.visits = visits
    n.reward_sum = reward
    return n


def select(children, parent_visits, cp=1.0):
    """``_select`` on a hand-built parent over expanded children, given
    as (prior, node) pairs."""
    parent = make_node(visits=parent_visits, depth=0)
    parent.set_priors([prior for prior, _ in children])
    for i, (_, node) in enumerate(children):
        parent.add_child(i, node)
    return _Search(None, None, SearchLimits(cp=cp), False)._select(parent)


def probe(score):
    # prior 0 makes the exploration term exactly 0, so this child's UCT
    # score is exactly ``score``
    return 0.0, make_node(visits=1, reward=score)


def uct_between(child, parent_visits, cp, lo, hi):
    """True when ``_select`` scores ``child`` within [lo, hi]: it must not
    lose to a probe worth ``lo`` and not beat one worth ``hi`` (ties go to
    the lower index)."""
    return (select([child, probe(lo)], parent_visits, cp) == 0
            and select([probe(hi), child], parent_visits, cp) == 0)


class TestUctScore:
    def test_log_term_vanishes_at_one_parent_visit(self):
        child = 1.0, make_node(visits=1, reward=1.0)
        assert uct_between(child, 1, 1.0, 1.0, 1.0)

    def test_exploration_only_closed_form(self):
        child = 0.5, make_node(visits=1, reward=0.0)
        assert uct_between(child, math.e, 2.0, 1.0 - 1e-15, 1.0 + 1e-15)

    def test_matches_high_precision_oracle(self):
        rng = random.Random(101)
        mpmath.mp.dps = 50
        for _ in range(1000):
            n = rng.randrange(1, 1000)
            big_n = n + rng.randrange(1, 2000)
            r = rng.random() * n
            p = rng.random()
            cp = rng.choice([0.5, 1.0, 2.0])
            child = p, make_node(visits=n, reward=r)
            want = float(mpmath.mpf(r) / n + mpmath.mpf(cp) * mpmath.mpf(p) * mpmath.sqrt(
                mpmath.log(big_n) / n
            ))
            tol = 1e-12 * max(1.0, abs(want))
            assert uct_between(child, big_n, cp, want - tol, want + tol)

    def test_argmax_matches_high_precision_oracle(self):
        rng = random.Random(2024)
        mpmath.mp.dps = 50
        for _ in range(1000):
            k = rng.randrange(2, 8)
            parent_n = 1
            children = []
            for _ in range(k):
                n = rng.randrange(1, 60)
                parent_n += n
                children.append((rng.random(), make_node(visits=n, reward=rng.random() * n)))
            cp = rng.choice([0.5, 1.0, 2.0])
            got = select(children, parent_n, cp)
            scores = [
                mpmath.mpf(c.reward_sum) / c.visits
                + mpmath.mpf(cp) * mpmath.mpf(p) * mpmath.sqrt(mpmath.log(parent_n) / c.visits)
                for p, c in children
            ]
            want = max(range(k), key=lambda i: scores[i])
            assert got == want

    def test_least_visited_wins_under_equal_priors_and_means(self):
        children = [(0.25, make_node(visits=v, reward=0.5 * v)) for v in (7, 3, 9, 5)]
        parent_n = 1 + sum(c.visits for _, c in children)
        assert select(children, parent_n, 1.0) == 1


def full_scan(node, cp):
    """_select by scoring every child slot: the reference its bookkeeping
    of expanded and unexpanded slots must agree with."""
    log_n = math.log(node.visits)
    best, best_score = -1, -math.inf
    for i, child in enumerate(node.children):
        if child is None:
            score = cp * node.priors[i] * math.sqrt(log_n)
        elif child.fully_explored:
            continue
        else:
            score = child.reward_sum / child.visits + cp * node.priors[i] * math.sqrt(
                log_n / child.visits)
        if score > best_score:
            best, best_score = i, score
    return best


def built_node(priors, expanded, visits):
    """A parent given its priors and then expanded, in the given order,
    through the search's own bookkeeping; ``expanded`` maps a slot to its
    child's (visits, reward sum, fully explored)."""
    node = make_node(visits=visits, depth=0)
    node.set_priors(list(priors))
    for i, (n, reward, done) in expanded.items():
        child = make_node(visits=n, reward=reward)
        child.fully_explored = done
        node.add_child(i, child)
    return node


def selected(node, cp=1.0):
    return _Search(None, None, SearchLimits(cp=cp), False)._select(node)


class TestSelectMatchesFullScan:
    def test_random_nodes(self):
        rng = random.Random(12)
        for _ in range(3000):
            k = rng.randrange(1, 13)
            # a few distinct values make equal priors common
            pool = [rng.random() for _ in range(rng.choice([1, 2, 3, k]))]
            weights = [rng.choice(pool) for _ in range(k)]
            priors = [w / sum(weights) for w in weights]
            slots = rng.sample(range(k), rng.randrange(0, k + 1))
            expanded = {i: (n, rng.random() * n, rng.random() < 0.2)
                        for i in slots for n in [rng.randrange(1, 40)]}
            visits = 1 + sum(n for n, _, _ in expanded.values()) + rng.randrange(0, 3)
            node = built_node(priors, expanded, visits)
            cp = rng.choice([0.5, 1.0, 2.0])
            assert selected(node, cp) == full_scan(node, cp)

    def test_one_visit_picks_slot_zero_whatever_the_priors(self):
        for priors in ([0.1, 0.2, 0.7], [0.7, 0.2, 0.1], [0.0, 1.0], [0.25] * 4, [1.0]):
            node = built_node(priors, {}, visits=1)
            assert selected(node) == full_scan(node, 1.0) == 0

    def test_equal_priors_pick_the_lowest_unexpanded_slot(self):
        node = built_node([0.2] * 5, {0: (3, 0.0, False), 2: (2, 0.0, False)}, visits=6)
        assert selected(node) == full_scan(node, 1.0) == 1

    def test_priors_that_round_to_one_score_pick_the_lowest_index(self):
        """A higher prior one ulp above a lower-index slot's can round to
        the same score; the lower index must win, as in the full scan."""
        ties = 0
        for visits in range(2, 400):
            for p in (0.1, 0.3, 1 / 3, 0.45):
                q = math.nextafter(p, 1.0)
                node = built_node([p, q, p, q], {}, visits)
                want = full_scan(node, 1.0)
                assert selected(node) == want
                ties += want == 0
                # slot 0 expanded out of prior order: it is no longer a
                # candidate for the tie, and its child scores lower
                node = built_node([p, q, p, q], {0: (4, 0.0, False)}, visits)
                assert selected(node) == full_scan(node, 1.0)
        assert ties > 50

    def test_exact_ties_between_slots_pick_the_lowest_index(self):
        # two expanded children with one score, expanded high slot first
        node = built_node([0.25] * 4, {3: (2, 1.8, False), 1: (2, 1.8, False)}, visits=5)
        assert selected(node) == full_scan(node, 1.0) == 1
        # an expanded child of prior 0 whose mean is exactly the score of
        # the unexpanded slot after it
        p, visits = 0.6, 9
        score = 1.0 * p * math.sqrt(math.log(visits))
        node = built_node([0.0, p, 0.4], {0: (1, score, False)}, visits)
        assert selected(node) == full_scan(node, 1.0) == 0

    def test_fully_explored_children_are_skipped(self):
        node = built_node([0.6, 0.4], {0: (5, 5.0, True)}, visits=7)
        assert selected(node) == full_scan(node, 1.0) == 1
        node = built_node([0.6, 0.4], {0: (5, 5.0, True), 1: (1, 0.0, True)}, visits=7)
        assert selected(node) == full_scan(node, 1.0) == -1

    def test_every_selection_of_real_searches(self, monkeypatch):
        real_select = _Search._select
        calls = 0

        def checked(search, node):
            nonlocal calls
            calls += 1
            got = real_select(search, node)
            assert got == full_scan(node, search.limits.cp)
            return got

        monkeypatch.setattr(_Search, "_select", checked)
        engines = [Engine(clausify(parse_problem(p.text))) for p in
                   bench_problems.eq_problems(random.Random(7))]
        engines.append(Engine(clausify_text(BRANCHY)))
        for predictor in (UniformPredictor(), FixedEntropyPredictor(UniformPredictor(), 0.6, 5)):
            for engine in engines:
                prove(engine, "p", predictor, SearchLimits(inference_limit=60, cp=0.7))
        assert calls > 5000


# sha256 of the result lines below, computed before _select scored only
# expanded children and legal_actions decided candidates by head symbol
GROUP_THEORY_DIGEST = "445f61bdbec7bb5cbf3b4c346ce56561f1922eb2a8a1f0fdd19f754068ad6987"


def test_group_theory_searches_are_pinned():
    """The benchmark's seed-7 group-theory problems at a 150-inference
    budget: status, counts and proof of every search are unchanged."""
    lines = []
    for p in bench_problems.eq_problems(random.Random(7)):
        engine = Engine(clausify(parse_problem(p.text)))
        r = prove(engine, p.name, UniformPredictor(), SearchLimits(inference_limit=150))
        proof = ";".join(a.encode() for a in r.proof) if r.proof else "-"
        lines.append(f"{p.name} {r.status} {r.inferences} {r.playouts} {r.bigsteps} {proof}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GROUP_THEORY_DIGEST


class TestBigstep:
    def test_picks_highest_mean(self):
        root = make_node(depth=0)
        root.children = [
            make_node(visits=10, reward=2.0),
            make_node(visits=10, reward=9.0),
        ]
        assert bigstep(root) is root.children[1]

    def test_tie_goes_to_lowest_action_index(self):
        root = make_node(depth=0)
        root.children = [
            make_node(visits=4, reward=2.0),
            make_node(visits=4, reward=2.0),
        ]
        assert bigstep(root) is root.children[0]

    def test_unexpanded_slots_are_ignored(self):
        root = make_node(depth=0)
        root.children = [None, make_node(visits=1, reward=0.2), None]
        assert bigstep(root) is root.children[1]

    def test_no_expanded_child_gives_none(self):
        root = make_node(depth=0)
        root.children = [None, None]
        assert bigstep(root) is None


class TestStatuses:
    def test_trivial_problem_solves_quickly(self):
        engine = Engine(clausify_text(TRIVIAL))
        result = prove(engine, "triv", UniformPredictor(), SearchLimits())
        assert result.status == "solved"
        assert result.solved
        assert result.inferences < 10
        assert engine.check_proof(result.proof)

    def test_disconnected_goal_is_a_dead_end(self):
        engine = Engine(clausify_text(DEADEND))
        result = prove(engine, "dead", UniformPredictor(), SearchLimits())
        assert result.status == "dead-end"
        assert result.proof is None

    def test_infinite_space_exhausts_budget(self):
        engine = Engine(clausify_text(INFINITE))
        limits = SearchLimits(inference_limit=50, bigstep_frequency=10)
        result = prove(engine, "inf", UniformPredictor(), limits)
        assert result.status == "budget-exhausted"
        assert result.inferences == 50
        assert result.proof is None

    def test_a_spent_wall_clock_stops_before_the_first_playout(self):
        # until stop reasons are split, a spent wall clock reads as a spent budget
        engine = Engine(load_matrix(corpus_dir() / "cases.p"))
        result = prove(engine, "cases", UniformPredictor(), SearchLimits(wall_clock=1e-9))
        assert (result.status, result.inferences, result.bigsteps) == ("budget-exhausted", 0, 0)

    def test_entropy_means_divide_the_sums(self):
        result = ProofResult("p", "solved", entropy_sum=3.0, normalized_entropy_sum=1.5,
                             entropy_count=4)
        assert (result.mean_entropy, result.mean_normalized_entropy) == (0.75, 0.375)
        empty = ProofResult("p", "dead-end")
        assert (empty.mean_entropy, empty.mean_normalized_entropy) == (0.0, 0.0)

    def test_result_line_format(self):
        engine = Engine(clausify_text(TRIVIAL))
        result = prove(engine, "triv", UniformPredictor())
        line = format_result_line(result, "traces/triv.trace")
        assert line.startswith("problem=triv status=solved ")
        assert "trace=traces/triv.trace" in line


def proof_leaf(result):
    """The node the proof's actions reach from the root."""
    node = result.bigstep_nodes[0]
    for action in result.proof:
        node = node.children[node.actions.index(action)]
    return node


class TestRewards:
    # the search stops at the first proof, so the leaf holds one visit
    # whose reward is its own
    def test_proof_leaf_reward_discounts_by_depth(self):
        engine = Engine(clausify_text(CHAIN3))
        result = prove(engine, "chain", UniformPredictor())
        assert result.solved
        assert len(result.proof) == 3
        leaf = proof_leaf(result)
        assert leaf.depth == 3
        assert leaf.visits == 1 and leaf.fully_explored
        assert leaf.reward_sum == pytest.approx(DISCOUNT**3)
        assert leaf.reward_sum == pytest.approx(0.9703, abs=5e-4)

    def test_two_step_proof_reward(self):
        engine = Engine(clausify_text(TRIVIAL))
        result = prove(engine, "triv", UniformPredictor())
        leaf = proof_leaf(result)
        assert leaf.visits == 1
        assert leaf.reward_sum == pytest.approx(DISCOUNT**2)


class TestDropTree:
    def test_a_dropped_tree_is_freed_without_the_collector(self):
        engine = Engine(clausify_text(BRANCHY))
        gc.collect()
        gc.disable()
        try:
            result = prove(engine, "b", UniformPredictor(), SearchLimits(inference_limit=200))
            assert len(result.bigstep_nodes) > 1
            result.drop_tree()
            assert result.bigstep_nodes == []
            assert not any(type(o) is MCTSNode for o in gc.get_objects())
        finally:
            gc.enable()


class TestTreeInvariants:
    def run_tree(self, text, limit=400):
        engine = Engine(clausify_text(text))
        limits = SearchLimits(inference_limit=limit, bigstep_frequency=25)
        result = prove(engine, "t", UniformPredictor(), limits)
        return result.bigstep_nodes[0]

    def walk(self, node):
        yield node
        for c in node.children:
            if c is not None:
                yield from self.walk(c)

    @pytest.mark.parametrize("text", [BRANCHY, INFINITE, CHAIN3])
    def test_visit_conservation_and_reward_bounds(self, text):
        root = self.run_tree(text)
        seen = 0
        for node in self.walk(root):
            seen += 1
            assert node.visits >= 1
            assert -1e-9 <= node.mean <= 1.0 + 1e-9
            if node.children:
                expanded = [c for c in node.children if c is not None]
                assert node.visits == 1 + sum(c.visits for c in expanded)
                assert len(node.children) == len(node.actions)
        assert seen > 3

    def test_prior_normalization(self):
        root = self.run_tree(BRANCHY)
        for node in self.walk(root):
            if node.priors is not None and node.children:
                assert len(node.priors) == len(node.children)
                assert sum(node.priors) == pytest.approx(1.0, abs=1e-6)

    def test_single_playout_counts(self):
        engine = Engine(clausify_text(TRIVIAL))
        limits = SearchLimits(inference_limit=1, bigstep_frequency=1000)
        result = prove(engine, "t", UniformPredictor(), limits)
        root = result.bigstep_nodes[0]
        assert result.playouts == 1
        assert root.visits == 2

    def test_budget_equals_engine_apply_calls(self):
        calls = 0

        class CountingEngine(Engine):
            def apply(self, s, a):
                nonlocal calls
                calls += 1
                return super().apply(s, a)

        engine = CountingEngine(clausify_text(INFINITE))
        limits = SearchLimits(inference_limit=77, bigstep_frequency=10)
        result = prove(engine, "t", UniformPredictor(), limits)
        assert result.inferences == result.playouts == calls == 77

    def test_select_finds_a_slot_below_every_node_that_is_not_fully_explored(
            self, monkeypatch):
        # the invariant that lets every playout add one leaf; the dead ends
        # exhaust whole subtrees on the way
        real_select = _Search._select
        calls = 0

        def checked(search, node):
            nonlocal calls
            calls += 1
            assert not node.fully_explored
            i = real_select(search, node)
            assert 0 <= i < len(node.children)
            return i

        monkeypatch.setattr(_Search, "_select", checked)
        statuses = set()
        for path in corpus_problems():
            engine = Engine(load_matrix(path))
            for predictor in (UniformPredictor(), LinearPredictor({_hash("a:extension"): 1.0})):
                result = prove(engine, path.stem, predictor,
                               SearchLimits(inference_limit=300, bigstep_frequency=50))
                statuses.add(result.status)
        for text in (DEADEND, BRANCHY, INFINITE):
            result = prove(Engine(clausify_text(text)), "p", UniformPredictor(),
                           SearchLimits(inference_limit=300, bigstep_frequency=7))
            statuses.add(result.status)
        assert statuses == {"solved", "dead-end", "budget-exhausted"}
        assert calls > 1000


GROUP_EQ = (
    "cnf(assoc, axiom, m(m(X, Y), Z) = m(X, m(Y, Z))).\n"
    "cnf(left_id, axiom, m(e, X) = X).\n"
    "cnf(left_inv, axiom, m(i(X), X) = e).\n"
    "cnf(square, axiom, m(X, X) = e).\n"
    "fof(c, conjecture, m(a, b) = m(b, a))."
)


class ReadsEverything(Predictor):
    """Uniform scores, but declares that it reads every feature."""

    def predict_policy(self, action_features):
        return np.zeros(len(action_features))

    def predict_value(self, state):
        return 0.5


class TestDeclaredReadsChangeNothing:
    """Skipping unread feature extraction leaves every search result as it
    was with the features extracted."""

    @staticmethod
    def outcome(result):
        return (result.status, result.inferences, result.playouts, result.bigsteps,
                result.proof, result.entropy_sum, result.normalized_entropy_sum,
                result.entropy_count)

    def test_corpus(self):
        from contab.clausify import load_matrix
        from contab.corpus import corpus_problems

        assert ReadsEverything().reads_state and ReadsEverything().reads_actions
        for path in corpus_problems():
            engine = Engine(load_matrix(path))
            outs = [self.outcome(prove(engine, path.stem, p, SearchLimits(inference_limit=200)))
                    for p in (UniformPredictor(), ReadsEverything())]
            assert outs[0] == outs[1], path.stem

    def test_equational_problem(self):
        engine = Engine(clausify_text(GROUP_EQ))
        limits = SearchLimits(inference_limit=400, bigstep_frequency=50)
        uniform = prove(engine, "eq", UniformPredictor(), limits)
        reading = prove(engine, "eq", ReadsEverything(), limits)
        assert uniform.inferences == 400 and uniform.bigsteps > 0
        assert self.outcome(uniform) == self.outcome(reading)


class AllInfinite(Predictor):
    """Every action logit +inf: ``inf - inf`` makes the distribution NaN."""

    reads_state = False

    def predict_policy(self, action_features):
        return np.full(len(action_features), math.inf)

    def predict_value(self, state):
        return 0.5


class TestPriorsThatAreNotFinite:
    # at this temperature every logit gap overflows the division by it; the
    # priors must stay finite, or _select ranks no slot and a theorem reads
    # as a dead end
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["branch2", "branch3", "cases", "eq_cond", "path_close"])
    def test_a_tiny_temperature_still_proves_the_theorems(self, name):
        predictor = LinearPredictor({_hash("a:extension"): 1.0}, temperature=1e-310)
        engine = Engine(load_matrix(corpus_dir() / f"{name}.p"))
        result = prove(engine, name, predictor,
                       SearchLimits(inference_limit=300, bigstep_frequency=50))
        assert result.status == "solved"
        assert engine.check_proof(result.proof)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["cases", "branch2", "excluded"])
    def test_infinite_logits_are_an_error_naming_the_predictor(self, name):
        engine = Engine(load_matrix(corpus_dir() / f"{name}.p"))
        with pytest.raises(ValueError, match="^AllInfinite scored a distribution over 2 "
                                             "actions that is not finite$"):
            prove(engine, name, AllInfinite(),
                  SearchLimits(inference_limit=300, bigstep_frequency=50))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_fixed_entropy_predictor_names_its_base(self):
        # the fixed vector is ranked by the base's distribution, and a
        # ranking of NaNs is still a permutation, so the base's is checked
        engine = Engine(load_matrix(corpus_dir() / "excluded.p"))
        with pytest.raises(ValueError, match="^AllInfinite scored a distribution over 2 "
                                             "actions that is not finite$"):
            prove(engine, "excluded", FixedEntropyPredictor(AllInfinite(), 0.6, seed=3),
                  SearchLimits(inference_limit=300, bigstep_frequency=50))


class TestLeavesWithoutActions:
    @pytest.mark.parametrize("text", [DEADEND, GROUP_EQ], ids=["dead-end", "group-eq"])
    def test_are_never_scored(self, text, monkeypatch):
        asked = []

        def recording_predict(predictor, state, actions, matrix):
            asked.append(len(actions))
            return predict(predictor, state, actions, matrix)

        monkeypatch.setattr(search_module, "predict", recording_predict)
        prove(Engine(clausify_text(text)), "p", UniformPredictor(),
              SearchLimits(inference_limit=300, bigstep_frequency=30))
        assert asked and 0 not in asked


class TestScoresByActionCount:
    """A predictor that reads no features is asked once per action count
    and its scores reused; any other is asked at every scored node."""

    @pytest.mark.parametrize("predictor, reused", [
        (UniformPredictor(), True),
        (FixedEntropyPredictor(UniformPredictor(), 0.6, seed=5), True),
        (ReadsEverything(), False),
    ], ids=["uniform", "fixed-entropy", "reading"])
    def test_asked(self, predictor, reused, monkeypatch):
        asked = []

        def recording_predict(predictor, state, actions, matrix):
            asked.append(len(actions))
            return predict(predictor, state, actions, matrix)

        monkeypatch.setattr(search_module, "predict", recording_predict)
        result = prove(Engine(clausify_text(GROUP_EQ)), "eq", predictor,
                       SearchLimits(inference_limit=300, bigstep_frequency=30))
        if reused:
            assert len(asked) == len(set(asked)) < result.entropy_count
        else:
            assert len(asked) == result.entropy_count


class TestDeterminism:
    def fingerprint(self, result):
        return (
            format_result_line(result),
            tuple(a.encode() for a in result.proof or []),
            result.mean_entropy,
            result.mean_normalized_entropy,
            result.entropy_count,
        )

    @pytest.mark.parametrize("text", [BRANCHY, INFINITE, CHAIN3])
    def test_repeat_runs_are_identical(self, text):
        limits = SearchLimits(inference_limit=300, bigstep_frequency=20)
        outs = []
        for _ in range(2):
            engine = Engine(clausify_text(text))
            predictor = FixedEntropyPredictor(UniformPredictor(), 0.6, seed=5)
            outs.append(self.fingerprint(prove(engine, "d", predictor, limits)))
        assert outs[0] == outs[1]


# --- scripted whole-loop simulation ----------------------------------------


class SimNode:
    def __init__(self, state, parent, action_index, depth):
        self.state = state
        self.parent = parent
        self.action_index = action_index
        self.depth = depth
        self.actions = []
        self.priors = None
        self.children = []
        self.visits = 0
        self.reward_sum = 0.0
        self.fully_explored = False


def simulate(engine, predictor, limits):
    """Step-by-step reimplementation of the documented search loop."""
    from contab.policy import entropy, normalized_entropy

    inferences = 0
    playouts = 0
    ent_sum = nent_sum = 0.0
    ent_n = 0
    proof_leaf = None

    def evaluate(node):
        nonlocal ent_sum, nent_sum, ent_n, proof_leaf
        if engine.is_closed(node.state):
            node.fully_explored = True
            proof_leaf = node
            return DISCOUNT**node.depth
        node.actions = engine.legal_actions(node.state)
        probs, value = predict(predictor, node.state, node.actions, engine.matrix)
        if not node.actions:
            node.fully_explored = True
            return 0.0
        node.priors = list(probs)
        node.children = [None] * len(node.actions)
        ent_sum += entropy(probs)
        nent_sum += normalized_entropy(probs)
        ent_n += 1
        return value

    root = SimNode(engine.root_state(), None, -1, 0)
    r = evaluate(root)
    root.visits, root.reward_sum = 1, r

    def select(node):
        log_n = math.log(node.visits)
        best, best_score = -1, -math.inf
        for i, child in enumerate(node.children):
            if child is None:
                score = limits.cp * node.priors[i] * math.sqrt(log_n)
            elif child.fully_explored:
                continue
            else:
                score = child.reward_sum / child.visits + limits.cp * node.priors[i] * math.sqrt(
                    log_n / child.visits
                )
            if score > best_score:
                best, best_score = i, score
        return best

    def mark_explored_up(node):
        cur = node.parent
        while cur is not None:
            if any(c is None or not c.fully_explored for c in cur.children):
                break
            cur.fully_explored = True
            cur = cur.parent

    def playout(start):
        nonlocal inferences, playouts
        node = start
        while True:
            i = select(node)
            if i < 0:
                node.fully_explored = True
                mark_explored_up(node)
                return None
            if node.children[i] is not None:
                node = node.children[i]
                continue
            if inferences >= limits.inference_limit:
                return None
            leaf = SimNode(engine.apply(node.state, node.actions[i]), node, i, node.depth + 1)
            inferences += 1
            node.children[i] = leaf
            reward = evaluate(leaf)
            leaf.visits, leaf.reward_sum = 1, reward
            cur = node
            while cur is not None:
                cur.visits += 1
                cur.reward_sum += reward
                cur = cur.parent
            if leaf.fully_explored:
                mark_explored_up(leaf)
            playouts += 1
            return leaf

    current = root
    n_bigsteps = 0
    since = 0
    status = "budget-exhausted"
    while True:
        if current.fully_explored:
            status = "dead-end" if proof_leaf is None else "solved"
            break
        if inferences >= limits.inference_limit:
            break
        leaf = playout(current)
        if proof_leaf is not None:
            status = "solved"
            break
        if leaf is None:
            continue
        since += 1
        if since >= limits.bigstep_frequency:
            best, best_mean = None, None
            for child in current.children:
                if child is None:
                    continue
                mean = child.reward_sum / child.visits
                if best_mean is None or mean > best_mean:
                    best, best_mean = child, mean
            current = best
            n_bigsteps += 1
            since = 0

    proof = None
    if proof_leaf is not None:
        status = "solved"
        path = []
        node = proof_leaf
        while node.parent is not None:
            path.append(node.parent.actions[node.action_index])
            node = node.parent
        proof = path[::-1]
    return {
        "root": root,
        "status": status,
        "inferences": inferences,
        "playouts": playouts,
        "bigsteps": n_bigsteps,
        "proof": proof,
        "ent_sum": ent_sum,
        "nent_sum": nent_sum,
        "ent_n": ent_n,
    }


def assert_same_tree(real, sim):
    assert real.visits == sim.visits
    assert real.reward_sum == pytest.approx(sim.reward_sum, abs=1e-12)
    assert real.fully_explored == sim.fully_explored
    assert len(real.children) == len(sim.children)
    for rc, sc in zip(real.children, sim.children):
        assert (rc is None) == (sc is None)
        if rc is not None:
            assert_same_tree(rc, sc)


class TestScriptedSimulation:
    CONFIGS = [
        (BRANCHY, 120, 7, "uniform"),
        (BRANCHY, 250, 11, "fixed"),
        (INFINITE, 90, 9, "uniform"),
        (CHAIN3, 50, 4, "uniform"),
        (DEADEND, 50, 5, "uniform"),
        (TRIVIAL, 50, 5, "fixed"),
    ]

    @pytest.mark.parametrize("text,limit,freq,kind", CONFIGS)
    def test_prove_matches_simulation(self, text, limit, freq, kind):
        limits = SearchLimits(inference_limit=limit, bigstep_frequency=freq)

        def predictor():
            if kind == "fixed":
                return FixedEntropyPredictor(UniformPredictor(), 0.55, seed=11)
            return UniformPredictor()

        engine = Engine(clausify_text(text))
        result = prove(engine, "sim", predictor(), limits)
        sim = simulate(Engine(clausify_text(text)), predictor(), limits)

        assert result.status == sim["status"]
        assert result.inferences == sim["inferences"]
        assert result.playouts == sim["playouts"]
        assert result.bigsteps == sim["bigsteps"]
        got_proof = [a.encode() for a in result.proof or []]
        want_proof = [a.encode() for a in sim["proof"] or []]
        assert got_proof == want_proof
        assert result.entropy_count == sim["ent_n"]
        assert result.entropy_sum == pytest.approx(sim["ent_sum"], abs=1e-12)
        assert result.normalized_entropy_sum == pytest.approx(sim["nent_sum"], abs=1e-12)
        assert_same_tree(result.bigstep_nodes[0], sim["root"])


class TestHarvest:
    def test_collect_states_records_decision_points(self):
        engine = Engine(clausify_text(BRANCHY))
        limits = SearchLimits(inference_limit=200, bigstep_frequency=20)
        result = prove(engine, "h", UniformPredictor(), limits, collect_states=True)
        assert result.harvested
        assert len(result.harvested) <= HARVEST_CAP
        from contab.tableau import decode_action

        for path, n_actions in result.harvested:
            assert n_actions >= 2
            state = engine.root_state()
            for enc in path:
                state = engine.apply(state, decode_action(enc))
            assert len(engine.legal_actions(state)) == n_actions

    def test_collect_states_off_by_default(self):
        engine = Engine(clausify_text(BRANCHY))
        result = prove(engine, "h", UniformPredictor(), SearchLimits(inference_limit=50))
        assert result.harvested == []


class TestLimitValidation:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            SearchLimits(inference_limit=0)
        with pytest.raises(ValueError):
            SearchLimits(bigstep_frequency=0)
        with pytest.raises(ValueError):
            SearchLimits(cp=0.0)
        with pytest.raises(ValueError):
            SearchLimits(wall_clock=-1.0)

    def test_defaults(self):
        limits = SearchLimits()
        assert limits.inference_limit == 20000
        assert limits.bigstep_frequency == 200
        assert limits.cp == 1.0
