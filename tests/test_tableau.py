"""Engine tests: action enumeration, application, replay, and traces.

legal_actions is cross-checked by a brute-force enumerator that retries
every (clause, literal, position, direction) candidate on a copy of the
state's substitution and decides nothing by head symbols.  They must
agree on random walks, on every state of real searches, and on random
goals and equations.  apply is cross-checked the same way, on every
expanded child of those searches and every offered action of the random
states, by a successor derived from each rule's definition.
"""

import importlib.util
import pickle
import random
import re
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contab.tableau as tableau_module
from contab.clausify import clausify, clausify_text, load_matrix
from contab.corpus import corpus_dir, corpus_problems
from contab.policy import UniformPredictor
from contab.search import SearchLimits, prove
from contab.tableau import (
    EXTENSION,
    PARAMODULATION,
    REDUCTION,
    START,
    Action,
    Engine,
    IllegalActionError,
    TableauState,
    decode_action,
    read_trace,
    write_trace,
)
from contab.terms import (
    EQ,
    Matrix,
    apply_subst_lit,
    clause_var_count,
    offset_literal,
    replace_at,
    subterm_at,
    subterm_positions,
    unify_args_trail,
    unify_terms_trail,
)
from contab.tptp import parse_problem
from test_features import GROUP_TEXT

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_problems", ROOT / "perfbench" / "problems.py")
bench_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_problems)


def complementary(goal, lit, subst):
    """Whether ``lit`` closes ``goal``: opposite polarity, same predicate
    and arity, arguments unifiable under (a copy of) ``subst``."""
    neg, pred, args = lit
    gneg, gpred, gargs = goal
    return (neg != gneg and pred == gpred and len(args) == len(gargs)
            and unify_args_trail(gargs, args, dict(subst), []))


def oracle_actions(engine, state):
    """Contract-level action enumeration, independent of the engine's
    indexes and head decisions: every candidate is unified on a copy of
    the state's substitution."""
    if not state.started:
        return engine.start_actions()
    if not state.goals or len(state.path) >= engine.path_limit:
        return []
    goal = state.goals[0][0]
    out = []
    for i, plit in enumerate(state.path):
        if complementary(goal, plit, state.subst):
            out.append(Action(REDUCTION, path_index=i))
    for cid, clause in enumerate(engine.matrix.clauses):
        for li, lit in enumerate(clause):
            cand = offset_literal(lit, state.next_var)
            if complementary(goal, cand, state.subst):
                out.append(Action(EXTENSION, clause_id=cid, literal_index=li))
    if engine.paramodulation:
        g = apply_subst_lit(goal, state.subst)
        positions = subterm_positions(g)
        for cid, clause in enumerate(engine.matrix.clauses):
            if cid == engine.matrix.reflexivity_id:
                continue
            for li, lit in enumerate(clause):
                neg, pred, _ = lit
                if pred != EQ or neg:
                    continue
                _, _, (left, right) = offset_literal(lit, state.next_var)
                for pos, sub in positions:
                    for direction, side in (("lr", left), ("rl", right)):
                        if unify_terms_trail(sub, side, dict(state.subst), []):
                            out.append(
                                Action(
                                    PARAMODULATION,
                                    clause_id=cid,
                                    literal_index=li,
                                    position=pos,
                                    direction=direction,
                                )
                            )
    return out


def oracle_apply(engine, state, action):
    """The successor of ``state`` by an offered ``action``, derived from
    the rule's definition rather than from ``Engine.apply``: copy the
    clause above ``next_var``, unify on a copy of the substitution, rewrite,
    and push the residual literals above the pending goals.  Returns what
    ``successor`` returns."""
    if action.kind == START:
        clause = engine.matrix.clauses[action.clause_id]
        return successor([(lit, 0) for lit in clause], [], {}, clause_var_count(clause))
    goal = state.goals[0][0]
    subst = dict(state.subst)
    next_var = state.next_var
    new = []
    if action.kind == REDUCTION:
        plit = state.path[action.path_index]
        assert complementary(goal, plit, subst)
        unify_args_trail(goal[2], plit[2], subst, [])
    else:
        clause = engine.matrix.clauses[action.clause_id]
        copy = [offset_literal(lit, next_var) for lit in clause]
        next_var += clause_var_count(clause)
        conn = copy[action.literal_index]
        residual = copy[: action.literal_index] + copy[action.literal_index + 1:]
        if action.kind == EXTENSION:
            assert complementary(goal, conn, subst)
            unify_args_trail(goal[2], conn[2], subst, [])
        else:
            neg, pred, args = conn
            assert pred == EQ and not neg
            lhs, rhs = args if action.direction == "lr" else reversed(args)
            g = apply_subst_lit(goal, state.subst)
            assert unify_terms_trail(subterm_at(g, action.position), lhs, subst, [])
            new = [replace_at(g, action.position, rhs)]
        new += residual
    pending = list(state.goals[1:])
    if new:
        depth = len(state.path) + 1
        return successor([(lit, depth) for lit in new] + pending, [*state.path, goal],
                         subst, next_var)
    # the closed goal's path is left; the next goal's is the prefix at its depth
    path = state.path[: pending[0][1]] if pending else ()
    return successor(pending, path, subst, next_var)


def successor(goals, path, subst, next_var):
    """What two ways of deriving a state must agree on: its goals and
    path under its own substitution, the goal depths, and ``next_var``."""
    return ([apply_subst_lit(lit, subst) for lit, _ in goals], [d for _, d in goals],
            [apply_subst_lit(lit, subst) for lit in path], next_var)


def state_successor(state):
    return successor(state.goals, state.path, state.subst, state.next_var)


class TestStartStates:
    def test_single_start_clause(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        assert len(e.start_actions()) == 1
        s = e.replay(e.start_actions())
        assert s.path == ()
        neg, pred, _ = s.current_goal
        assert pred == "p" and neg

    def test_two_start_clauses_two_states(self):
        m = clausify_text("fof(a, axiom, p(a)).\nfof(c, conjecture, p(a) | q(a)).")
        e = Engine(m)
        states = [e.replay([a]) for a in e.start_actions()]
        assert len(states) == 2
        assert states[0].goals != states[1].goals

    def test_three_literal_start_clause(self):
        m = clausify_text(
            "fof(a, axiom, p(a)).\nfof(c, conjecture, p(a) & q(a) & r(a))."
        )
        e = Engine(m)
        assert len(e.start_actions()) == 1
        assert len(e.replay(e.start_actions()).goals) == 3

    def test_root_state_offers_start_actions(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        root = e.root_state()
        assert not root.started
        assert e.legal_actions(root) == e.start_actions()
        assert not e.is_closed(root)


class TestExtension:
    def test_single_extension_offer(self):
        m = clausify_text("cnf(a, axiom, p(X) | q(X)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        acts = e.legal_actions(s)
        assert acts == [Action(EXTENSION, clause_id=0, literal_index=0)]

    def test_extension_opens_residual_goals(self):
        m = clausify_text("cnf(a, axiom, p(X) | q(X)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        s2 = e.apply(s, e.legal_actions(s)[0])
        assert len(s2.goals) == 1
        _, pred, args = apply_subst_lit(s2.current_goal, s2.subst)
        assert pred == "q"
        assert args == (("a",),)  # the unifier instantiated X
        assert len(s2.path) == 1

    def test_unit_extension_closes(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        s2 = e.apply(s, e.legal_actions(s)[0])
        assert e.is_closed(s2)
        assert not e.legal_actions(s2)

    def test_substitution_extends_monotonically(self):
        m = clausify_text(
            "cnf(a, axiom, p(X) | q(X)).\ncnf(b, axiom, ~q(Y) | r(Y)).\n"
            "fof(c, conjecture, p(a))."
        )
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        while not e.is_closed(s):
            acts = e.legal_actions(s)
            if not acts:
                break
            parent = s
            s = e.apply(s, acts[0])
            for k, v in parent.subst.items():
                assert s.subst[k] == v


class TestReduction:
    def fixture(self):
        m = clausify_text(
            "cnf(a, axiom, p(a) | ~q(a)).\ncnf(b, axiom, q(X) | p(X)).\n"
            "fof(c, conjecture, p(a))."
        )
        return Engine(m)

    def test_reduction_appears_with_path_index(self):
        e = self.fixture()
        s = e.replay(e.start_actions()[:1])
        s = e.apply(s, Action(EXTENSION, clause_id=0, literal_index=0))
        s = e.apply(s, Action(EXTENSION, clause_id=1, literal_index=0))
        acts = e.legal_actions(s)
        assert Action(REDUCTION, path_index=0) in acts
        # Canonical order puts reductions before extensions.
        kinds = [a.kind for a in acts]
        assert kinds == sorted(kinds, key=[REDUCTION, EXTENSION, PARAMODULATION].index)

    def test_reduction_discharges_without_new_goals(self):
        e = self.fixture()
        s = e.replay(e.start_actions()[:1])
        s = e.apply(s, Action(EXTENSION, clause_id=0, literal_index=0))
        s = e.apply(s, Action(EXTENSION, clause_id=1, literal_index=0))
        n_before = len(s.goals)
        s = e.apply(s, Action(REDUCTION, path_index=0))
        assert len(s.goals) == n_before - 1
        assert e.is_closed(s)


class TestParamodulation:
    def test_simple_rewrite(self):
        m = clausify_text(
            "cnf(e, axiom, a = b).\ncnf(r, axiom, r(b)).\nfof(c, conjecture, r(a))."
        )
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        acts = e.legal_actions(s)
        para = [a for a in acts if a.kind == PARAMODULATION]
        assert para == [
            Action(PARAMODULATION, clause_id=0, literal_index=0, position=(1,), direction="lr")
        ]
        s2 = e.apply(s, para[0])
        neg, pred, args = apply_subst_lit(s2.current_goal, s2.subst)
        assert pred == "r" and neg
        assert args == (("b",),)

    def test_residual_literals_become_goals(self):
        m = clausify_text(
            "cnf(e, axiom, f(a) = b | r(c)).\nfof(c, conjecture, q(f(a)))."
        )
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        para = [a for a in e.legal_actions(s) if a.kind == PARAMODULATION]
        s2 = e.apply(s, para[0])
        assert len(s2.goals) == 2
        _, first_pred, first_args = apply_subst_lit(s2.goals[0][0], s2.subst)
        second_neg, second_pred, _ = apply_subst_lit(s2.goals[1][0], s2.subst)
        assert first_pred == "q" and first_args == (("b",),)
        assert second_pred == "r" and not second_neg

    def test_chained_rewrites_close(self):
        m = clausify_text(
            "cnf(e1, axiom, f(a) = b).\ncnf(e2, axiom, b = c).\n"
            "cnf(r, axiom, r(c)).\nfof(c, conjecture, r(f(a)))."
        )
        e = Engine(m)
        trace = [
            Action(START, clause_id=3),
            Action(PARAMODULATION, clause_id=0, literal_index=0, position=(1,), direction="lr"),
            Action(PARAMODULATION, clause_id=1, literal_index=0, position=(1,), direction="lr"),
            Action(EXTENSION, clause_id=2, literal_index=0),
        ]
        state = e.root_state()
        for a in trace:
            assert a in e.legal_actions(state)
            state = e.apply(state, a)
        assert e.is_closed(state)
        assert e.check_proof(trace)

    def test_both_directions_offered_when_both_sides_unify(self):
        m = clausify_text(
            "cnf(e, axiom, g(X) = g(Y)).\nfof(c, conjecture, p(g(a)))."
        )
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        para = [a for a in e.legal_actions(s) if a.kind == PARAMODULATION]
        dirs = {(a.position, a.direction) for a in para}
        assert ((1,), "lr") in dirs
        assert ((1,), "rl") in dirs

    def test_never_rewrites_at_the_literal_root(self):
        m = clausify_text(
            "cnf(e, axiom, a = b).\ncnf(r, axiom, r(b)).\nfof(c, conjecture, r(a))."
        )
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        assert all(a.position for a in e.legal_actions(s) if a.kind == PARAMODULATION)

    def test_reflexivity_clause_never_rewrites(self):
        m = clausify_text("fof(e, axiom, f(a) = a).\nfof(c, conjecture, f(f(a)) = a).")
        e = Engine(m)
        assert m.reflexivity_id is not None
        assert all(eq[0] != m.reflexivity_id for eq in e.equations)

    def test_reflexivity_closes_equality_goals_by_extension(self):
        m = clausify_text("fof(e, axiom, f(a) = a).\nfof(c, conjecture, f(a) = f(a)).")
        e = Engine(m)
        s = e.replay(e.start_actions()[:1])
        ext = [
            a
            for a in e.legal_actions(s)
            if a.kind == EXTENSION and a.clause_id == m.reflexivity_id
        ]
        assert len(ext) == 1
        assert e.is_closed(e.apply(s, ext[0]))

    def test_paramodulation_can_be_disabled(self):
        m = clausify_text(
            "cnf(e, axiom, a = b).\ncnf(r, axiom, r(b)).\nfof(c, conjecture, r(a))."
        )
        e = Engine(m, paramodulation=False)
        s = e.replay(e.start_actions()[:1])
        assert all(a.kind != PARAMODULATION for a in e.legal_actions(s))


class TestPathLimit:
    @pytest.mark.parametrize("limit", [0, -5])
    def test_a_limit_below_one_is_rejected(self, limit):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        with pytest.raises(ValueError, match=f"path limit must be at least 1, got {limit}"):
            Engine(m, path_limit=limit)
        assert Engine(m, path_limit=1).path_limit == 1

    def test_states_past_the_cap_offer_nothing(self):
        m = clausify_text(
            "cnf(rule, axiom, p(X) | ~p(f(X))).\nfof(c, conjecture, p(a))."
        )
        e = Engine(m, path_limit=3)
        s = e.replay(e.start_actions()[:1])
        depths = 0
        while True:
            acts = e.legal_actions(s)
            if not acts:
                break
            s = e.apply(s, acts[0])
            depths += 1
            assert depths < 50, "cap did not bite"
        assert len(s.path) >= 3
        uncapped = Engine(m, path_limit=100)
        deep = uncapped.replay(uncapped.start_actions()[:1])
        for _ in range(10):
            deep = uncapped.apply(deep, uncapped.legal_actions(deep)[0])
        assert uncapped.legal_actions(deep)


class TestOracleAgreement:
    PROBLEMS = [
        "cnf(a, axiom, p(X) | q(X)).\ncnf(b, axiom, ~q(Y) | r(Y)).\n"
        "cnf(d, axiom, ~r(Z) | p(Z)).\nfof(c, conjecture, p(a)).",
        "cnf(e1, axiom, f(a) = b | r(c)).\ncnf(e2, axiom, b = c).\n"
        "cnf(r, axiom, r(X) | ~q(f(X))).\nfof(c, conjecture, q(f(a))).",
        "fof(e, axiom, f(a) = a).\nfof(c, conjecture, f(f(a)) = a).",
        "cnf(a1, axiom, p(a) | ~q(a)).\ncnf(b1, axiom, q(X) | p(X)).\n"
        "fof(c, conjecture, p(a)).",
    ]

    @pytest.mark.parametrize("text", PROBLEMS)
    def test_random_walks_agree_with_brute_force(self, text):
        m = clausify_text(text)
        e = Engine(m, path_limit=8)
        rng = random.Random(hash(text) & 0xFFFF)
        compared = 0
        for _ in range(25):
            s = e.root_state()
            for _ in range(12):
                got = e.legal_actions(s)
                want = oracle_actions(e, s)
                assert got == want, s.describe()
                compared += 1
                if not got:
                    break
                s = e.apply(s, rng.choice(got))
        assert compared > 40

    def test_action_lists_are_deterministic(self):
        m = clausify_text(self.PROBLEMS[1])
        e = Engine(m)
        s = e.root_state()
        for _ in range(4):
            acts = e.legal_actions(s)
            assert acts == e.legal_actions(s)
            if not acts:
                break
            s = e.apply(s, acts[0])


class TestRewriteMemo:
    """Each engine keeps the paramodulations of every instantiated goal it
    has enumerated, clearing the memo when it holds REWRITE_MEMO_SIZE
    goals.  Whether the memo is warm, or cleared on every miss, must not
    show in any action list or search."""

    BOUNDS = [tableau_module.REWRITE_MEMO_SIZE, 1]

    @staticmethod
    def goal_of(state):
        return apply_subst_lit(state.current_goal, state.subst)

    def random_walks(self, engine, rng, walks=40, steps=12):
        """Walks from the root on one engine, every step checked against
        the brute-force enumerator; returns the rewritten goals seen."""
        goals = []
        for _ in range(walks):
            s = engine.root_state()
            for _ in range(steps):
                got = engine.legal_actions(s)
                assert got == oracle_actions(engine, s), s.describe()
                if s.goals and len(s.path) < engine.path_limit:
                    goals.append(self.goal_of(s))
                if not got:
                    break
                s = engine.apply(s, rng.choice(got))
        return goals

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_random_walks_on_one_engine_agree_with_brute_force(self, bound, monkeypatch):
        monkeypatch.setattr(tableau_module, "REWRITE_MEMO_SIZE", bound)
        engine = Engine(clausify_text(GROUP_TEXT), path_limit=10)
        rng = random.Random(11)
        goals = self.random_walks(engine, rng) + self.random_walks(engine, rng)
        distinct = set(goals)
        # goals recur, so under the larger bound the memo answers them
        assert len(goals) > len(distinct) > 100
        assert len(engine._rewrites) == min(bound, len(distinct))

    def test_a_search_is_the_same_under_either_bound(self, monkeypatch):
        def search(engine):
            result = prove(engine, "group", UniformPredictor(),
                           SearchLimits(inference_limit=600, bigstep_frequency=50))
            tree = [node.actions for node in search_tree_nodes(result)]
            return result.status, result.inferences, result.proof, tree

        engine = Engine(clausify_text(GROUP_TEXT))
        fresh = search(engine)
        assert fresh[1] == 600 and len(fresh[3]) > 300
        assert search(engine) == fresh  # the memo now warm
        monkeypatch.setattr(tableau_module, "REWRITE_MEMO_SIZE", 1)
        assert search(Engine(clausify_text(GROUP_TEXT))) == fresh

    def test_the_caller_owns_the_list(self):
        engine = Engine(clausify_text(GROUP_TEXT))
        state = engine.replay(engine.start_actions()[:1])
        want = list(engine.legal_actions(state))
        assert {a.kind for a in want} == {PARAMODULATION} and len(want) > 1
        got = engine.legal_actions(state)
        got.clear()
        assert engine.legal_actions(state) == want
        got = engine.legal_actions(state)
        got.append(Action(REDUCTION, path_index=0))
        assert engine.legal_actions(state) == want

    def test_the_memo_holds_no_more_goals_than_the_bound(self, monkeypatch):
        monkeypatch.setattr(tableau_module, "REWRITE_MEMO_SIZE", 5)
        engine = Engine(clausify_text(GROUP_TEXT), path_limit=10)
        rng = random.Random(4)
        seen = set()
        for _ in range(20):
            seen.update(self.random_walks(engine, rng, walks=1))
            assert len(engine._rewrites) <= 5
        assert len(seen) > 5


def search_tree_nodes(result):
    """Every node of a finished search's tree, root first."""
    stack = [result.bigstep_nodes[0]]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.children if c is not None)


def assert_search_states_agree(engine, limits):
    """Every state a uniform search visits is offered, in order, exactly
    the actions the brute-force enumerator finds; returns the count."""
    result = prove(engine, "p", UniformPredictor(), limits)
    count = 0
    for node in search_tree_nodes(result):
        assert node.actions == oracle_actions(engine, node.state), node.state.describe()
        count += 1
    return count


def bench_engines(problems, path_limit):
    return [Engine(clausify(parse_problem(p.text, p.source_dir)), path_limit=path_limit)
            for p in problems]


class TestHeadDecisions:
    """legal_actions decides a pair of non-variable terms with different
    heads, or one with a variable, without unifying; it must agree with
    unifying everything."""

    def test_corpus_search_states(self):
        states = 0
        for path in corpus_problems():
            states += assert_search_states_agree(Engine(load_matrix(path)),
                                                 SearchLimits(inference_limit=300))
        assert states > 150

    def test_group_theory_search_states(self):
        engines = bench_engines(bench_problems.eq_problems(random.Random(7)), 100)
        states = sum(assert_search_states_agree(e, SearchLimits(inference_limit=150))
                     for e in engines)
        assert states > 600

    def test_chain_search_states(self):
        problems = bench_problems.chain_problems(random.Random(7))
        states = sum(assert_search_states_agree(e, SearchLimits(inference_limit=150))
                     for e in bench_engines(problems[::3], 40))
        assert states > 300

    def test_rewrite_states_of_an_equality_problem(self):
        """Breadth-first over the first 400 states of a problem that
        rewrites at many positions with equations of both head kinds."""
        engine = Engine(load_matrix(corpus_dir() / "eq_fun_chain.p"), path_limit=12)
        queue, seen, rewrites = deque([engine.root_state()]), 0, 0
        while queue and seen < 400:
            state = queue.popleft()
            actions = engine.legal_actions(state)
            assert actions == oracle_actions(engine, state), state.describe()
            rewrites += sum(a.kind == PARAMODULATION for a in actions)
            seen += 1
            queue.extend(engine.apply(state, a) for a in actions)
        assert seen == 400 and rewrites > 1000


def assert_children_agree(engine, limits):
    """Every expanded child of a uniform search is the state
    ``oracle_apply`` derives for its action; returns the count."""
    count = 0
    for node in search_tree_nodes(prove(engine, "p", UniformPredictor(), limits)):
        for action, child in zip(node.actions, node.children):
            if child is not None:
                assert state_successor(child.state) == oracle_apply(engine, node.state, action), (
                    node.state.describe(), action)
                count += 1
    return count


class TestApplyOracle:
    """apply commits an offered action without deciding it again; its
    successor must be the one each rule's definition gives."""

    def test_corpus_search_children(self):
        children = sum(assert_children_agree(Engine(load_matrix(path)),
                                             SearchLimits(inference_limit=300))
                       for path in corpus_problems())
        assert children > 140

    def test_group_theory_search_children(self):
        engines = bench_engines(bench_problems.eq_problems(random.Random(7)), 100)
        assert sum(assert_children_agree(e, SearchLimits(inference_limit=150))
                   for e in engines) > 700

    def test_chain_search_children(self):
        problems = bench_problems.chain_problems(random.Random(7))
        assert sum(assert_children_agree(e, SearchLimits(inference_limit=150))
                   for e in bench_engines(problems[::3], 40)) > 650


# random terms over unary and binary h (one symbol, two heads), g/1, a, b
def _terms(variables):
    leaves = st.one_of(st.sampled_from(variables), st.sampled_from([("a",), ("b",)]))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.just("h"), sub), st.tuples(st.just("h"), sub, sub),
        st.tuples(st.just("g"), sub)), max_leaves=6)


STATE_VARS = 6     # a random state's variables; 0-3 may be bound
CLAUSE_TERMS = _terms([0, 1, 2])
STATE_TERMS = _terms(list(range(STATE_VARS)))
BINDING_TERMS = {v: _terms(list(range(2 if v < 2 else 4, STATE_VARS))) for v in range(4)}


@st.composite
def _random_state(draw):
    """An engine over random equations and p/q clauses, and a started
    state over it that keeps clauses standardized apart: every variable of
    the state is below ``next_var``, and bindings point to higher ones
    only, so the substitution is acyclic."""
    clause_terms = CLAUSE_TERMS
    clauses = [((False, EQ, (0, 0)),)]  # reflexivity
    for _ in range(draw(st.integers(1, 4))):
        lits = [(False, EQ, (draw(clause_terms), draw(clause_terms)))]
        if draw(st.booleans()):
            lits.append((draw(st.booleans()), "p", (draw(clause_terms), draw(clause_terms))))
        clauses.append(tuple(lits))
    for _ in range(draw(st.integers(0, 3))):
        lit = (draw(st.booleans()), "p", (draw(clause_terms), draw(clause_terms)))
        clauses.append((lit, (True, "q", (draw(clause_terms),))))
    engine = Engine(Matrix(clauses, [1], reflexivity_id=0))
    subst = {}
    for v, terms in BINDING_TERMS.items():
        if draw(st.booleans()):
            subst[v] = draw(terms)
    state_terms = STATE_TERMS
    pred = draw(st.sampled_from(["p", EQ]))
    goal = (draw(st.booleans()), pred, (draw(state_terms), draw(state_terms)))
    path = tuple((draw(st.booleans()), "p", (draw(state_terms), draw(state_terms)))
                 for _ in range(draw(st.integers(0, 2))))
    return engine, TableauState(True, ((goal, len(path)),), path, subst, STATE_VARS)


@settings(max_examples=200, deadline=None)
@given(_random_state())
def test_random_goals_and_equations_match_the_brute_force_enumerator(case):
    """The offered actions are the enumerator's, and each one's successor
    is the one ``oracle_apply`` derives."""
    engine, state = case
    actions = engine.legal_actions(state)
    assert actions == oracle_actions(engine, state)
    for action in actions:
        assert state_successor(engine.apply(state, action)) == oracle_apply(engine, state, action)


def refused_step(engine, actions):
    with pytest.raises(IllegalActionError) as info:
        engine.replay(actions)
    assert str(info.value) == f"{actions[info.value.step].encode()!r} is not a legal action"
    return info.value.step


class TestReplay:
    """``Engine.replay`` applies an action only when ``legal_actions``
    offers it, and names the 0-based step of the first it refuses."""

    # clause 0: a = b, clause 1: r(b), clause 2 (start): ~r(a), clause 3: X = X
    TEXT = "cnf(e, axiom, a = b).\ncnf(r, axiom, r(b)).\nfof(c, conjecture, r(a))."
    PROOF = [
        Action(START, clause_id=2),
        Action(PARAMODULATION, clause_id=0, literal_index=0, position=(1,), direction="lr"),
        Action(EXTENSION, clause_id=1, literal_index=0),
    ]

    def engine(self, **kwargs):
        return Engine(clausify_text(self.TEXT), **kwargs)

    def test_a_legal_sequence_reaches_the_state_apply_does(self):
        e = self.engine()
        state = e.root_state()
        for i, a in enumerate(self.PROOF):
            state = e.apply(state, a)
            replayed = e.replay(self.PROOF[: i + 1])
            assert (replayed.goals, replayed.path, replayed.subst, replayed.next_var) == (
                state.goals, state.path, state.subst, state.next_var)
        assert e.is_closed(state)
        assert e.replay([]).started is False

    def test_start_on_a_non_start_clause(self):
        e = self.engine()
        e.apply(e.root_state(), Action(START, clause_id=1))  # apply alone takes it
        assert refused_step(e, [Action(START, clause_id=1)]) == 0

    def test_start_on_a_started_tableau(self):
        e = self.engine()
        assert refused_step(e, self.PROOF[:1] * 2) == 1

    def test_a_clause_index_past_the_matrix(self):
        e = self.engine()
        start = self.PROOF[:1]
        assert refused_step(e, [Action(START, clause_id=40)]) == 0
        assert refused_step(e, start + [Action(EXTENSION, clause_id=40, literal_index=0)]) == 1
        assert refused_step(e, start + [Action(EXTENSION, clause_id=1, literal_index=5)]) == 1

    def test_any_step_once_the_path_limit_is_reached(self):
        m = clausify_text("cnf(rule, axiom, p(X) | ~p(f(X))).\nfof(c, conjecture, p(a)).")
        uncapped = Engine(m)
        actions, state = [], uncapped.root_state()
        for _ in range(5):
            actions.append(uncapped.legal_actions(state)[0])
            state = uncapped.apply(state, actions[-1])
        assert len(uncapped.replay(actions).path) == 4
        # start, then one extension per level: the third extension would
        # go below depth 2
        assert refused_step(Engine(m, path_limit=2), actions) == 3

    def test_paramodulation_with_the_reflexivity_clause(self):
        e = self.engine()
        refl = Action(PARAMODULATION, clause_id=e.matrix.reflexivity_id, literal_index=0,
                      position=(1,), direction="lr")
        e.apply(e.replay(self.PROOF[:1]), refl)  # apply alone takes it
        assert refused_step(e, self.PROOF[:1] + [refl]) == 1

    def test_paramodulation_on_an_engine_without_it(self):
        assert self.engine().is_closed(self.engine().replay(self.PROOF))
        assert refused_step(self.engine(paramodulation=False), self.PROOF) == 1


class TestCheckProof:
    def proof(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        e = Engine(m)
        return e, [Action(START, clause_id=1), Action(EXTENSION, clause_id=0, literal_index=0)]

    def test_valid_proof_checks(self):
        e, trace = self.proof()
        state = e.check_proof(trace)
        assert e.is_closed(state)
        assert state.goals == ()

    def test_perturbed_action_fails_with_index(self):
        e, trace = self.proof()
        bad = trace[:1] + [Action(EXTENSION, clause_id=0, literal_index=7)]
        with pytest.raises(IllegalActionError) as info:
            e.check_proof(bad)
        assert info.value.step == 1
        assert str(info.value) == "'extension 0 7' is not a legal action"

    def test_truncated_proof_fails_at_the_end(self):
        e, trace = self.proof()
        with pytest.raises(IllegalActionError) as info:
            e.check_proof(trace[:1])
        assert info.value.step == 1
        assert str(info.value) == "tableau not closed after the last action"

    def test_empty_sequence_fails(self):
        e, _ = self.proof()
        with pytest.raises(IllegalActionError, match="not closed") as info:
            e.check_proof([])
        assert info.value.step == 0

    def test_the_error_pickles_with_its_step(self):
        e, trace = self.proof()
        with pytest.raises(IllegalActionError) as info:
            e.check_proof(trace[:1])
        back = pickle.loads(pickle.dumps(info.value))
        assert (type(back), str(back), back.step) == (IllegalActionError, str(info.value), 1)


class TestActionEncoding:
    CASES = [
        Action(START, clause_id=3),
        Action(REDUCTION, path_index=2),
        Action(EXTENSION, clause_id=5, literal_index=1),
        Action(PARAMODULATION, clause_id=0, literal_index=2, position=(1, 2, 1), direction="rl"),
    ]

    @pytest.mark.parametrize("action", CASES)
    def test_encode_decode_roundtrip(self, action):
        assert decode_action(action.encode()) == action

    def test_decode_rejects_garbage(self):
        for line in ["", "frobnicate 1", "extension x y", "reduction",
                     # an index is never negative, where Python would count from the end
                     "start -1", "reduction -2", "extension 0 -1", "paramodulation 0 2 1.-1 lr",
                     # an extra field, which would otherwise be ignored
                     "start 3 99", "reduction 1 0", "extension 1 0 0",
                     "paramodulation 0 2 1.1 lr x"]:
            with pytest.raises(ValueError):
                decode_action(line)



class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        trace = TestActionEncoding.CASES
        p = tmp_path / "x.trace"
        write_trace(p, "prob_name", trace)
        name, actions = read_trace(p)
        assert name == "prob_name"
        assert actions == trace

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text("extension 0 0\n")
        with pytest.raises(ValueError):
            read_trace(p)

    def test_a_bad_line_is_named_by_file_and_line(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text("problem x\nstart 0\n\nextension 1 x\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}:4: malformed action line 'extension 1 x'")):
            read_trace(p)
