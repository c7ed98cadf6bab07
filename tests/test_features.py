"""Hashed state/action feature tests."""

import zlib

from contab import features
from contab.clausify import clausify_text
from contab.features import (
    FEATURE_DIM,
    extract_action_features,
    extract_features,
    literal_walks,
)
from contab.tableau import EXTENSION, PARAMODULATION, REDUCTION, START, Engine, TableauState
from contab.terms import apply_subst_lit


def bucket(namespace, walk):
    return zlib.crc32((namespace + walk).encode()) & (FEATURE_DIM - 1)


class TestLiteralWalks:
    def test_goal_example_walks(self):
        lit = (False, "p", (("f", ("a",)),))
        walks = literal_walks(lit)
        assert "p" in walks
        assert "p>f" in walks
        assert "f>a" in walks
        assert "f" in walks and "a" in walks

    def test_negation_marks_the_root(self):
        lit = (True, "p", (("a",),))
        walks = literal_walks(lit)
        assert "~p" in walks
        assert "~p>a" in walks
        assert "p" not in walks

    def test_variables_collapse_to_star(self):
        lit = (False, "q", (0, ("f", 3)))
        walks = literal_walks(lit)
        assert "*" in walks
        assert "q>*" in walks
        assert "f>*" in walks

    def test_propositional_literal(self):
        assert literal_walks((False, "p", ())) == ["p"]


def goal_state(text="cnf(a, axiom, p(X)).\nfof(c, conjecture, p(f(a)))."):
    engine = Engine(clausify_text(text))
    return engine, engine.replay(engine.start_actions()[:1])


class TestStateFeatures:
    def test_goal_walks_land_in_goal_namespace(self):
        engine, state = goal_state()
        feats = extract_features(state)
        for walk in ("~p", "~p>f", "f>a"):
            assert feats.get(bucket("g:", walk), 0) >= 1

    def test_identical_states_identical_features(self):
        engine, state = goal_state()
        assert extract_features(state) == extract_features(state)
        _, again = goal_state()
        assert extract_features(state) == extract_features(again)

    def test_prestart_marker(self):
        engine, _ = goal_state()
        feats = extract_features(engine.root_state())
        assert feats == {bucket("g:", "<prestart>"): 1}

    def test_namespaces_separate_goal_path_and_open(self):
        engine = Engine(
            clausify_text(
                "cnf(a, axiom, p(X) | q(X) | r(X)).\nfof(c, conjecture, p(b))."
            )
        )
        state = engine.replay(engine.start_actions()[:1])
        state = engine.apply(state, engine.legal_actions(state)[0])
        # Now: current goal q(b), open goal r(b), path [~p(b)].
        feats = extract_features(state)
        assert feats.get(bucket("g:", "q"), 0) >= 1
        assert feats.get(bucket("o:", "r"), 0) >= 1
        assert feats.get(bucket("p:", "~p"), 0) >= 1
        assert bucket("g:", "q") != bucket("o:", "q")
        assert bucket("g:", "q") != bucket("p:", "q")

    def test_substitution_is_applied_before_hashing(self):
        engine = Engine(
            clausify_text("cnf(a, axiom, p(X) | q(X)).\nfof(c, conjecture, p(b)).")
        )
        state = engine.replay(engine.start_actions()[:1])
        state = engine.apply(state, engine.legal_actions(state)[0])
        feats = extract_features(state)
        # The open goal literal is stored as q(X) but X is bound to b.
        assert feats.get(bucket("g:", "q>b"), 0) >= 1
        assert feats.get(bucket("g:", "q>*"), 0) == 0

    def test_counts_accumulate(self):
        engine, state = goal_state(
            "cnf(a, axiom, p(X)).\nfof(c, conjecture, p(f(f(a))))."
        )
        feats = extract_features(state)
        # f appears twice in the goal term.
        assert feats[bucket("g:", "f")] == 2


class TestActionFeatures:
    def test_kind_and_target_and_pair(self):
        engine, state = goal_state()
        action = engine.legal_actions(state)[0]
        feats = extract_action_features(state, action, engine.matrix)
        assert feats.get(bucket("a:", action.kind), 0) == 1
        assert feats.get(bucket("t:", "p"), 0) >= 1
        assert feats.get(bucket("x:", "~p|p"), 0) == 1

    def test_start_action_covers_whole_clause(self):
        engine, _ = goal_state("cnf(a, axiom, p(X)).\nfof(c, conjecture, p(b) | q(b)).")
        root = engine.root_state()
        starts = engine.start_actions()
        feats = extract_action_features(root, starts[0], engine.matrix)
        assert feats.get(bucket("a:", START), 0) == 1
        clause = engine.matrix.clauses[starts[0].clause_id]
        for neg, pred, _ in clause:
            root_walk = ("~" if neg else "") + pred
            assert feats.get(bucket("t:", root_walk), 0) >= 1

    def test_paramodulation_direction_feature(self):
        engine = Engine(
            clausify_text(
                "cnf(e, axiom, a = b).\ncnf(r, axiom, r(b)).\nfof(c, conjecture, r(a))."
            )
        )
        state = engine.replay(engine.start_actions()[:1])
        para = [a for a in engine.legal_actions(state) if a.kind == PARAMODULATION]
        feats = extract_action_features(state, para[0], engine.matrix)
        assert feats.get(bucket("d:", "lr"), 0) == 1
        assert feats.get(bucket("t:", "="), 0) >= 1

    def test_differing_connection_literals_get_distinct_features(self):
        engine = Engine(
            clausify_text(
                "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(f(X)) | r(X)).\n"
                "fof(c, conjecture, p(f(b)))."
            )
        )
        state = engine.replay(engine.start_actions()[:1])
        acts = engine.legal_actions(state)
        assert len(acts) == 2
        f0 = extract_action_features(state, acts[0], engine.matrix)
        f1 = extract_action_features(state, acts[1], engine.matrix)
        assert f0 != f1

    def test_features_depend_only_on_the_connection_literal(self):
        # Residual literals are deliberately not part of action features;
        # two extensions connecting via syntactically equal literals hash
        # the same.
        engine = Engine(
            clausify_text(
                "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
                "fof(c, conjecture, p(b))."
            )
        )
        state = engine.replay(engine.start_actions()[:1])
        acts = engine.legal_actions(state)
        f0 = extract_action_features(state, acts[0], engine.matrix)
        f1 = extract_action_features(state, acts[1], engine.matrix)
        assert f0 == f1


class TestHashing:
    def test_dimension_is_a_power_of_two(self):
        assert FEATURE_DIM == 2**15

    def test_buckets_in_range_on_corpus(self):
        from contab.clausify import load_matrix
        from contab.corpus import corpus_problems

        for path in corpus_problems()[:10]:
            engine = Engine(load_matrix(path))
            for a in engine.start_actions():
                for idx, count in extract_features(engine.replay([a])).items():
                    assert 0 <= idx < FEATURE_DIM
                    assert count >= 1

    def test_corpus_collision_rate_below_five_percent(self):
        from contab.clausify import load_matrix
        from contab.corpus import corpus_problems

        walks = set()
        for path in corpus_problems():
            matrix = load_matrix(path)
            for clause in matrix.clauses:
                for lit in clause:
                    for w in literal_walks(lit):
                        for ns in ("g:", "o:", "p:", "t:"):
                            walks.add(ns + w)
        buckets = {zlib.crc32(w.encode()) & (FEATURE_DIM - 1) for w in walks}
        collisions = len(walks) - len(buckets)
        assert len(walks) > 100
        assert collisions / len(walks) < 0.05


class TestWalkMemo:
    """Memoized literal walks give exactly the features a fresh
    computation gives, and the memo never outgrows its bound."""

    @staticmethod
    def searched_states(engine):
        from contab.policy import LinearPredictor
        from contab.search import SearchLimits, prove

        # a predictor that reads every feature, so the search fills the memo
        predictor = LinearPredictor(*[dict.fromkeys(range(FEATURE_DIM), 0.01)] * 2)
        result = prove(engine, "memo", predictor, SearchLimits(inference_limit=300,
                                                                bigstep_frequency=50))
        states, stack = [], [result.bigstep_nodes[0]]
        while stack:
            node = stack.pop()
            states.append((node.state, node.actions))
            stack.extend(c for c in node.children if c is not None)
        return states

    def test_memoized_features_equal_fresh_ones(self, monkeypatch):
        engine = Engine(clausify_text(
            "cnf(assoc, axiom, m(m(X, Y), Z) = m(X, m(Y, Z))).\n"
            "cnf(left_id, axiom, m(e, X) = X).\n"
            "cnf(left_inv, axiom, m(i(X), X) = e).\n"
            "fof(c, conjecture, m(a, m(i(a), b)) = b)."))
        features._literal_indices.cache_clear()
        states = self.searched_states(engine)
        assert len(states) > 100
        memoized = [(extract_features(s), [extract_action_features(s, a, engine.matrix)
                                           for a in actions])
                    for s, actions in states]
        assert features._literal_indices.cache_info().hits > 0
        monkeypatch.setattr(features, "_literal_indices", features._literal_indices.__wrapped__)
        fresh = [(extract_features(s), [extract_action_features(s, a, engine.matrix)
                                        for a in actions])
                 for s, actions in states]
        assert memoized == fresh

    def test_memo_is_bounded(self):
        info = features._literal_indices.cache_info()
        assert info.maxsize == features.WALK_CACHE_SIZE
        for i in range(features.WALK_CACHE_SIZE + 50):
            features._literal_indices("g:", (False, "p", ((f"c{i}",),)))
        info = features._literal_indices.cache_info()
        assert info.currsize == info.maxsize


CHAIN_TEXT = (
    # a chain p0 -> p1 -> p2 -> p3 with looping lures.  step0 leaves Y
    # unbound in a pending goal and, through hop, in a path literal until
    # a hop fact binds it; the only way back to p3 from p0 is the non-Horn
    # split clause, closed by a reduction
    "cnf(loopa, axiom, ~qb(f(X)) | qa(X)).\n"
    "cnf(loopb, axiom, ~qa(f(X)) | qb(X)).\n"
    "cnf(lure0, axiom, ~qa(X) | p1(X)).\n"
    "cnf(step0, axiom, ~link(X, Y) | ~p0(Y) | p1(X)).\n"
    "cnf(hop, axiom, ~hop(X, Y) | ~ok(Y) | link(X, Y)).\n"
    "cnf(hop_e, axiom, hop(c, e)).\n"
    "cnf(hop_c, axiom, hop(c, c)).\n"
    "cnf(ok_e, axiom, ok(e)).\n"
    "cnf(ok_c, axiom, ok(c)).\n"
    "cnf(step1, axiom, ~p1(X) | p2(X)).\n"
    "cnf(lure1, axiom, ~qa(X) | p2(X)).\n"
    "cnf(step2, axiom, ~p2(X) | p3(X)).\n"
    "cnf(split, axiom, p0(X) | p3(X)).\n"
    "fof(goal, conjecture, p3(c)).\n")
GROUP_TEXT = (
    "cnf(assoc, axiom, m(m(X, Y), Z) = m(X, m(Y, Z))).\n"
    "cnf(left_id, axiom, m(e, X) = X).\n"
    "cnf(left_inv, axiom, m(i(X), X) = e).\n"
    "cnf(square, axiom, m(X, X) = e).\n"
    "fof(c, conjecture, m(a, b) = m(b, a)).\n")


def fresh_state_features(state):
    """The state features computed from scratch: every literal
    instantiated with ``apply_subst_lit`` and every walk hashed."""
    if not state.started:
        return extract_features(state)
    counts = {}
    lits = [("g:", state.goals[0][0])] if state.goals else []
    lits += [("o:", lit) for lit, _ in state.goals[1:]]
    lits += [("p:", lit) for lit in state.path]
    for namespace, lit in lits:
        for walk in literal_walks(apply_subst_lit(lit, state.subst)):
            idx = bucket(namespace, walk)
            counts[idx] = counts.get(idx, 0) + 1
    return counts


class TestInheritedInstantiations:
    """A state's instantiated literals are inherited from its parent's, and
    the features built from them are exactly the from-scratch ones."""

    @staticmethod
    def searched_nodes(text):
        from contab.policy import LinearPredictor
        from contab.search import SearchLimits, prove

        engine = Engine(clausify_text(text), path_limit=20)
        # reads every feature, so each state's parent has its literals cached
        predictor = LinearPredictor(*[dict.fromkeys(range(FEATURE_DIM), 0.01)] * 2)
        result = prove(engine, "inherit", predictor,
                       SearchLimits(inference_limit=300, bigstep_frequency=50))
        nodes, stack = [], [result.bigstep_nodes[0]]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(c for c in node.children if c is not None)
        return nodes

    def test_inherited_features_equal_fresh_ones(self):
        kinds = set()
        checked = 0
        for text in (CHAIN_TEXT, GROUP_TEXT):
            for node in self.searched_nodes(text):
                state = node.state
                for child in node.children:
                    if child is not None:
                        kinds.add(node.actions[child.action_index].kind)
                        assert child.state.parent is state
                inherited = extract_features(state)
                fresh = fresh_state_features(state)
                assert list(inherited.items()) == list(fresh.items())
                checked += 1
        assert {EXTENSION, REDUCTION, PARAMODULATION} <= kinds
        assert checked > 300

    def test_instantiations_are_inherited_along_a_branch(self, monkeypatch):
        from contab import tableau

        nodes = self.searched_nodes(CHAIN_TEXT)
        deep = max(nodes, key=lambda n: len(n.state.goals) + len(n.state.path))
        state = deep.state
        calls = []
        real = tableau._instantiate
        monkeypatch.setattr(tableau, "_instantiate",
                            lambda lit, subst: calls.append(lit) or real(lit, subst))
        rebuilt = TableauState(state.started, state.goals, state.path, state.subst,
                               state.next_var, state.parent)
        assert rebuilt.instantiated() == state.instantiated()
        # the parent's literals are already there: only what changed is redone
        assert len(calls) < len(state.goals) + len(state.path)

    def test_states_without_a_known_parent_compute_from_scratch(self, monkeypatch):
        from contab import tableau

        calls = []
        real = tableau._instantiate
        monkeypatch.setattr(tableau, "_instantiate",
                            lambda lit, subst: calls.append(lit) or real(lit, subst))
        engine = Engine(clausify_text(CHAIN_TEXT))
        # initial states: their parent is the pre-start root, which has none cached
        for state in [engine.replay([a]) for a in engine.start_actions()]:
            calls.clear()
            assert list(extract_features(state).items()) == \
                list(fresh_state_features(state).items())
            assert len(calls) == len(state.goals) + len(state.path)
        # a state built directly, as replay tooling may, has no parent at all
        deep = max((n.state for n in self.searched_nodes(CHAIN_TEXT)),
                   key=lambda s: len(s.goals) + len(s.path))
        orphan = TableauState(deep.started, deep.goals, deep.path, deep.subst, deep.next_var)
        assert orphan.parent is None
        calls.clear()
        assert list(extract_features(orphan).items()) == \
            list(fresh_state_features(orphan).items())
        assert len(calls) == len(deep.goals) + len(deep.path)

    def test_only_state_readers_fill_the_cache(self):
        from contab.policy import UniformPredictor
        from contab.search import SearchLimits, prove

        engine = Engine(clausify_text(GROUP_TEXT))
        result = prove(engine, "uniform", UniformPredictor(),
                       SearchLimits(inference_limit=100, bigstep_frequency=50))
        stack = [result.bigstep_nodes[0]]
        while stack:
            node = stack.pop()
            assert node.state._instantiated is None
            stack.extend(c for c in node.children if c is not None)
