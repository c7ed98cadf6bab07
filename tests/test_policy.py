"""Distribution mathematics and predictor tests."""

import copy
import importlib.util
import math
import pickle
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import contab.features as features_module
import contab.policy as policy_module
from contab.clausify import clausify, clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.features import FEATURE_DIM, extract_action_features, extract_features
from contab.learn import TrainResult
from contab.policy import (
    FixedEntropyPredictor,
    LinearPredictor,
    UniformPredictor,
    _sparse_dot,
    apply_order_preserving,
    entropy,
    load_model,
    make_fixed_entropy_vector,
    normalized_entropy,
    predict,
    save_model,
    sigmoid,
    softmax_temperature,
)
from contab.search import SearchLimits, prove
from contab.tableau import Engine
from contab.tptp import parse_problem

NEAR_UNIFORM_3 = [0.34, 0.33, 0.33]
SKEWED_10 = [0.73, 0.07, 0.05, 0.05, 0.05, 0.01, 0.01, 0.01, 0.01, 0.01]


class TestEntropy:
    def test_near_uniform_three_way(self):
        assert entropy(NEAR_UNIFORM_3) == pytest.approx(1.10, abs=0.02)

    def test_skewed_ten_way_has_the_same_entropy(self):
        assert entropy(SKEWED_10) == pytest.approx(1.10, abs=0.02)
        assert entropy(SKEWED_10) == pytest.approx(entropy(NEAR_UNIFORM_3), abs=0.02)

    def test_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_closed_form(self):
        for n in (2, 3, 7, 50):
            assert entropy([1.0 / n] * n) == pytest.approx(math.log(n), abs=1e-12)

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.random(rng.integers(2, 12))
            p /= p.sum()
            assert entropy(p) >= 0.0


class TestNormalizedEntropy:
    def test_near_uniform_three_way(self):
        assert normalized_entropy(NEAR_UNIFORM_3) == pytest.approx(1.00, abs=0.01)

    def test_skewed_ten_way(self):
        assert normalized_entropy(SKEWED_10) == pytest.approx(0.48, abs=0.01)

    def test_uniform_is_exactly_one(self):
        for n in (2, 5, 31):
            assert normalized_entropy([1.0 / n] * n) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_is_zero(self):
        assert normalized_entropy([0.0, 1.0]) == 0.0

    def test_singleton_defined_as_zero(self):
        assert normalized_entropy([1.0]) == 0.0

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = rng.random(rng.integers(2, 9))
            p /= p.sum()
            assert 0.0 <= normalized_entropy(p) <= 1.0 + 1e-12


class TestSoftmax:
    def test_zero_logits_are_uniform(self):
        for t in (0.1, 1.0, 42.0):
            assert softmax_temperature([0.0, 0.0, 0.0], t) == pytest.approx([1 / 3] * 3)

    def test_ln2_closed_form(self):
        p = softmax_temperature([math.log(2), 0.0], 1.0)
        assert p == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_high_temperature_flattens(self):
        p = softmax_temperature([3.0, 1.0, 0.0], 1e6)
        assert normalized_entropy(p) >= 0.999

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            logits = rng.standard_normal(5) * 3
            a = softmax_temperature(logits, 1.7)
            for c in (-100.0, 17.5, 4096.0):
                b = softmax_temperature(logits + c, 1.7)
                assert np.max(np.abs(a - b)) <= 1e-12
            # Huge shifts leave the mathematics intact but cost float
            # digits in the logits themselves.
            b = softmax_temperature(logits + 1e9, 1.7)
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_temperature_monotone_in_entropy(self):
        logits = [2.0, 0.5, -1.0, 0.0]
        grid = [0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
        values = [normalized_entropy(softmax_temperature(logits, t)) for t in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = softmax_temperature(rng.standard_normal(rng.integers(1, 10)) * 5, 0.3)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert (p >= 0).all()

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softmax_temperature([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            softmax_temperature([1.0, 2.0], -1.0)

    def test_rows_are_the_softmax_of_each_row_to_the_bit(self):
        rng = np.random.default_rng(14)
        for n in range(1, 131):
            logits = rng.standard_normal((5, n)) * 3
            rows = softmax_temperature(logits, 0.7)
            for logit_row, row in zip(logits, rows):
                assert row.tobytes() == softmax_temperature(logit_row, 0.7).tobytes()

    def test_extreme_logits_stay_finite(self):
        p = softmax_temperature([1000.0, 0.0, -1000.0], 1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)

    def test_a_tiny_temperature_puts_all_mass_on_the_maximum(self):
        # each logit divided by the temperature on its own overflows, and
        # inf - inf is NaN
        assert softmax_temperature([1.0, 2.0], 1e-308).tolist() == [0.0, 1.0]
        p = softmax_temperature([[3.0, -1.0, 3.0], [0.0, 1e-300, 5.0]], 1e-310)
        assert p.tolist() == [[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]

    def test_an_infinite_maximum_and_a_tiny_temperature_do_not_warn(self):
        # inf - inf in the shift, and an overflowing division by 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nan = softmax_temperature([math.inf, math.inf])
            tiny = softmax_temperature([1.0, 2.0, 1.0], 1e-310)
        assert np.isnan(nan).all()
        assert tiny.tolist() == [0.0, 1.0, 0.0]

    def test_at_temperature_one_the_bits_are_those_of_dividing_first(self):
        rng = np.random.default_rng(24)
        for n in range(1, 40):
            logits = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-3, 4)
            arr = logits / 1.0
            e = np.exp(arr - arr.max(axis=-1, keepdims=True))
            assert softmax_temperature(logits, 1.0).tobytes() == (
                e / e.sum(axis=-1, keepdims=True)).tobytes()


class TestCheckDistribution:
    def test_finite_distributions_pass(self):
        for probs in ([1.0], [0.0, 1.0], np.array([0.25, 0.75]), [1e-300, 1.0]):
            policy_module.check_distribution(UniformPredictor(), probs)

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 1.0],
                                       np.array([math.nan, math.nan])])
    def test_nan_or_infinity_is_refused_naming_the_predictor(self, probs):
        with pytest.raises(ValueError, match="^LinearPredictor scored a distribution over 2 "
                                             "actions that is not finite$"):
            policy_module.check_distribution(LinearPredictor(), probs)


class TestFixedEntropyVectors:
    def test_target_one_is_exact_uniform(self):
        v = make_fixed_entropy_vector(5, 1.0, seed=0)
        assert list(v) == [0.2] * 5

    def test_hits_target_within_tolerance(self):
        for n in (2, 3, 10, 40):
            for target in (0.2, 0.5, 0.8, 0.95):
                for seed in (0, 7):
                    v = make_fixed_entropy_vector(n, target, seed)
                    assert len(v) == n
                    assert v.sum() == pytest.approx(1.0, abs=1e-9)
                    assert (v > 0).all()
                    assert abs(normalized_entropy(v) - target) <= 1e-6

    def test_bitwise_deterministic(self):
        a = make_fixed_entropy_vector(3, 0.5, seed=7)
        b = make_fixed_entropy_vector(3, 0.5, seed=7)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_the_vector(self):
        a = make_fixed_entropy_vector(6, 0.6, seed=1)
        b = make_fixed_entropy_vector(6, 0.6, seed=2)
        assert not np.allclose(a, b)

    def test_experiment_setting_length_ten(self):
        v = make_fixed_entropy_vector(10, 0.8, seed=0)
        assert abs(normalized_entropy(v) - 0.8) <= 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_fixed_entropy_vector(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_fixed_entropy_vector(4, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_fixed_entropy_vector(4, 1.5, seed=0)


class TestOrderPreserving:
    def test_rank_matching_example(self):
        out = apply_order_preserving([0.7, 0.2, 0.1], [0.1, 0.8, 0.1])
        assert list(out) == [0.2, 0.7, 0.1]

    def test_sorted_reference_gives_sorted_fixed(self):
        out = apply_order_preserving([0.1, 0.6, 0.3], [0.5, 0.3, 0.2])
        assert list(out) == [0.6, 0.3, 0.1]

    def test_property_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            fixed = rng.random(n)
            fixed /= fixed.sum()
            ref = rng.random(n)
            out = apply_order_preserving(fixed, ref)
            assert sorted(out) == pytest.approx(sorted(fixed))
            # Descending rank order must follow the reference.
            order_out = np.argsort(-out, kind="stable")
            order_ref = np.argsort(-ref, kind="stable")
            assert list(order_out) == list(order_ref)

    def test_reference_ties_broken_by_index(self):
        out = apply_order_preserving([0.5, 0.3, 0.2], [0.4, 0.4, 0.2])
        assert list(out) == [0.5, 0.3, 0.2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_order_preserving([0.5, 0.5], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_reference_entry_that_is_not_finite_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^reference entry 1 is -?(nan|inf), not finite$"):
            apply_order_preserving([0.5, 0.3, 0.2], [0.4, bad, 0.2])


def small_state_and_actions():
    engine = Engine(
        clausify_text(
            "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
            "cnf(a3, axiom, p(X) | s(X)).\ncnf(a4, axiom, p(X) | t(X)).\n"
            "fof(c, conjecture, p(a))."
        )
    )
    state = engine.replay(engine.start_actions()[:1])
    return engine, state, engine.legal_actions(state)


class TestPredictors:
    def test_uniform_four_actions(self):
        engine, state, actions = small_state_and_actions()
        assert len(actions) == 4
        probs, value = predict(UniformPredictor(), state, actions, engine.matrix)
        assert probs == pytest.approx([0.25] * 4)
        assert value == 0.5

    def test_zero_weight_linear_matches_uniform(self):
        engine, state, actions = small_state_and_actions()
        probs, value = predict(LinearPredictor(), state, actions, engine.matrix)
        assert probs == pytest.approx([0.25] * 4)
        assert value == 0.5

    def test_linear_sparse_dot_closed_form(self):
        engine, _, _ = small_state_and_actions()
        # the pre-start state's one feature
        vw = dict.fromkeys(extract_features(engine.root_state()), 1.0)
        lp = LinearPredictor({3: 2.0}, vw)
        logits = lp.predict_policy([{3: 2}, {3: 1, 5: 4}, {}])
        assert list(logits) == [4.0, 2.0, 0.0]
        assert lp.predict_value(engine.root_state()) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    @pytest.mark.parametrize("temperature", [0.0, -2.0])
    def test_linear_rejects_nonpositive_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            LinearPredictor(temperature=temperature)

    def test_linear_weights_are_read_only(self):
        lp = LinearPredictor(dict.fromkeys(range(FEATURE_DIM), 0.5),
                             dict.fromkeys(range(FEATURE_DIM), -0.5))
        for weights in (lp.policy_weights, lp.value_weights):
            with pytest.raises(TypeError):
                weights[0] = 1.0
            with pytest.raises(TypeError):
                del weights[0]
            with pytest.raises(AttributeError):
                weights.clear()
        assert lp.policy_weights == dict.fromkeys(range(FEATURE_DIM), 0.5)
        assert lp.value_weights == dict.fromkeys(range(FEATURE_DIM), -0.5)

    def test_linear_keeps_only_nonzero_weights(self):
        lp = LinearPredictor({1: 0.0, 2: -0.5, 3: -0.0}, {4: 0.0})
        assert lp.policy_weights == {2: -0.5} and lp.value_weights == {}
        assert lp.reads_actions and not lp.reads_state

    def test_linear_freezes_the_weights_it_is_given(self):
        """Mutating the dicts a predictor was built from, given directly or
        held by a ``TrainResult``, changes none of its scores or reads."""
        engine, state, actions = small_state_and_actions()
        afs = [extract_action_features(state, a, engine.matrix) for a in actions]
        model = TrainResult({}, {}, 0.0, 0.0)
        given = ({}, {})
        for (pw, vw), lp in [(given, LinearPredictor(*given)),
                             ((model.policy_weights, model.value_weights), model.predictor())]:
            pw.update(dict.fromkeys(afs[0], 1.0))
            vw.update(dict.fromkeys(extract_features(state), 1.0))
            assert not lp.reads_actions and not lp.reads_state
            assert lp.predict_policy(afs).tolist() == [0.0] * len(afs)
            assert lp.predict_value(state) == 0.5
            assert predict(lp, state, actions, engine.matrix)[0].tolist() == [0.25] * 4
            # and the other way round: clearing them takes no weight away
            lp = LinearPredictor(pw, vw)
            pw.clear()
            vw.clear()
            assert lp.reads_actions and lp.reads_state
            assert lp.predict_policy(afs)[0] > 0.0 and lp.predict_value(state) > 0.5

    def test_value_clamped_to_unit_interval(self):
        engine, state, actions = small_state_and_actions()

        class Wild(UniformPredictor):
            def predict_value(self, state):
                return 7.5

        _, value = predict(Wild(), state, actions, engine.matrix)
        assert value == 1.0

    def test_no_actions_still_produces_value(self):
        engine, state, _ = small_state_and_actions()
        probs, value = predict(UniformPredictor(), state, [], engine.matrix)
        assert probs is None
        assert value == 0.5

    def test_fixed_entropy_predictor_pins_entropy(self):
        engine, state, actions = small_state_and_actions()
        fep = FixedEntropyPredictor(UniformPredictor(), 0.7, seed=3)
        probs, _ = predict(fep, state, actions, engine.matrix)
        assert abs(normalized_entropy(probs) - 0.7) <= 1e-6
        assert sorted(probs) == pytest.approx(sorted(fep.vector_for(4)))

    def test_fixed_entropy_predictor_keeps_base_order(self):
        engine, state, actions = small_state_and_actions()
        rng = np.random.default_rng(0)
        base = LinearPredictor(dict(enumerate(rng.standard_normal(FEATURE_DIM) * 0.1)))
        ref, _ = predict(base, state, actions, engine.matrix)
        fep = FixedEntropyPredictor(base, 0.5, seed=3)
        probs, _ = predict(fep, state, actions, engine.matrix)
        assert list(np.argsort(-probs, kind="stable")) == list(
            np.argsort(-np.asarray(ref), kind="stable")
        )

    def test_fixed_entropy_value_delegates_to_base(self):
        class V(UniformPredictor):
            def predict_value(self, state):
                return 0.77 if state is seen else 0.0

        _, seen, _ = small_state_and_actions()
        fep = FixedEntropyPredictor(V(), 0.8, seed=0)
        assert fep.predict_value(seen) == 0.77

    def test_fixed_entropy_cache_fills_on_use(self):
        fep = FixedEntropyPredictor(UniformPredictor(), 0.8, seed=0)
        assert fep.cache == {}
        fep.predict_policy([{}] * 4)
        assert set(fep.cache) == {4}
        v = fep.vector_for(30)
        assert len(v) == 30
        assert set(fep.cache) == {4, 30}
        assert fep.vector_for(30) is v
        assert v.tobytes() == make_fixed_entropy_vector(30, 0.8, 0).tobytes()

    def test_fixed_entropy_single_action(self):
        fep = FixedEntropyPredictor(UniformPredictor(), 0.8, seed=0)
        logits = fep.predict_policy([{}])
        assert list(softmax_temperature(logits, 1.0)) == [1.0]


def _refuse(*args, **kwargs):
    raise AssertionError("feature extraction was not declared as read")


class TestDeclaredReads:
    """``predict`` extracts only the features a predictor declares it reads."""

    @pytest.mark.parametrize("make", [
        UniformPredictor,
        lambda: FixedEntropyPredictor(UniformPredictor(), 0.6, seed=3),
    ], ids=["uniform", "fixed-entropy-over-uniform"])
    def test_unread_features_are_never_extracted(self, make, monkeypatch):
        monkeypatch.setattr(policy_module, "extract_features", _refuse)
        monkeypatch.setattr(policy_module, "extract_action_features", _refuse)
        predictor = make()
        assert not predictor.reads_state and not predictor.reads_actions
        engine, state, actions = small_state_and_actions()
        probs, value = predict(predictor, state, actions, engine.matrix)
        assert len(probs) == 4 and value == 0.5
        # and through a whole search
        result = prove(engine, "p", predictor, SearchLimits(inference_limit=50))
        assert result.inferences > 0

    def test_policy_only_linear_skips_state_features(self, monkeypatch):
        engine, state, actions = small_state_and_actions()
        lp = LinearPredictor(dict(enumerate(np.random.default_rng(0).standard_normal(FEATURE_DIM))))
        assert lp.reads_actions and not lp.reads_state
        want = predict(lp, state, actions, engine.matrix)
        monkeypatch.setattr(policy_module, "extract_features", _refuse)
        probs, value = predict(lp, state, actions, engine.matrix)
        assert list(probs) == list(want[0]) and value == want[1] == 0.5

    def test_linear_declarations_follow_its_weights(self):
        vw, pw = {2: 0.5, 7: 0.0}, {1: -1.0}
        cases = [((None, None), (False, False)), ((None, vw), (True, False)),
                 ((pw, None), (False, True)), ((pw, vw), (True, True)),
                 (({1: 0.0}, {2: 0.0}), (False, False))]
        for (policy_weights, value_weights), want in cases:
            lp = LinearPredictor(policy_weights, value_weights)
            assert (lp.reads_state, lp.reads_actions) == want
            fep = FixedEntropyPredictor(lp, 0.5, seed=1)
            assert (fep.reads_state, fep.reads_actions) == want

    @pytest.mark.parametrize("make", [
        UniformPredictor,
        lambda: LinearPredictor(dict.fromkeys(range(FEATURE_DIM), 0.3),
                                dict.fromkeys(range(FEATURE_DIM), 0.01)),
        lambda: FixedEntropyPredictor(
            LinearPredictor(dict.fromkeys(range(FEATURE_DIM), 0.3)), 0.6, seed=3),
    ], ids=["uniform", "linear", "fixed-entropy-over-linear"])
    def test_one_action_is_certain_and_never_scored(self, make, monkeypatch):
        engine = Engine(clausify_text("cnf(a, axiom, p(X)).\nfof(c, conjecture, p(a))."))
        state = engine.replay(engine.start_actions()[:1])
        actions = engine.legal_actions(state)
        assert len(actions) == 1
        predictor = make()
        _, want_value = predict(predictor, state, actions + actions, engine.matrix)
        monkeypatch.setattr(policy_module, "extract_action_features", _refuse)
        monkeypatch.setattr(type(predictor), "predict_policy", _refuse)
        probs, value = predict(predictor, state, actions, engine.matrix)
        assert probs.tolist() == [1.0]
        assert value == want_value

    def test_state_reader_values_the_real_state(self, monkeypatch):
        engine, state, actions = small_state_and_actions()
        vw = dict.fromkeys(range(FEATURE_DIM), 0.01)
        lp = LinearPredictor(value_weights=vw)
        # one literal: the memoized sum adds the terms as _sparse_dot does
        want = sigmoid(_sparse_dot(vw, extract_features(state)))
        seen = []
        real = LinearPredictor.predict_value
        monkeypatch.setattr(LinearPredictor, "predict_value",
                            lambda self, s: seen.append(s) or real(self, s))
        monkeypatch.setattr(policy_module, "extract_features", _refuse)
        monkeypatch.setattr(policy_module, "extract_action_features", _refuse)
        _, value = predict(lp, state, actions, engine.matrix)
        assert seen == [state]
        assert value == want != 0.5


ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_problems", ROOT / "perfbench" / "problems.py")
bench_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_problems)

def random_linear(seed=11):
    rng = np.random.default_rng(seed)
    return LinearPredictor(dict(enumerate(rng.standard_normal(FEATURE_DIM) * 0.3)),
                           dict(enumerate(rng.standard_normal(FEATURE_DIM) * 0.3)))


def searched_states(engines, predictor, limits):
    """Every state of every search tree, the pre-start roots included."""
    states = []
    for engine in engines:
        result = prove(engine, "v", predictor, limits)
        stack = [result.bigstep_nodes[0]]
        while stack:
            node = stack.pop()
            states.append(node.state)
            stack.extend(c for c in node.children if c is not None)
    return states


def chain_engines():
    """Every fourth of the benchmark's seed-7 chain problems, at the
    chain-loop workload's path limit."""
    return [Engine(clausify(parse_problem(p.text)), path_limit=40)
            for p in bench_problems.chain_problems(random.Random(7))[::4]]


def group_engines():
    """The first two of the benchmark's seed-7 group-theory problems."""
    return [Engine(clausify(parse_problem(p.text)))
            for p in bench_problems.eq_problems(random.Random(7))[:2]]


class TestStateValue:
    """A linear predictor values a state from memoized per-literal partial
    logits, which agree with the value of the state's feature map."""

    @pytest.mark.parametrize("make_engines", [
        chain_engines, group_engines,
        # chain and group-theory states have one open goal; these have more
        lambda: [Engine(load_matrix(path)) for path in corpus_problems()],
    ], ids=["chain", "group-theory", "corpus"])
    def test_matches_the_feature_map(self, make_engines):
        lp = random_linear()
        states = searched_states(make_engines(), lp,
                                 SearchLimits(inference_limit=400, bigstep_frequency=25))
        assert len(states) > 200
        for state in states:
            want = sigmoid(_sparse_dot(lp.value_weights, extract_features(state)))
            assert abs(lp.predict_value(state) - want) <= 1e-12

    def test_search_extracts_no_state_features(self, monkeypatch):
        want = searched_states(chain_engines()[:2], random_linear(),
                               SearchLimits(inference_limit=200, bigstep_frequency=25))
        monkeypatch.setattr(features_module, "extract_features", _refuse)
        monkeypatch.setattr(policy_module, "extract_features", _refuse)
        got = searched_states(chain_engines()[:2], random_linear(),
                              SearchLimits(inference_limit=200, bigstep_frequency=25))
        assert [s.describe() for s in got] == [s.describe() for s in want]

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(features_module, "WALK_CACHE_SIZE", 16)
        lp = random_linear()
        memos = (lp.value_dot.goal, lp.value_dot.other, lp.value_dot.path)
        sizes = []
        real = LinearPredictor.predict_value

        def checked(self, state):
            value = real(self, state)
            sizes.append(max(len(m) for m in memos))
            want = sigmoid(_sparse_dot(self.value_weights, extract_features(state)))
            assert abs(value - want) <= 1e-12
            return value

        monkeypatch.setattr(LinearPredictor, "predict_value", checked)
        searched_states(chain_engines(), lp, SearchLimits(inference_limit=300))
        assert len(sizes) > 300 and max(sizes) == 16
        # and it was cleared on the way
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_copies_share_the_memo_and_pickles_rebuild_it(self):
        lp = random_linear()
        states = searched_states(group_engines(), lp, SearchLimits(inference_limit=50))
        assert copy.copy(lp).value_dot is lp.value_dot
        back = pickle.loads(pickle.dumps(lp))
        assert [back.predict_value(s) for s in states] == [lp.predict_value(s) for s in states]


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        w = {3: 1.5, 17: -0.25}
        p = tmp_path / "m.model"
        save_model(p, "policy", w, temperature=2.5, alpha=0.7)
        kind, got, temperature, alpha = load_model(p)
        assert kind == "policy"
        assert got == w
        assert temperature == 2.5
        assert alpha == 0.7

    def test_roundtrip_preserves_exact_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        idx = rng.choice(FEATURE_DIM, size=40, replace=False)
        w = dict(zip(idx.tolist(), rng.standard_normal(40).tolist()))
        p = tmp_path / "m.model"
        save_model(p, "value", w)
        _, got, _, _ = load_model(p)
        assert list(got.items()) == sorted(w.items())

    def test_all_zero_weights(self, tmp_path):
        p = tmp_path / "z.model"
        save_model(p, "value", {5: 0.0})
        kind, w, _, _ = load_model(p)
        assert kind == "value"
        assert w == {}
        assert "nonzero 0" in p.read_text().splitlines()

    @pytest.mark.parametrize("index", [-1, FEATURE_DIM])
    def test_an_index_outside_the_features_is_refused_before_the_file_is_created(
            self, tmp_path, index):
        p = tmp_path / "w.model"
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: weight index {index} "
                                             f"outside \\[0, {FEATURE_DIM}\\)$"):
            save_model(p, "value", {0: 1.0, index: 0.5, 9: 2.0})
        assert list(tmp_path.iterdir()) == []

    def test_the_bytes_do_not_depend_on_the_dict_order(self, tmp_path):
        w = {i: (-1.0) ** i / (i + 1) for i in range(0, FEATURE_DIM, 997)}
        up, down = tmp_path / "up.model", tmp_path / "down.model"
        save_model(up, "policy", dict(sorted(w.items())), temperature=1.5, alpha=0.7)
        save_model(down, "policy", dict(sorted(w.items(), reverse=True)), temperature=1.5,
                   alpha=0.7)
        assert up.read_bytes() == down.read_bytes()
        indices = [int(ln.split()[0]) for ln in up.read_text().splitlines()[6:]]
        assert indices == sorted(w)

    def test_load_then_save_reproduces_the_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        w = dict(enumerate(rng.standard_normal(FEATURE_DIM) * (rng.random(FEATURE_DIM) < 0.01)))
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_model(first, "value", w, temperature=0.25, alpha=5.0)
        kind, got, temperature, alpha = load_model(first)
        save_model(second, kind, got, temperature, alpha)
        assert second.read_bytes() == first.read_bytes()
        assert 200 < len(got) < 500

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(tmp_path / "x.model", "oracle", {})

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.model"
        p.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(p)

    @pytest.mark.parametrize("damage, complaint", [
        (lambda lines: lines[:-3], "header counts 14 weights, 11 follow"),
        (lambda lines: lines + ["3 1.0"], "header counts 14 weights, 15 follow"),
        (lambda lines: lines[:-1] + [lines[-2].split()[0] + " 2.0"], "index is given twice"),
        (lambda lines: lines[:-1] + [lines[-1].split()[0] + " nan"], "not finite"),
        (lambda lines: lines[:-1] + [lines[-1].split()[0] + " -inf"], "not finite"),
        (lambda lines: [ln.replace("temperature 1.5", "temperature inf") for ln in lines],
         "not finite"),
        (lambda lines: [ln.replace("temperature 1.5", "temperature 0.0") for ln in lines],
         "temperature 0.0 is not positive"),
        (lambda lines: [ln.replace("temperature 1.5", "temperature -1.0") for ln in lines],
         "temperature -1.0 is not positive"),
        (lambda lines: [ln.replace("alpha 0.7", "alpha nan") for ln in lines],
         "not finite"),
        (lambda lines: [ln.replace(f"dim {FEATURE_DIM}", "dim 64") for ln in lines],
         f"model dim 64 is not the feature dimension {FEATURE_DIM}"),
        (lambda lines: [ln.replace(f"dim {FEATURE_DIM}", "dim 100000000000000") for ln in lines],
         "model dim 100000000000000 is not"),
    ], ids=["truncated", "extra-line", "repeated-index", "nan-weight", "infinite-weight",
            "infinite-temperature", "zero-temperature", "negative-temperature", "nan-alpha", "other-dim", "huge-dim"])
    def test_damaged_file_rejected_by_name(self, tmp_path, damage, complaint):
        w = dict(zip(range(3, 64, 4), np.arange(1.0, 15.0)))
        p = tmp_path / "m.model"
        save_model(p, "policy", w, temperature=1.5, alpha=0.7)
        lines = p.read_text().splitlines()
        assert "nonzero 14" in lines
        p.write_text("\n".join(damage(lines)) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{complaint}"):
            load_model(p)
