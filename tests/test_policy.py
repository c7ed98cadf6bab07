"""Distribution mathematics and predictor tests."""

import math
import random

import numpy as np
import pytest

import contab.policy as policy_module
from contab.clausify import clausify_text
from contab.features import extract_features
from contab.policy import (
    FixedEntropyPredictor,
    LinearPredictor,
    UniformPredictor,
    apply_order_preserving,
    entropy,
    load_model,
    make_fixed_entropy_vector,
    normalized_entropy,
    predict,
    save_model,
    softmax_temperature,
)
from contab.search import SearchLimits, prove
from contab.tableau import Engine

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

    def test_extreme_logits_stay_finite(self):
        p = softmax_temperature([1000.0, 0.0, -1000.0], 1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


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


def small_state_and_actions():
    engine = Engine(
        clausify_text(
            "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
            "cnf(a3, axiom, p(X) | s(X)).\ncnf(a4, axiom, p(X) | t(X)).\n"
            "fof(c, conjecture, p(a))."
        )
    )
    state = engine.initial_states()[0]
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
        lp = LinearPredictor(dim=8)
        lp.policy_weights[3] = 2.0
        lp.value_weights[1] = 1.0
        logits = lp.predict_policy({}, [{3: 2}, {3: 1, 5: 4}, {}])
        assert list(logits) == [4.0, 2.0, 0.0]
        assert lp.predict_value({1: 1}) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    def test_linear_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            LinearPredictor(policy_weights=np.zeros(4), dim=8)

    def test_value_clamped_to_unit_interval(self):
        engine, state, actions = small_state_and_actions()

        class Wild(UniformPredictor):
            def predict_value(self, features):
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
        base = LinearPredictor()
        rng = np.random.default_rng(0)
        base.policy_weights[:] = rng.standard_normal(base.dim) * 0.1
        ref, _ = predict(base, state, actions, engine.matrix)
        fep = FixedEntropyPredictor(base, 0.5, seed=3)
        probs, _ = predict(fep, state, actions, engine.matrix)
        assert list(np.argsort(-probs, kind="stable")) == list(
            np.argsort(-np.asarray(ref), kind="stable")
        )

    def test_fixed_entropy_value_delegates_to_base(self):
        class V(UniformPredictor):
            def predict_value(self, features):
                return 0.77

        fep = FixedEntropyPredictor(V(), 0.8, seed=0)
        assert fep.predict_value({}) == 0.77

    def test_fixed_entropy_cache_is_eager_and_extends(self):
        fep = FixedEntropyPredictor(UniformPredictor(), 0.8, seed=0, max_cached=16)
        assert set(fep.cache) == set(range(2, 17))
        v = fep.vector_for(30)
        assert len(v) == 30
        assert 30 in fep.cache
        assert v.tobytes() == make_fixed_entropy_vector(30, 0.8, 0).tobytes()

    def test_fixed_entropy_single_action(self):
        fep = FixedEntropyPredictor(UniformPredictor(), 0.8, seed=0)
        logits = fep.predict_policy({}, [{}])
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
        lp = LinearPredictor()
        lp.policy_weights[:] = np.random.default_rng(0).standard_normal(lp.dim)
        assert lp.reads_actions and not lp.reads_state
        want = predict(lp, state, actions, engine.matrix)
        monkeypatch.setattr(policy_module, "extract_features", _refuse)
        probs, value = predict(lp, state, actions, engine.matrix)
        assert list(probs) == list(want[0]) and value == want[1] == 0.5

    def test_linear_declarations_follow_its_weights(self):
        lp = LinearPredictor(dim=8)
        assert (lp.reads_state, lp.reads_actions) == (False, False)
        lp.value_weights[2] = 0.5
        assert (lp.reads_state, lp.reads_actions) == (True, False)
        lp.policy_weights[1] = -1.0
        assert (lp.reads_state, lp.reads_actions) == (True, True)
        fep = FixedEntropyPredictor(lp, 0.5, seed=1, max_cached=2)
        assert (fep.reads_state, fep.reads_actions) == (True, True)

    def test_state_reader_gets_the_real_features(self, monkeypatch):
        engine, state, actions = small_state_and_actions()
        lp = LinearPredictor()
        lp.value_weights[:] = 0.01
        seen = []
        monkeypatch.setattr(policy_module, "extract_features",
                            lambda s: seen.append(s) or extract_features(s))
        monkeypatch.setattr(policy_module, "extract_action_features", _refuse)
        _, value = predict(lp, state, actions, engine.matrix)
        assert seen == [state]
        assert value == lp.predict_value(extract_features(state)) != 0.5


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        w = np.zeros(64)
        w[3] = 1.5
        w[17] = -0.25
        p = tmp_path / "m.model"
        save_model(p, "policy", w, temperature=2.5, alpha=0.7)
        kind, got, temperature, alpha = load_model(p)
        assert kind == "policy"
        assert got.tobytes() == w.tobytes()
        assert temperature == 2.5
        assert alpha == 0.7

    def test_roundtrip_preserves_exact_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        w = np.zeros(256)
        idx = rng.choice(256, size=40, replace=False)
        w[idx] = rng.standard_normal(40)
        p = tmp_path / "m.model"
        save_model(p, "value", w)
        _, got, _, _ = load_model(p)
        assert got.tobytes() == w.tobytes()

    def test_all_zero_weights(self, tmp_path):
        p = tmp_path / "z.model"
        save_model(p, "value", np.zeros(16))
        kind, w, _, _ = load_model(p)
        assert kind == "value"
        assert not w.any()
        assert len(w) == 16

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(tmp_path / "x.model", "oracle", np.zeros(4))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.model"
        p.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(p)
