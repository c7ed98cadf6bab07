"""Training-target extraction, loss/gradient, SGD, and loop tests.

Gradient code is checked against central finite differences; extraction
against hand-built search trees with known visit counts.
"""

import hashlib
import math
import multiprocessing
import os
import pickle
import re
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from contab.analysis import BankEntry, load_bank, report_csv, save_bank
from contab.clausify import clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.features import FEATURE_DIM
from contab.learn import (
    EXAMPLES_MAGIC,
    STATS_COLUMNS,
    IterationStats,
    LoopConfig,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
    _load_checkpoint,
    _WorkerPool,
    extract_training_data,
    policy_grad_logits,
    policy_loss,
    prove_problems,
    read_examples,
    run_loop,
    train,
    value_grad_logit,
    value_loss,
    write_examples,
)
from contab.policy import (LinearPredictor, UniformPredictor, _sparse_dot, load_model,
                           normalized_entropy, save_model, sigmoid, softmax_temperature)
from contab.search import DISCOUNT, MCTSNode, ProofResult, SearchLimits, prove
from contab.tableau import Action, Engine, IllegalActionError, read_trace, write_trace
from contab.tptp import parse_problem_file

THREE_WAY = (
    "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
    "cnf(a3, axiom, p(X) | s(X)).\nfof(c, conjecture, p(a))."
)


def three_action_node(visits):
    """A bigstep-trace node over a real state with three legal actions."""
    engine = Engine(clausify_text(THREE_WAY))
    state = engine.replay(engine.start_actions()[:1])
    node = MCTSNode(state, -1)
    node.actions = engine.legal_actions(state)
    assert len(node.actions) == 3
    node.children = []
    for i, v in enumerate(visits):
        if v == 0:
            node.children.append(None)
        else:
            child = MCTSNode(None, i)
            child.visits = v
            node.children.append(child)
    node.visits = 1 + sum(visits)
    return engine, node


def result_with(nodes, status="solved", proof_len=3):
    proof = [Action("extension", clause_id=0, literal_index=0)] * proof_len
    return ProofResult(
        problem="fixture",
        status=status,
        proof=proof if status == "solved" else None,
        bigstep_nodes=nodes,
    )


class TestExtraction:
    def test_visit_normalization(self):
        engine, node = three_action_node([6, 3, 1])
        result = result_with([node])
        examples = extract_training_data(result, engine.matrix)
        assert len(examples) == 1
        assert examples[0].policy_targets == pytest.approx([0.6, 0.3, 0.1])
        assert sum(examples[0].policy_targets) == pytest.approx(1.0, abs=1e-9)

    def test_value_two_steps_before_closure(self):
        # trace node 1 lies one action below the root, two before closure;
        # the root, with nothing expanded, gives no example
        _, root = three_action_node([0, 0, 0])
        engine, node = three_action_node([2, 1, 0])
        result = result_with([root, node], proof_len=3)
        [ex] = extract_training_data(result, engine.matrix)
        assert ex.value_target == pytest.approx(DISCOUNT**2)
        assert ex.value_target == pytest.approx(0.9801, abs=1e-4)

    def test_nonproof_values_are_zero(self):
        engine, node = three_action_node([5, 5, 5])
        result = result_with([node], status="budget-exhausted")
        ex = extract_training_data(result, engine.matrix)[0]
        assert ex.value_target == 0.0

    def test_zero_expanded_children_skipped(self):
        engine, empty = three_action_node([0, 0, 0])
        engine2, full = three_action_node([1, 1, 0])
        result = result_with([empty, full])
        examples = extract_training_data(result, engine.matrix)
        assert len(examples) == 1
        assert examples[0].policy_targets == pytest.approx([0.5, 0.5, 0.0])

    def test_action_features_align_with_actions(self):
        engine, node = three_action_node([1, 2, 3])
        ex = extract_training_data(result_with([node]), engine.matrix)[0]
        assert len(ex.action_features) == 3
        assert ex.state_features

    def test_iteration_tag_recorded(self):
        engine, node = three_action_node([1, 1, 1])
        ex = extract_training_data(result_with([node]), engine.matrix, iteration=4)[0]
        assert ex.iteration == 4
        assert ex.problem == "fixture"


class TestLosses:
    def test_uniform_two_way_alpha_zero(self):
        assert policy_loss([0.5, 0.5], [0.5, 0.5], 0.0) == pytest.approx(math.log(2))

    def test_uniform_two_way_alpha_one_cancels(self):
        assert policy_loss([0.5, 0.5], [0.5, 0.5], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_target_is_log_of_that_prob(self):
        assert policy_loss([0.0, 1.0], [0.25, 0.75], 0.0) == pytest.approx(-math.log(0.75))

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(n)
            q /= q.sum()
            h = -float(np.sum(p * np.log(p)))
            assert policy_loss(p, q, 0.0) >= h - 1e-12

    def test_value_loss_closed_forms(self):
        assert value_loss(0.5, 0.5) == 0.0
        assert value_loss(1.0, 0.0) == 1.0
        assert value_loss(0.3, 0.7) == pytest.approx(0.16)


class TestGradients:
    def test_policy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 6))
            targets = rng.random(n)
            targets /= targets.sum()
            logits = rng.standard_normal(n) * 2.0
            alpha = float(rng.choice([0.0, 0.3, 0.7, 2.0]))
            grad = policy_grad_logits(targets, softmax_temperature(logits, 1.0), alpha)
            for j in range(n):
                up = logits.copy()
                up[j] += h
                down = logits.copy()
                down[j] -= h
                numeric = (
                    policy_loss(targets, softmax_temperature(up, 1.0), alpha)
                    - policy_loss(targets, softmax_temperature(down, 1.0), alpha)
                ) / (2 * h)
                denom = max(abs(numeric), 1e-4)
                assert abs(grad[j] - numeric) / denom <= 1e-4

    def test_rows_give_the_loss_and_gradient_of_each_row_to_the_bit(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 3, 9, 12):
            targets = rng.random((6, n))
            targets[:, 0] = 0.0
            targets /= targets.sum(axis=1, keepdims=True) + 1e-3
            predicted = softmax_temperature(rng.standard_normal((6, n)) * 4)
            grads = policy_grad_logits(targets, predicted, 0.7)
            losses = policy_loss(targets, predicted, 0.7)
            for p, q, g, loss in zip(targets, predicted, grads, losses):
                assert g.tobytes() == policy_grad_logits(p, q, 0.7).tobytes()
                assert loss == policy_loss(p, q, 0.7)

    def test_value_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        h = 1e-6
        for _ in range(100):
            target = float(rng.random())
            z = float(rng.standard_normal() * 3)

            def loss_at(zz):
                return value_loss(target, 1.0 / (1.0 + math.exp(-zz)))

            numeric = (loss_at(z + h) - loss_at(z - h)) / (2 * h)
            analytic = value_grad_logit(target, 1.0 / (1.0 + math.exp(-z)))
            denom = max(abs(numeric), 1e-4)
            assert abs(analytic - numeric) / denom <= 1e-4


def synthetic_examples(n=100, n_actions=3, seed=0):
    """Learnable dataset: feature {k} marks the correct action k."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        best = int(rng.integers(n_actions))
        afs = []
        for a in range(n_actions):
            feats = {100 + a: 1}
            if a == best:
                feats[7] = 1  # shared "this one is right" marker
            afs.append(feats)
        targets = [0.05] * n_actions
        targets[best] = 1.0 - 0.05 * (n_actions - 1)
        value = 0.95 if best == 0 else 0.0
        out.append(
            TrainingExample(
                problem=f"syn{i}",
                iteration=0,
                state_features={200 + best: 1, 300: 1},
                action_features=afs,
                value_target=value,
                policy_targets=targets,
            )
        )
    return out


def mean_prediction_entropy(result, examples):
    predictor = result.predictor()
    total = 0.0
    for ex in examples:
        logits = predictor.predict_policy(ex.action_features)
        total += normalized_entropy(softmax_temperature(logits, 1.0))
    return total / len(examples)


def dataset_losses(model, examples, alpha):
    """Mean policy and value losses of ``model``, a ``LinearPredictor``,
    over ``examples``, scored one example at a time."""
    pl = [policy_loss(ex.policy_targets,
                      softmax_temperature(model.predict_policy(ex.action_features)), alpha)
          for ex in examples]
    vl = [value_loss(ex.value_target, sigmoid(_sparse_dot(model.value_weights, ex.state_features)))
          for ex in examples]
    return sum(pl) / len(pl), sum(vl) / len(vl)


class TestTrain:
    def test_single_repeated_example_converges_to_target_argmax(self):
        ex = synthetic_examples(1, seed=3)[0]
        result = train([ex] * 8, TrainConfig(epochs=20, seed=0), alpha=0.0)
        predictor = result.predictor()
        logits = predictor.predict_policy(ex.action_features)
        assert int(np.argmax(logits)) == int(np.argmax(ex.policy_targets))

    def test_argmax_fit_on_fixture_dataset(self):
        examples = synthetic_examples(100)
        result = train(examples, TrainConfig(epochs=25, learning_rate=0.3), alpha=0.0)
        predictor = result.predictor()
        hits = 0
        for ex in examples:
            logits = predictor.predict_policy(ex.action_features)
            hits += int(np.argmax(logits)) == int(np.argmax(ex.policy_targets))
        assert hits / len(examples) >= 0.9

    def test_epoch_losses_nonincreasing_at_default_rate(self):
        examples = synthetic_examples(60)
        # the first epochs of a run draw the same batches as a shorter run
        losses = [dataset_losses(LinearPredictor(), examples, 0.0)]
        losses += [(r.policy_loss, r.value_loss)
                   for r in (train(examples, TrainConfig(epochs=k), alpha=0.0)
                             for k in range(1, TrainConfig().epochs + 1))]
        for (prev_pl, prev_vl), (pl, vl) in zip(losses, losses[1:]):
            assert pl <= prev_pl + 1e-9
            assert vl <= prev_vl + 1e-9

    def test_final_cross_entropy_beats_uniform_baseline(self):
        examples = synthetic_examples(100)
        result = train(examples, TrainConfig(epochs=15, learning_rate=0.3), alpha=0.0)
        baseline, _ = dataset_losses(LinearPredictor(), examples, 0.0)
        uniform = sum(math.log(len(ex.policy_targets)) for ex in examples) / len(examples)
        assert baseline == pytest.approx(uniform, abs=1e-9)
        assert result.policy_loss < baseline

    def test_entropy_coefficient_monotonicity(self):
        examples = synthetic_examples(80, seed=5)
        entropies = []
        for alpha in (0.0, 0.3, 0.7, 2.0):
            result = train(examples, TrainConfig(epochs=15, learning_rate=0.3), alpha=alpha)
            entropies.append(mean_prediction_entropy(result, examples))
        for lo, hi in zip(entropies, entropies[1:]):
            assert lo <= hi + 1e-9
        assert entropies[-1] > entropies[0]

    def test_deterministic_under_seed(self):
        examples = synthetic_examples(40)
        a = train(examples, TrainConfig(seed=12))
        b = train(examples, TrainConfig(seed=12))
        assert a.policy_weights == b.policy_weights
        assert a.value_weights == b.value_weights
        assert (a.policy_loss, a.value_loss) == (b.policy_loss, b.value_loss)

    def test_divergence_is_reported(self):
        examples = synthetic_examples(20)
        with pytest.raises(TrainingDiverged):
            train(examples, TrainConfig(learning_rate=1e18, epochs=40), alpha=0.0)

    def test_divergence_stops_at_the_first_epoch_with_a_non_finite_weight(self, monkeypatch):
        # epochs are counted by the permutations train draws, one per epoch
        examples = wide_examples()
        epochs = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permutation(self, n):
                epochs.append(n)
                return self.rng.permutation(n)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        # a step of 1e308 leaves an infinite weight after the first epoch
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="^loss diverged: policy=nan"):
                train(examples, TrainConfig(learning_rate=1e308, epochs=40), alpha=0.0)
        assert len(epochs) == 1
        epochs.clear()
        train(examples, TrainConfig(epochs=4), alpha=0.0)
        assert len(epochs) == 4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            train(synthetic_examples(4), alpha=-0.1)
        with pytest.raises(ValueError):
            train(synthetic_examples(4), alpha=math.nan)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


def wide_examples(n=45, seed=14):
    """Examples with 9-12 actions of 1-6 features each and 9-20 state
    features, in unsorted dict order, drawn from few feature indices so
    that examples share weights.  45 is not a multiple of the batch size."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(9, 13))
        afs = [{int(f): int(rng.integers(1, 4)) for f in rng.integers(0, 60, size=rng.integers(1, 7))}
               for _ in range(k)]
        visits = rng.integers(0, 5, size=k)
        visits[rng.integers(k)] += 1
        state = {int(f): int(rng.integers(1, 4))
                 for f in rng.choice(200, size=int(rng.integers(9, 21)), replace=False)}
        out.append(TrainingExample(f"wide{i}", 0, state, afs, float(rng.random()),
                                   (visits / visits.sum()).tolist()))
    return out


def single_action_examples():
    """Single-action examples whose target is not 1.0, which a resumed
    loop's examples file may hold, among two-action ones: 17 in all."""
    out = [TrainingExample(f"one{i}", 0, {3 + i: 1, 40: 2}, [{5: 1, 6 + i: 2}], i / 7, [t])
           for i, t in enumerate([0.5, 0.0, 2.0, 0.25, 1.0, 0.75, 0.1])]
    return out + synthetic_examples(10, n_actions=2, seed=4)


def corpus_engines():
    return [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]


def corpus_examples():
    """The iteration-0 examples of a loop over the bundled corpus."""
    return run_loop(corpus_engines(), 0, small_loop_config()).examples


def dense(weights):
    """The ``FEATURE_DIM`` float64 vector of sparse ``weights``."""
    out = np.zeros(FEATURE_DIM)
    out[list(weights)] = list(weights.values())
    return out


def weight_digests(result):
    return tuple(hashlib.sha256(dense(w).tobytes()).hexdigest()[:16]
                 for w in (result.policy_weights, result.value_weights))


TRAINING_SETS = {"corpus": corpus_examples, "wide": wide_examples,
                 "single": single_action_examples}

# (policy, value) weight digests of ``train(examples, TrainConfig(), alpha)``
PINNED_WEIGHTS = {
    ("corpus", 0.0): ("05fa6d99fad7ed18", "63c66a1f2bd7c812"),
    ("corpus", 0.7): ("e34d23663482d4d7", "63c66a1f2bd7c812"),
    ("corpus", 5.0): ("054f0ecbd1c3461a", "63c66a1f2bd7c812"),
    ("wide", 0.0): ("74f13b6327c281e8", "4c7e369771e47fcc"),
    ("wide", 0.7): ("26669932be7af1bf", "4c7e369771e47fcc"),
    ("wide", 5.0): ("7a7cdc3ca50cb8b5", "4c7e369771e47fcc"),
    ("single", 0.7): ("0074c5428b278fa0", "eeab50cdc3bdb926"),
    ("single", 5.0): ("01ef5abb30a5192d", "eeab50cdc3bdb926"),
}
DIVERGED = ("loss diverged: policy=inf, value=0.28575813329521743; "
            "reduce the learning rate (currently 1000000000.0)")


class TestPinnedTraining:
    """``train`` gives these weights to the bit: the digests were taken
    from a trainer that scored one example at a time through numpy."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return {name: make() for name, make in TRAINING_SETS.items()}

    @pytest.mark.parametrize("name, alpha", sorted(PINNED_WEIGHTS))
    def test_weights_are_pinned(self, datasets, name, alpha):
        result = train(datasets[name], TrainConfig(), alpha=alpha)
        assert result.policy_weights and result.value_weights
        assert 0.0 not in result.policy_weights.values()
        assert 0.0 not in result.value_weights.values()
        assert weight_digests(result) == PINNED_WEIGHTS[name, alpha]

    def test_divergence_names_the_same_losses(self, datasets):
        with pytest.raises(TrainingDiverged) as info:
            train(datasets["wide"], TrainConfig(learning_rate=1e9), alpha=0.7)
        assert str(info.value) == DIVERGED

    @pytest.mark.parametrize("name", sorted(TRAINING_SETS))
    def test_losses_are_dataset_means_at_each_epoch(self, datasets, name):
        examples = datasets[name]
        for epochs in range(1, 5):
            result = train(examples, TrainConfig(epochs=epochs), alpha=0.7)
            pl, vl = dataset_losses(result.predictor(), examples, 0.7)
            assert result.policy_loss == pytest.approx(pl, rel=1e-12, abs=0)
            assert result.value_loss == pytest.approx(vl, rel=1e-12, abs=0)


class TestExampleFiles:
    def test_roundtrip(self, tmp_path):
        examples = synthetic_examples(17, seed=8)
        examples[3].state_features = {}
        path = tmp_path / "ex.txt"
        write_examples(path, examples)
        back = read_examples(path)
        assert len(back) == len(examples)
        for a, b in zip(examples, back):
            assert a.problem == b.problem
            assert a.iteration == b.iteration
            assert a.state_features == b.state_features
            assert a.action_features == b.action_features
            assert a.value_target == b.value_target  # exact, via repr
            assert a.policy_targets == b.policy_targets

    def test_blank_lines_are_skipped(self, tmp_path):
        examples = synthetic_examples(3, seed=8)
        path = tmp_path / "ex.txt"
        write_examples(path, examples)
        magic, *rows = path.read_text().splitlines()
        path.write_text("\n".join([magic, "", rows[0], "", "", rows[1], rows[2], ""]) + "\n")
        back = read_examples(path)
        assert [(b.problem, b.value_target, b.policy_targets) for b in back] == [
            (a.problem, a.value_target, a.policy_targets) for a in examples]

    def test_magic_line_written(self, tmp_path):
        path = tmp_path / "ex.txt"
        write_examples(path, [])
        assert path.read_text().splitlines()[0] == EXAMPLES_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            read_examples(path)

    def test_target_count_must_match_action_count(self, tmp_path):
        path = tmp_path / "ex.txt"
        write_examples(path, synthetic_examples(2, seed=8))
        path.write_text(path.read_text() + "p\t0\t0.5\t1.0\t1:1\t2:1\t3:1\t4:1\n")
        complaint = "4: 1 policy targets for 3 actions"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{complaint}"):
            read_examples(path)

    @pytest.mark.parametrize("value, targets, complaint", [
        ("nan", "0.5,0.5", "value target 'nan' is not finite"),
        ("inf", "0.5,0.5", "value target 'inf' is not finite"),
        ("0.5", "nan,0.5", "policy targets 'nan,0.5' are not all finite"),
        ("0.5", "0.5,-inf", "policy targets '0.5,-inf' are not all finite"),
    ], ids=["nan-value", "inf-value", "nan-target", "neg-inf-target"])
    def test_non_finite_targets_are_rejected_by_line(self, tmp_path, value, targets, complaint):
        """A NaN target would reach train, which blames the learning rate."""
        path = tmp_path / "ex.txt"
        write_examples(path, synthetic_examples(2, seed=8))
        path.write_text(path.read_text() + f"p\t0\t{value}\t{targets}\t1:1\t2:1\t3:1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: {re.escape(complaint)}$"):
            read_examples(path)

    @pytest.mark.parametrize("state, action, index", [("3:1,7:2,3:2", "1:1", 3),
                                                       ("1:1", "2:1,2:1", 2)],
                             ids=["state", "action"])
    def test_a_repeated_feature_index_is_refused_by_line(self, tmp_path, state, action, index):
        path = tmp_path / "ex.txt"
        write_examples(path, synthetic_examples(2, seed=8))
        path.write_text(path.read_text() + f"p\t0\t0.5\t0.5,0.5\t{state}\t5:1\t{action}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: feature index {index} "
                                             f"is given twice$"):
            read_examples(path)


@pytest.mark.parametrize("build, setting", [
    (SearchLimits, "cp"), (SearchLimits, "wall_clock"),
    (LoopConfig, "alpha"), (LoopConfig, "temperature"),
    (TrainConfig, "learning_rate"), (LinearPredictor, "temperature"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_settings_are_rejected_when_built(build, setting, value):
    """NaN passes every ``<= 0`` check, so finiteness is checked itself."""
    with pytest.raises(ValueError, match="finite"):
        build(**{setting: value})


def loop_problems():
    texts = {
        "triv": "fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).",
        "chain": (
            "cnf(a1, axiom, q(a)).\ncnf(a2, axiom, p(X) | ~q(X)).\n"
            "fof(c, conjecture, p(a))."
        ),
        "branchy": (
            "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
            "cnf(a3, axiom, ~q(X) | r(X)).\ncnf(a4, axiom, ~r(X) | q(X)).\n"
            "fof(c, conjecture, p(a))."
        ),
        "dead": "cnf(g, negated_conjecture, ~q(a)).\ncnf(ax, axiom, p(a)).",
    }
    return [(name, Engine(clausify_text(text))) for name, text in sorted(texts.items())]


def small_loop_config(**kw):
    return LoopConfig(
        limits=SearchLimits(inference_limit=120, bigstep_frequency=10),
        train=TrainConfig(epochs=3, seed=0),
        **kw,
    )


def comparable(pairs):
    """(result, examples) pairs with the one field that varies between
    runs, the search's wall time, zeroed."""
    return [(replace(r, wall_time=0.0), exs) for r, exs in pairs]


class UnpicklableEngine(Engine):
    def __reduce_ex__(self, protocol):
        raise TypeError("engine pickled")


class UnpicklablePredictor(UniformPredictor):
    def __reduce_ex__(self, protocol):
        raise TypeError("predictor pickled")


class TestProveProblems:
    def test_worker_count_does_not_change_results(self):
        problems = loop_problems()
        limits = SearchLimits(inference_limit=120, bigstep_frequency=10)
        examples = [ex for _, exs in prove_problems(problems, UniformPredictor(), limits)
                    for ex in exs]
        trained = train(examples, TrainConfig(epochs=3, seed=0)).predictor()
        for predictor in (UniformPredictor(), trained):
            serial = prove_problems(problems, predictor, limits)
            for workers in (2, 3):
                parallel = prove_problems(problems, predictor, limits, workers=workers)
                assert comparable(parallel) == comparable(serial)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="without fork the task list is pickled once per worker")
    def test_workers_inherit_tasks_unpickled(self):
        problems = [(name, UnpicklableEngine(engine.matrix))
                    for name, engine in loop_problems()]
        limits = SearchLimits(inference_limit=120, bigstep_frequency=10)
        serial = prove_problems(problems, UnpicklablePredictor(), limits)
        parallel = prove_problems(problems, UnpicklablePredictor(), limits, workers=2)
        assert comparable(parallel) == comparable(serial)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_a_worker_count_below_one_is_rejected(self, workers):
        with pytest.raises(ValueError, match=f"worker count must be at least 1, got {workers}"):
            prove_problems(loop_problems(), UniformPredictor(), SearchLimits(), workers=workers)

    def test_one_problem_is_proved_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one problem")
        monkeypatch.setattr(_WorkerPool, "_start", no_pool)
        problems = loop_problems()[:1]
        limits = SearchLimits(inference_limit=60, bigstep_frequency=10)
        pairs = prove_problems(problems, UniformPredictor(), limits, workers=4)
        assert comparable(pairs) == comparable(prove_problems(problems, UniformPredictor(),
                                                              limits))

    def test_results_come_back_in_problem_order(self):
        problems = loop_problems()
        limits = SearchLimits(inference_limit=60, bigstep_frequency=10)
        pairs = prove_problems(problems, UniformPredictor(), limits)
        assert [r.problem for r, _ in pairs] == [name for name, _ in problems]


class TestRunLoop:
    def test_row_count_is_iterations_plus_one(self, tmp_path):
        out = run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(tmp_path))
        assert len(out.stats) == 3
        assert [s.iteration for s in out.stats] == [0, 1, 2]
        stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
        assert len(stats_lines) == 4
        assert stats_lines[0] == "iteration,solved,mean_entropy,mean_normalized_entropy,inferences_total"

    def test_zero_iterations_is_a_plain_unguided_run(self):
        out = run_loop(loop_problems(), 0, small_loop_config())
        assert len(out.stats) == 1
        assert out.final_model is None

    def test_a_negative_iteration_count_is_rejected_on_entry(self, tmp_path):
        with pytest.raises(ValueError, match="iteration count must be at least 0, got -1"):
            run_loop(loop_problems(), -1, small_loop_config(), out_dir=str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_a_worker_count_below_one_is_rejected_on_entry(self, tmp_path, monkeypatch):
        """A resumed loop refuses it before training its next iteration."""
        run_loop(loop_problems(), 0, small_loop_config(), out_dir=str(tmp_path))

        def no_train(*args, **kwargs):
            raise AssertionError("trained before the worker count was checked")
        monkeypatch.setattr("contab.learn.train", no_train)
        with pytest.raises(ValueError, match="worker count must be at least 1, got 0"):
            run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path),
                     resume=True, workers=0)

    def test_artifacts_written_per_iteration(self, tmp_path):
        run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert "examples_iter0.txt" in names
        assert "examples_iter1.txt" in names
        assert "policy_iter1.model" in names
        assert "value_iter1.model" in names
        assert "stats.csv" in names
        assert "loop_state.txt" in names
        assert (tmp_path / "loop_state.txt").read_text() == (
            "completed 1\nalpha 0.7\ntemperature 1.0\ninference_limit 120\n"
            "bigstep_frequency 10\ncp 1.0\nwall_clock 300.0\nlearning_rate 0.1\n"
            "epochs 3\nbatch_size 8\nseed 0\n")

    def test_loop_determinism(self, tmp_path):
        a = run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(tmp_path / "a"))
        b = run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(tmp_path / "b"))
        assert [s.row() for s in a.stats] == [s.row() for s in b.stats]
        assert (tmp_path / "a" / "stats.csv").read_bytes() == (
            tmp_path / "b" / "stats.csv"
        ).read_bytes()

    def test_resume_reproduces_remaining_rows(self, tmp_path):
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        full = run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(full_dir))
        run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(part_dir))
        resumed = run_loop(
            loop_problems(), 2, small_loop_config(), out_dir=str(part_dir), resume=True
        )
        assert [s.row() for s in resumed.stats] == [s.row() for s in full.stats]
        assert (part_dir / "stats.csv").read_bytes() == (full_dir / "stats.csv").read_bytes()

    @pytest.mark.parametrize("key, changed", [
        ("alpha", small_loop_config(alpha=5.0)),
        ("temperature", small_loop_config(temperature=3.0)),
        ("cp", replace(small_loop_config(),
                       limits=SearchLimits(inference_limit=120, bigstep_frequency=10, cp=2.0))),
        ("epochs", replace(small_loop_config(), train=TrainConfig(epochs=4, seed=0))),
    ])
    def test_resume_refuses_changed_settings(self, tmp_path, key, changed):
        run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path))
        stats = (tmp_path / "stats.csv").read_bytes()
        with pytest.raises(ValueError, match=f"cannot resume: {key} is "):
            run_loop(loop_problems(), 2, changed, out_dir=str(tmp_path), resume=True)
        assert (tmp_path / "stats.csv").read_bytes() == stats
        assert not (tmp_path / "examples_iter2.txt").exists()

    def test_resume_refuses_a_checkpoint_without_settings(self, tmp_path):
        run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path))
        (tmp_path / "loop_state.txt").write_text("completed 1\n")
        with pytest.raises(ValueError, match="records no alpha"):
            run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(tmp_path), resume=True)

    def test_resume_without_a_checkpoint_starts_at_iteration_0(self, tmp_path):
        fresh = run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path / "a"))
        resumed = run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path / "b"),
                           resume=True)
        assert [s.row() for s in resumed.stats] == [s.row() for s in fresh.stats]
        assert [s.iteration for s in resumed.stats] == [0, 1]
        assert (tmp_path / "b" / "stats.csv").read_bytes() == (
            tmp_path / "a" / "stats.csv").read_bytes()

    def test_resume_refuses_a_state_file_without_a_completed_line(self, tmp_path):
        run_loop(loop_problems(), 1, small_loop_config(), out_dir=str(tmp_path))
        state = tmp_path / "loop_state.txt"
        state.write_text("".join(ln for ln in state.read_text().splitlines(keepends=True)
                                 if not ln.startswith("completed ")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(state))}: not a loop checkpoint$"):
            run_loop(loop_problems(), 2, small_loop_config(), out_dir=str(tmp_path), resume=True)
        assert not (tmp_path / "examples_iter2.txt").exists()

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError):
            run_loop(loop_problems(), 1, small_loop_config(), resume=True)

    def test_failures_recorded_not_raised(self):
        out = run_loop(loop_problems(), 1, small_loop_config())
        assert out.stats[0].solved < len(loop_problems())
        assert out.stats[0].solved >= 2

    def test_loop_trains_with_its_own_alpha(self):
        # the corpus, unlike loop_problems, gives examples that move the policy weights
        problems = corpus_engines()
        config = small_loop_config(alpha=2.0)
        loop = run_loop(problems, 1, config)
        model = loop.final_model
        examples = [ex for ex in loop.examples if ex.iteration == 0]
        want = train(examples, config.train, alpha=2.0)
        assert model.policy_weights
        assert model.policy_weights == want.policy_weights
        assert model.value_weights == want.value_weights
        assert (model.policy_loss, model.value_loss) == (want.policy_loss, want.value_loss)
        sharp = train(examples, config.train, alpha=0.0)
        assert sharp.policy_weights != want.policy_weights

    @pytest.mark.parametrize("setting", [{"temperature": 0.0}, {"temperature": -1.0},
                                         {"alpha": -0.1}])
    def test_config_rejects_settings_out_of_range(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            small_loop_config(**setting)


def counted_pools(monkeypatch):
    """Patches the method that forks a pool's children; the list returned
    gets each pool's worker count, the caller included, as its children
    are forked."""
    started = []
    start = _WorkerPool._start

    def counted(self, workers, args):
        started.append(workers)
        start(self, workers, args)

    monkeypatch.setattr(_WorkerPool, "_start", counted)
    return started


class TestLoopPool:
    """One worker pool serves every iteration of a loop, and no worker
    outlives the loop."""

    def test_two_workers_give_what_one_gives_from_one_pool(self, monkeypatch):
        problems = corpus_engines()
        serial = run_loop(problems, 2, small_loop_config(), workers=1)
        started = counted_pools(monkeypatch)

        def no_thread(self):
            raise AssertionError(f"the pool started thread {self.name}")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        pooled = run_loop(problems, 2, small_loop_config(), workers=2)
        assert started == [2]
        assert pooled.final_model.policy_weights
        assert [s.row() for s in pooled.stats] == [s.row() for s in serial.stats]
        assert ([[replace(r, wall_time=0.0) for r in rs] for rs in pooled.results]
                == [[replace(r, wall_time=0.0) for r in rs] for rs in serial.results])
        assert pooled.examples == serial.examples
        assert pooled.final_model == serial.final_model

    def test_a_trained_predictor_pickles_small(self):
        """What a later pool call sends each child: the nonzero weights,
        not two ``FEATURE_DIM``-wide vectors."""
        model = run_loop(corpus_engines(), 1, small_loop_config()).final_model
        predictor = model.predictor()
        assert predictor.reads_actions and predictor.reads_state
        assert len(pickle.dumps(predictor)) < 4096

    def test_no_worker_outlives_a_loop_whose_training_diverges(self, monkeypatch):
        started = counted_pools(monkeypatch)
        config = replace(small_loop_config(), train=TrainConfig(epochs=3, learning_rate=1e9))
        with pytest.raises(TrainingDiverged):
            run_loop(corpus_engines(), 1, config, workers=2)
        assert started == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the injected failure reaches the workers by fork")
    def test_no_worker_outlives_a_loop_whose_search_raises(self, monkeypatch):
        started = counted_pools(monkeypatch)
        problems = corpus_engines()

        def failing_prove(engine, name, predictor, limits):
            if isinstance(predictor, LinearPredictor) and name == problems[3][0]:
                raise RuntimeError(f"injected failure in {name}")
            return prove(engine, name, predictor, limits)
        monkeypatch.setattr("contab.learn.prove", failing_prove)
        with pytest.raises(RuntimeError, match=f"injected failure in {problems[3][0]}"):
            run_loop(problems, 1, small_loop_config(), workers=2)
        assert started == [2]
        assert multiprocessing.active_children() == []


def patch_search(monkeypatch, in_caller, in_child):
    """Patches the search a pool runs to call ``in_caller`` (in the calling
    process) or ``in_child`` (in a forked child) with the problem's name
    before proving it."""
    caller = os.getpid()

    def patched(engine, name, predictor, limits):
        (in_caller if os.getpid() == caller else in_child)(name)
        return prove(engine, name, predictor, limits)
    monkeypatch.setattr("contab.learn.prove", patched)


def pause(name):
    """Slows a side down, so that the other takes problems too."""
    time.sleep(0.01)


def fail(name):
    raise LookupError(f"injected failure in {name}")


@pytest.fixture
def bounded():
    """Fails a test that runs longer than a minute instead of letting it hang."""
    def hung(signum, frame):
        raise TimeoutError("the pool call hung")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the children are forked")
@pytest.mark.usefixtures("bounded")
def test_every_problem_is_taken_once_under_contention(monkeypatch, tmp_path):
    """Four processes take problem indices from the shared counter as fast
    as they can; a lost update of the counter would prove a problem twice."""
    taken = tmp_path / "taken"

    def note(task):
        with open(taken, "a") as fh:
            fh.write(task[0] + "\n")
        return task[0], [os.getpid()]
    monkeypatch.setattr("contab.learn._prove_one", note)
    names = [f"p{i}" for i in range(2000)]
    pairs = prove_problems([(name, None) for name in names], UniformPredictor(), SearchLimits(),
                           workers=4)
    assert [name for name, _ in pairs] == names
    assert sorted(taken.read_text().split()) == sorted(names)
    assert len({pid for _, [pid] in pairs}) > 1
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the children are forked")
@pytest.mark.usefixtures("bounded")
class TestPoolFailures:
    """A failure in any process of a pool call raises in the caller, with
    its class and message, in bounded time, and leaves no child."""

    LIMITS = SearchLimits(inference_limit=60, bigstep_frequency=10)

    def test_a_child_killed_mid_call_makes_the_call_raise(self, monkeypatch):
        patch_search(monkeypatch, pause, lambda name: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=r"^prover process \d+ died mid-call "
                                               r"\(exit code -9\)$"):
            prove_problems(corpus_engines(), UniformPredictor(), self.LIMITS, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_replay_refused_in_a_child_is_re_raised_with_its_step(self, monkeypatch):
        caller = os.getpid()

        def refuse(engine, actions):
            if os.getpid() != caller:
                raise IllegalActionError("injected refusal", 3)
            return engine.replay(actions)
        monkeypatch.setattr(Engine, "check_proof", refuse)
        patch_search(monkeypatch, pause, lambda name: None)
        with pytest.raises(IllegalActionError, match="^injected refusal$") as info:
            prove_problems(corpus_engines(), UniformPredictor(), self.LIMITS, workers=2)
        assert info.value.step == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("in_caller, in_child", [(fail, pause), (pause, fail)],
                             ids=["caller", "child"])
    def test_a_raise_in_a_share_is_re_raised(self, monkeypatch, in_caller, in_child):
        patch_search(monkeypatch, in_caller, in_child)
        with pytest.raises(LookupError, match=r"^injected failure in \w+$"):
            prove_problems(corpus_engines(), UniformPredictor(), self.LIMITS, workers=3)
        assert multiprocessing.active_children() == []


class TestStatsCsv:
    def test_row_formatting(self, tmp_path):
        # stats.csv is a report: its row strings pass the report's cell
        # formatting unchanged
        stats = [IterationStats(0, 12, 1.23456789, 0.5, 4321)]
        path = tmp_path / "s.csv"
        report_csv(path, STATS_COLUMNS, [s.row() for s in stats])
        lines = path.read_text().splitlines()
        assert lines == [",".join(STATS_COLUMNS), "0,12,1.234568,0.500000,4321"]


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestTextReaders:
    """A file that is not UTF-8 raises ``ValueError`` naming it, whichever
    reader opens it."""

    @pytest.mark.parametrize("reader", [parse_problem_file, read_trace, read_examples,
                                        load_bank, load_model],
                             ids=["problem", "trace", "examples", "bank", "model"])
    def test_a_reader_names_the_file(self, tmp_path, reader):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\n")
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {NOT_UTF8}"

    @pytest.mark.parametrize("name", ["loop_state.txt", "stats.csv"])
    def test_the_checkpoint_reader_names_the_file(self, tmp_path, name):
        config = small_loop_config()
        state = "completed 0\n" + "".join(f"{k} {v!r}\n" for k, v in config.settings().items())
        (tmp_path / "loop_state.txt").write_text(state)
        report_csv(tmp_path / "stats.csv", STATS_COLUMNS, [IterationStats(0, 1, 0.5, 0.5, 9).row()])
        (tmp_path / name).write_bytes(b"\xff\n")
        with pytest.raises(ValueError) as info:
            _load_checkpoint(str(tmp_path), config, [], [])
        assert str(info.value) == f"{tmp_path / name}: {NOT_UTF8}"


class TestAtomicWrites:
    """A checkpoint writer that raises part-way leaves the previous file
    as it was and no temporary file behind."""

    @pytest.mark.parametrize("writer, good, bad", [
        (write_examples, synthetic_examples(3, seed=1),
         synthetic_examples(3, seed=2)[:2] + [None]),
        (lambda path, w: save_model(path, "policy", w), {1: 1.5, 2: 2.5},
         {1: 1.5, 2: "not a float"}),
        (save_bank, [BankEntry("p", (Action("start", clause_id=0),), 2)],
         [BankEntry("p", (Action("start", clause_id=1),), 3), None]),
        (lambda path, rows: report_csv(path, ["alpha", "solved"], rows), [[0.7, 3]],
         [[0.5, 4], None]),
        (lambda path, actions: write_trace(path, "p", actions),
         [Action("extension", clause_id=0, literal_index=0)],
         [Action("reduction", path_index=0), None]),
    ], ids=["examples", "model", "bank", "report", "trace"])
    def test_raise_mid_file_keeps_the_previous_file(self, writer, good, bad, tmp_path):
        path = tmp_path / "checkpoint"
        writer(path, good)
        before = path.read_bytes()
        with pytest.raises((AttributeError, TypeError, ValueError)):
            writer(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint"]
