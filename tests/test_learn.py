"""Training-target extraction, loss/gradient, SGD, and loop tests.

Gradient code is checked against central finite differences; extraction
against hand-built search trees with known visit counts.
"""

import concurrent.futures
import hashlib
import math
import multiprocessing
import re
from dataclasses import replace

import numpy as np
import pytest

from contab.analysis import BankEntry, StateBank, report_csv, save_bank
from contab.clausify import clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.learn import (
    EXAMPLES_MAGIC,
    STATS_COLUMNS,
    IterationStats,
    LoopConfig,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
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
from contab.policy import (LinearPredictor, UniformPredictor, _sparse_dot, normalized_entropy,
                           save_model, sigmoid, softmax_temperature)
from contab.search import DISCOUNT, MCTSNode, ProofResult, SearchLimits
from contab.tableau import Action, Engine, write_trace

THREE_WAY = (
    "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
    "cnf(a3, axiom, p(X) | s(X)).\nfof(c, conjecture, p(a))."
)


def three_action_node(visits, depth=1):
    """A bigstep-trace node over a real state with three legal actions."""
    engine = Engine(clausify_text(THREE_WAY))
    state = engine.initial_states()[0]
    node = MCTSNode(state, None, -1, depth)
    node.actions = engine.legal_actions(state)
    assert len(node.actions) == 3
    node.children = []
    for i, v in enumerate(visits):
        if v == 0:
            node.children.append(None)
        else:
            child = MCTSNode(None, node, i, depth + 1)
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
        engine, node = three_action_node([2, 1, 0], depth=1)
        result = result_with([node], proof_len=3)
        ex = extract_training_data(result, engine.matrix)[0]
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
        result = train(examples, alpha=0.0)
        assert len(result.policy_losses) == TrainConfig().epochs + 1
        assert len(result.value_losses) == TrainConfig().epochs + 1
        for prev, cur in zip(result.policy_losses, result.policy_losses[1:]):
            assert cur <= prev + 1e-9
        for prev, cur in zip(result.value_losses, result.value_losses[1:]):
            assert cur <= prev + 1e-9

    def test_final_cross_entropy_beats_uniform_baseline(self):
        examples = synthetic_examples(100)
        result = train(examples, TrainConfig(epochs=15, learning_rate=0.3), alpha=0.0)
        baseline = sum(math.log(len(ex.policy_targets)) for ex in examples) / len(examples)
        assert result.policy_losses[0] == pytest.approx(baseline, abs=1e-9)
        assert result.policy_losses[-1] < baseline

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
        assert a.policy_weights.tobytes() == b.policy_weights.tobytes()
        assert a.value_weights.tobytes() == b.value_weights.tobytes()
        assert a.policy_losses == b.policy_losses

    def test_divergence_is_reported(self):
        examples = synthetic_examples(20)
        with pytest.raises(TrainingDiverged):
            train(examples, TrainConfig(learning_rate=1e18, epochs=40), alpha=0.0)

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


def corpus_examples():
    """The iteration-0 examples of a loop over the bundled corpus."""
    problems = [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]
    return run_loop(problems, 0, small_loop_config()).examples


def weight_digests(result):
    return tuple(hashlib.sha256(w.tobytes()).hexdigest()[:16]
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
DIVERGED = ("loss diverged at epoch 1: policy=inf, value=0.28575813329521743; "
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
        assert result.policy_weights.any() and result.value_weights.any()
        assert weight_digests(result) == PINNED_WEIGHTS[name, alpha]

    def test_divergence_names_the_same_epoch(self, datasets):
        with pytest.raises(TrainingDiverged) as info:
            train(datasets["wide"], TrainConfig(learning_rate=1e9), alpha=0.7)
        assert str(info.value) == DIVERGED

    @pytest.mark.parametrize("name", sorted(TRAINING_SETS))
    def test_losses_are_dataset_means_at_each_epoch(self, datasets, name):
        examples = datasets[name]
        full = train(examples, TrainConfig(epochs=4), alpha=0.7)
        for epoch in range(5):
            # the first epochs of a run draw the same batches as a shorter run
            model = (train(examples, TrainConfig(epochs=epoch), alpha=0.7).predictor()
                     if epoch else LinearPredictor())
            pl = [policy_loss(ex.policy_targets, softmax_temperature(
                      model.predict_policy(ex.action_features)), 0.7)
                  for ex in examples]
            vl = [value_loss(ex.value_target,
                             sigmoid(_sparse_dot(model.value_weights, ex.state_features)))
                  for ex in examples]
            assert full.policy_losses[epoch] == pytest.approx(sum(pl) / len(pl), rel=1e-12, abs=0)
            assert full.value_losses[epoch] == pytest.approx(sum(vl) / len(vl), rel=1e-12, abs=0)


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
            parallel = prove_problems(problems, predictor, limits, workers=2)
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

    def test_one_problem_is_proved_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one problem")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError):
            run_loop(loop_problems(), 1, small_loop_config(), resume=True)

    def test_failures_recorded_not_raised(self):
        out = run_loop(loop_problems(), 1, small_loop_config())
        assert out.stats[0].solved < len(loop_problems())
        assert out.stats[0].solved >= 2

    def test_loop_trains_with_its_own_alpha(self):
        # the corpus, unlike loop_problems, gives examples that move the policy weights
        problems = [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]
        config = small_loop_config(alpha=2.0)
        loop = run_loop(problems, 1, config)
        model = loop.final_model
        examples = [ex for ex in loop.examples if ex.iteration == 0]
        want = train(examples, config.train, alpha=2.0)
        assert model.policy_weights.any()
        assert model.policy_weights.tobytes() == want.policy_weights.tobytes()
        assert model.value_weights.tobytes() == want.value_weights.tobytes()
        assert model.policy_losses == want.policy_losses
        sharp = train(examples, config.train, alpha=0.0)
        assert sharp.policy_weights.tobytes() != want.policy_weights.tobytes()

    @pytest.mark.parametrize("setting", [{"temperature": 0.0}, {"temperature": -1.0},
                                         {"alpha": -0.1}])
    def test_config_rejects_settings_out_of_range(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            small_loop_config(**setting)


class TestStatsCsv:
    def test_row_formatting(self, tmp_path):
        # stats.csv is a report: its row strings pass the report's cell
        # formatting unchanged
        stats = [IterationStats(0, 12, 1.23456789, 0.5, 4321)]
        path = tmp_path / "s.csv"
        report_csv(path, STATS_COLUMNS, [s.row() for s in stats])
        lines = path.read_text().splitlines()
        assert lines == [",".join(STATS_COLUMNS), "0,12,1.234568,0.500000,4321"]


class TestAtomicWrites:
    """A checkpoint writer that raises part-way leaves the previous file
    as it was and no temporary file behind."""

    @pytest.mark.parametrize("writer, good, bad", [
        (write_examples, synthetic_examples(3, seed=1),
         synthetic_examples(3, seed=2)[:2] + [None]),
        (lambda path, w: save_model(path, "policy", w), np.array([0.0, 1.5, 2.5]),
         np.array([0.0, 1.5, "not a float"], dtype=object)),
        (save_bank, StateBank([BankEntry("p", ("e0",), 2)]),
         StateBank([BankEntry("p", ("e1",), 3), None])),
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
