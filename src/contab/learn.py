"""Training-data extraction, entropy-regularized policy/value training
for the linear predictor, and the prove/learn iteration loop.

One training example is extracted per bigstep-trace node: the policy
target is the visit distribution over the node's children and the value
target is the discounted distance to the proof leaf (0 when the run
found no proof).  Policy training minimizes cross-entropy minus alpha
times the predicted distribution's entropy; value training minimizes
squared error through a logistic output.  Both models are plain linear
in the hashed features and are fit by mini-batch SGD, which keeps every
run bit-reproducible under a fixed seed.

Training's policy scores are the bits a ``LinearPredictor`` computes
for the same weights and action features: every sparse sum adds its
terms one at a time in dict order, and softmaxes and policy gradients
are taken on one 2-D array per action count with rows summed as 1-D
vectors are.  Neither ``np.add.reduceat`` (pairwise sums),
``np.add.reduce`` over the batch axis (its order depends on the batch
width) nor ``np.exp`` in place of ``math.exp`` keeps those bits.
Training's value is ``sigmoid(_sparse_dot(value weights, state
features))``; a ``LinearPredictor`` values the state those features
were extracted from by summing memoized per-literal partial logits
instead, which agrees with it up to rounding, not to the bit.

An example whose policy target is ``[1.0]`` (one action) has a policy
loss and gradient of exactly 0, so training leaves out its policy side
and keeps its value side.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .analysis import report_csv
from .features import FEATURE_DIM, extract_action_features, extract_features
from .fileio import atomic_open
from .policy import (LinearPredictor, Predictor, UniformPredictor, _sparse_dot, save_model,
                     sigmoid, softmax_temperature)
from .search import DISCOUNT, ProofResult, SearchLimits, prove
from .tableau import Engine

__all__ = [
    "TrainingExample", "TrainConfig", "TrainingDiverged", "TrainResult",
    "extract_training_data",
    "policy_loss", "policy_grad_logits", "value_loss", "value_grad_logit",
    "train", "write_examples", "read_examples", "prove_problems",
    "LoopConfig", "IterationStats", "LoopResult", "run_loop",
]

EXAMPLES_MAGIC = "contab-examples v1"
STATS_COLUMNS = ["iteration", "solved", "mean_entropy", "mean_normalized_entropy",
                 "inferences_total"]


@dataclass
class TrainingExample:
    problem: str
    iteration: int
    state_features: Dict[int, int]
    action_features: List[Dict[int, int]]
    value_target: float
    policy_targets: List[float]


def extract_training_data(result: ProofResult, matrix, iteration: int = 0) -> List[TrainingExample]:
    """One example per bigstep-trace node that has at least one expanded
    child.  When the run is solved every trace node is an ancestor of the
    proof leaf, so its value target is the discount raised to the number
    of actions still separating it from closure."""
    out: List[TrainingExample] = []
    proof_depth = len(result.proof) if result.solved else None
    for node in result.bigstep_nodes:
        visits = [c.visits if c is not None else 0 for c in node.children]
        total = sum(visits)
        if total == 0:
            continue
        value = DISCOUNT ** (proof_depth - node.depth) if proof_depth is not None else 0.0
        out.append(TrainingExample(
            problem=result.problem,
            iteration=iteration,
            state_features=extract_features(node.state),
            action_features=[extract_action_features(node.state, a, matrix)
                             for a in node.actions],
            value_target=value,
            policy_targets=[v / total for v in visits],
        ))
    return out


# ---------------------------------------------------------------------------
# losses


def policy_loss(targets: Sequence[float], predicted: Sequence[float],
                alpha: float) -> Union[float, np.ndarray]:
    """Cross-entropy of the predicted distribution against the targets,
    minus alpha times the predicted distribution's entropy, over the last
    axis: a float for two vectors, one loss per row for two 2-D arrays."""
    p = np.asarray(targets, dtype=float)
    q = np.asarray(predicted, dtype=float)
    # q=0 at a target yields inf on purpose; 0 log 0 terms are masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        logq = np.log(q)
        ce = -np.where(p > 0.0, p * logq, 0.0).sum(axis=-1)
        h = -np.where(q > 0.0, q * logq, 0.0).sum(axis=-1)
    loss = ce - alpha * h
    return float(loss) if loss.ndim == 0 else loss


def policy_grad_logits(targets: Sequence[float], predicted: Sequence[float],
                       alpha: float) -> np.ndarray:
    """Gradient of policy_loss in the logits that produced ``predicted``
    via softmax: (q - p) + alpha * q * (log q + H[q]), over the last axis
    like :func:`policy_loss`."""
    p = np.asarray(targets, dtype=float)
    q = np.asarray(predicted, dtype=float)
    logq = np.log(np.maximum(q, 1e-300))
    ent = -(q * logq).sum(axis=-1, keepdims=True)
    return (q - p) + alpha * q * (logq + ent)


def value_loss(target: float, predicted: float) -> float:
    return (target - predicted) ** 2


def value_grad_logit(target: float, predicted: float) -> float:
    """Gradient of value_loss in the pre-logistic logit z, predicted =
    sigmoid(z): 2 (v' - v) v' (1 - v')."""
    return 2.0 * (predicted - target) * predicted * (1.0 - predicted)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf and self.epochs > 0 and self.batch_size > 0):
            raise ValueError("learning rate, epochs, and batch size must be positive and finite")


class TrainingDiverged(ValueError):
    """A setting, mostly a too-large learning rate, sent a loss to NaN or infinity."""


@dataclass
class TrainResult:
    policy_weights: np.ndarray
    value_weights: np.ndarray
    # entry 0 is the pre-training loss, then one entry per epoch
    policy_losses: List[float]
    value_losses: List[float]

    def predictor(self, temperature: float = 1.0) -> LinearPredictor:
        return LinearPredictor(self.policy_weights, self.value_weights, temperature=temperature)


class _Packed:
    """Training examples packed once for :func:`train`.  Every feature
    index the examples use gets a dense slot, in order of first use, and
    each example's feature maps are rewritten over the slots in their own
    order, so the weights are lists as long as the features in use.  The
    examples are grouped by action count, leaving out those whose policy
    target is ``[1.0]``: their policy loss and gradient are exactly 0."""

    def __init__(self, examples: Sequence[TrainingExample]):
        self.examples = examples
        self.slots: Dict[int, int] = {}
        self.actions = [[self._slotted(af) for af in ex.action_features] for ex in examples]
        self.states = [self._slotted(ex.state_features) for ex in examples]
        self.groups = self.by_count(range(len(examples)))

    def _slotted(self, features: Dict[int, int]) -> Dict[int, int]:
        slots = self.slots
        return {slots.setdefault(f, len(slots)): c for f, c in features.items()}

    def weights(self, dense: List[float]) -> np.ndarray:
        """The ``FEATURE_DIM`` weight vector of dense slot weights."""
        out = np.zeros(FEATURE_DIM)
        out[list(self.slots)] = dense
        return out

    def by_count(self, indices: Sequence[int]) -> Dict[int, List[int]]:
        """``indices`` grouped by their examples' action count, in order,
        without the examples whose policy target is ``[1.0]``."""
        groups: Dict[int, List[int]] = {}
        for i in indices:
            if self.examples[i].policy_targets != [1.0]:
                groups.setdefault(len(self.actions[i]), []).append(i)
        return groups

    def policy(self, wp: List[float], idx: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """(targets, predicted distributions) of the examples ``idx``, all
        with one action count, as rows."""
        targets = np.array([self.examples[i].policy_targets for i in idx])
        logits = np.array([[_sparse_dot(wp, af) for af in self.actions[i]] for i in idx])
        return targets, softmax_temperature(logits)

    def value(self, wv: List[float], i: int) -> float:
        return sigmoid(_sparse_dot(wv, self.states[i]))

    def losses(self, wp: List[float], wv: List[float], alpha: float) -> Tuple[float, float]:
        """Mean policy and value losses over every example."""
        pl = [0.0] * len(self.examples)
        for idx in self.groups.values():
            for i, loss in zip(idx, policy_loss(*self.policy(wp, idx), alpha).tolist()):
                pl[i] = loss
        vl = [value_loss(ex.value_target, self.value(wv, i)) for i, ex in enumerate(self.examples)]
        return sum(pl) / len(pl), sum(vl) / len(vl)


def train(examples: Sequence[TrainingExample], config: Optional[TrainConfig] = None,
          alpha: float = 0.7) -> TrainResult:
    """Fits independent policy and value weight vectors by mini-batch SGD,
    scoring them as a :class:`LinearPredictor` would, with entropy
    coefficient ``alpha``.  Reported losses are full-dataset means
    evaluated after each epoch.

    The examples are packed once.  The weights are Python float lists
    over the packed feature slots while training, every score is
    :func:`_sparse_dot`'s, and each batch takes its softmaxes and policy
    gradients row-wise, one 2-D array per action count.  Gradients are
    accumulated example by example, action by action and feature by
    feature."""
    config = config or TrainConfig()
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
    if not examples:
        raise ValueError("no training examples")
    rng = np.random.default_rng(config.seed)
    packed = _Packed(examples)
    wp, wv = [0.0] * len(packed.slots), [0.0] * len(packed.slots)
    pl0, vl0 = packed.losses(wp, wv, alpha)
    policy_losses, value_losses = [pl0], [vl0]

    for epoch in range(config.epochs):
        order = rng.permutation(len(examples)).tolist()
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grads: Dict[int, List[float]] = {}
            for idx in packed.by_count(batch).values():
                rows = policy_grad_logits(*packed.policy(wp, idx), alpha).tolist()
                grads.update(zip(idx, rows))
            gp: Dict[int, float] = {}
            gv: Dict[int, float] = {}
            for i in batch:
                for gi, af in zip(grads.get(i, ()), packed.actions[i]):
                    if gi:
                        for f, c in af.items():
                            gp[f] = gp.get(f, 0.0) + gi * c
                gz = value_grad_logit(examples[i].value_target, packed.value(wv, i))
                if gz:
                    for f, c in packed.states[i].items():
                        gv[f] = gv.get(f, 0.0) + gz * c
            scale = config.learning_rate / len(batch)
            for f, g in gp.items():
                wp[f] -= scale * g
            for f, g in gv.items():
                wv[f] -= scale * g
        pl, vl = packed.losses(wp, wv, alpha)
        if math.isnan(pl) or math.isnan(vl) or math.isinf(pl) or math.isinf(vl):
            raise TrainingDiverged(
                f"loss diverged at epoch {epoch + 1}: policy={pl}, value={vl}; "
                f"reduce the learning rate (currently {config.learning_rate})")
        policy_losses.append(pl)
        value_losses.append(vl)
    return TrainResult(packed.weights(wp), packed.weights(wv), policy_losses, value_losses)


# ---------------------------------------------------------------------------
# example files


def _fmt_sparse(feats: Dict[int, int]) -> str:
    if not feats:
        return "-"
    return ",".join(f"{i}:{c}" for i, c in sorted(feats.items()))


def _parse_sparse(text: str) -> Dict[int, int]:
    if text == "-":
        return {}
    out = {}
    for part in text.split(","):
        i, c = part.split(":")
        out[int(i)] = int(c)
    return out


def write_examples(path, examples: Sequence[TrainingExample]) -> None:
    with atomic_open(path) as fh:
        fh.write(EXAMPLES_MAGIC + "\n")
        for ex in examples:
            fields = [ex.problem, str(ex.iteration), repr(ex.value_target),
                      ",".join(repr(t) for t in ex.policy_targets),
                      _fmt_sparse(ex.state_features)]
            fields.extend(_fmt_sparse(af) for af in ex.action_features)
            fh.write("\t".join(fields) + "\n")


def read_examples(path) -> List[TrainingExample]:
    """A malformed line raises ``ValueError`` naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != EXAMPLES_MAGIC:
        raise ValueError(f"{path}: not a recognized examples file")
    out = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        fields = ln.split("\t")
        try:
            problem, iteration, value, ptargets, state = fields[:5]
            targets = [float(t) for t in ptargets.split(",")]
            if len(targets) != len(fields) - 5:
                raise ValueError(f"{len(targets)} policy targets for {len(fields) - 5} actions")
            value_target = float(value)
            if not math.isfinite(value_target):
                raise ValueError(f"value target {value!r} is not finite")
            if not all(map(math.isfinite, targets)):
                raise ValueError(f"policy targets {ptargets!r} are not all finite")
            out.append(TrainingExample(
                problem=problem,
                iteration=int(iteration),
                state_features=_parse_sparse(state),
                action_features=[_parse_sparse(f) for f in fields[5:]],
                value_target=value_target,
                policy_targets=targets,
            ))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return out


# ---------------------------------------------------------------------------
# prove/learn loop


@dataclass
class LoopConfig:
    alpha: float = 0.7
    limits: SearchLimits = field(default_factory=SearchLimits)
    train: TrainConfig = field(default_factory=TrainConfig)
    temperature: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    def settings(self) -> Dict[str, float]:
        """Every value that shapes a run, by name, as a checkpoint records them."""
        return {"alpha": self.alpha, "temperature": self.temperature,
                **asdict(self.limits), **asdict(self.train)}


@dataclass
class IterationStats:
    iteration: int
    solved: int
    mean_entropy: float
    mean_normalized_entropy: float
    inferences_total: int

    def row(self) -> List[str]:
        return [str(self.iteration), str(self.solved),
                f"{self.mean_entropy:.6f}", f"{self.mean_normalized_entropy:.6f}",
                str(self.inferences_total)]


@dataclass
class LoopResult:
    stats: List[IterationStats]
    examples: List[TrainingExample]
    final_model: Optional[TrainResult]
    results: List[List[ProofResult]]


def _prove_one(task) -> Tuple[ProofResult, List[TrainingExample]]:
    name, engine, predictor, limits, iteration = task
    r = prove(engine, name, predictor, limits)
    examples = extract_training_data(r, engine.matrix, iteration=iteration)
    # drop the search tree so results stay cheap to pickle across workers
    r.bigstep_nodes = []
    return r, examples


# the task list of a pool worker, set by the pool initializer in the worker only
_TASKS: Sequence[tuple] = ()


def _set_tasks(tasks: Sequence[tuple]) -> None:
    global _TASKS
    _TASKS = tasks


def _prove_index(i: int) -> Tuple[ProofResult, List[TrainingExample]]:
    return _prove_one(_TASKS[i])


def prove_problems(problems: Sequence[Tuple[str, Engine]], predictor: Predictor,
                   limits: SearchLimits, iteration: int = 0,
                   workers: int = 1) -> List[Tuple[ProofResult, List[TrainingExample]]]:
    """Proves every problem, returning (result, extracted examples) pairs
    in problem order.  Search has no randomness, so the worker count
    never changes results, with one exception: where a ``wall_clock``
    stop falls depends on machine load, and ``search.prove`` reports such
    a stop as ``budget-exhausted``.

    With more than one worker and more than one problem, a pool of at
    most one worker per problem receives the whole task list (engines,
    predictor, limits) once, through its initializer; where the
    ``fork`` start method exists the workers inherit that list and
    nothing of it is pickled, elsewhere it is pickled once per worker.
    Each task sent to a worker is then a problem index, and only the
    result and its examples come back."""
    tasks = [(name, engine, predictor, limits, iteration) for name, engine in problems]
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_prove_one(t) for t in tasks]
    # imported here: the serial path does not pay their ~2 MB
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # a fork pool forks every worker before it starts its own threads, and
    # the prover starts none, so no lock can be copied while another
    # thread of the prover holds it
    fork = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context(fork),
                             initializer=_set_tasks, initargs=(tasks,)) as pool:
        return list(pool.map(_prove_index, range(len(tasks))))


def _reduce_stats(iteration: int,
                  pairs: Sequence[Tuple[ProofResult, List[TrainingExample]]]) -> IterationStats:
    ent_sum = nent_sum = 0.0
    ent_count = solved = inferences = 0
    for r, _ in pairs:
        solved += int(r.solved)
        inferences += r.inferences
        ent_sum += r.entropy_sum
        nent_sum += r.normalized_entropy_sum
        ent_count += r.entropy_count
    return IterationStats(
        iteration=iteration, solved=solved,
        mean_entropy=ent_sum / ent_count if ent_count else 0.0,
        mean_normalized_entropy=nent_sum / ent_count if ent_count else 0.0,
        inferences_total=inferences)


def run_loop(problems: Sequence[Tuple[str, Engine]], iterations: int,
             config: Optional[LoopConfig] = None, out_dir: Optional[str] = None,
             resume: bool = False, workers: int = 1) -> LoopResult:
    """Iteration 0 proves every problem with the uniform predictor; each
    later iteration trains fresh models on all data collected so far and
    re-proves everything with them.  An unsolved problem is recorded in
    the statistics; an exception raised while proving one propagates and
    ends the loop.

    With ``out_dir`` set, per-iteration example files, models, and the
    statistics CSV are written there; ``resume`` restarts after the last
    completed iteration using those files, and raises ``ValueError`` if
    the checkpoint was written under other settings.
    """
    config = config or LoopConfig()
    stats: List[IterationStats] = []
    examples: List[TrainingExample] = []
    all_results: List[List[ProofResult]] = []
    model: Optional[TrainResult] = None
    start_at = 0

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if resume:
        if not out_dir:
            raise ValueError("resume requires out_dir")
        start_at = _load_checkpoint(out_dir, config, stats, examples)

    for it in range(start_at, iterations + 1):
        if it == 0:
            predictor: Predictor = UniformPredictor()
        else:
            model = train(examples, config.train, alpha=config.alpha)
            predictor = model.predictor(temperature=config.temperature)
        pairs = prove_problems(problems, predictor, config.limits,
                               iteration=it, workers=workers)
        stats.append(_reduce_stats(it, pairs))
        all_results.append([r for r, _ in pairs])
        fresh: List[TrainingExample] = []
        for _, exs in pairs:
            fresh.extend(exs)
        examples.extend(fresh)
        if out_dir:
            write_examples(os.path.join(out_dir, f"examples_iter{it}.txt"), fresh)
            if model is not None:
                save_model(os.path.join(out_dir, f"policy_iter{it}.model"),
                           "policy", model.policy_weights, config.temperature, config.alpha)
                save_model(os.path.join(out_dir, f"value_iter{it}.model"),
                           "value", model.value_weights, config.temperature, config.alpha)
            report_csv(os.path.join(out_dir, "stats.csv"), STATS_COLUMNS,
                       [s.row() for s in stats])
            with atomic_open(os.path.join(out_dir, "loop_state.txt")) as fh:
                fh.write(f"completed {it}\n")
                for key, val in config.settings().items():
                    fh.write(f"{key} {val!r}\n")

    return LoopResult(stats=stats, examples=examples, final_model=model, results=all_results)


def _load_checkpoint(out_dir, config: LoopConfig, stats: List[IterationStats],
                     examples: List[TrainingExample]) -> int:
    state_path = os.path.join(out_dir, "loop_state.txt")
    if not os.path.exists(state_path):
        return 0
    with open(state_path, "r", encoding="utf-8") as fh:
        state = dict(ln.partition(" ")[::2] for ln in fh.read().splitlines())
    if "completed" not in state:
        raise ValueError(f"{state_path}: not a loop checkpoint")

    def number(key, kind):
        try:
            return kind(state[key])
        except ValueError as e:
            raise ValueError(f"{state_path}: {key}: {e}") from None

    for key, val in config.settings().items():
        if key not in state:
            raise ValueError(f"{state_path}: cannot resume: the checkpoint records no {key}")
        if number(key, float) != float(val):
            raise ValueError(f"{state_path}: cannot resume: {key} is {val!r} here "
                             f"but {state[key]} in the checkpoint")
    last = number("completed", int)
    stats_path = os.path.join(out_dir, "stats.csv")
    with open(stats_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{stats_path}:1: no header row")
        for row in reader:
            try:
                iteration, solved, ent, nent, inferences = row
                row_stats = IterationStats(int(iteration), int(solved), float(ent), float(nent),
                                           int(inferences))
            except ValueError as e:
                raise ValueError(f"{stats_path}:{reader.line_num}: {e}") from None
            # stats.csv is written before loop_state.txt, so it may hold a
            # row of an iteration that did not complete
            if row_stats.iteration <= last:
                stats.append(row_stats)
    for it in range(last + 1):
        examples.extend(read_examples(os.path.join(out_dir, f"examples_iter{it}.txt")))
    return last + 1
