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
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import FEATURE_DIM, extract_action_features, extract_features
from .policy import (LinearPredictor, Predictor, UniformPredictor, _sparse_dot,
                     save_model, sigmoid, softmax_temperature)
from .search import DISCOUNT, ProofResult, SearchLimits, prove
from .tableau import Engine

__all__ = [
    "TrainingExample", "TrainConfig", "TrainingDiverged", "TrainResult",
    "extract_features", "extract_action_features", "extract_training_data",
    "policy_loss", "policy_grad_logits", "value_loss", "value_grad_logit",
    "train", "write_examples", "read_examples", "prove_problems",
    "LoopConfig", "IterationStats", "LoopResult", "run_loop", "stable_seed",
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


def policy_loss(targets: Sequence[float], predicted: Sequence[float], alpha: float) -> float:
    """Cross-entropy of the predicted distribution against the targets,
    minus alpha times the predicted distribution's entropy."""
    p = np.asarray(targets, dtype=float)
    q = np.asarray(predicted, dtype=float)
    nz = p > 0.0
    with np.errstate(divide="ignore"):  # q=0 at a target yields inf on purpose
        ce = float(-np.sum(p[nz] * np.log(q[nz])))
    qnz = q[q > 0.0]
    ent = float(-np.sum(qnz * np.log(qnz)))
    return ce - alpha * ent


def policy_grad_logits(targets: Sequence[float], predicted: Sequence[float],
                       alpha: float) -> np.ndarray:
    """Gradient of policy_loss in the logits that produced ``predicted``
    via softmax: (q - p) + alpha * q * (log q + H[q])."""
    p = np.asarray(targets, dtype=float)
    q = np.asarray(predicted, dtype=float)
    logq = np.log(np.maximum(q, 1e-300))
    ent = float(-np.sum(q * logq))
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
    alpha: float = 0.7
    learning_rate: float = 0.1
    epochs: int = 10
    batch_size: int = 8
    dim: int = FEATURE_DIM
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.learning_rate <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate, epochs, and batch size must be positive")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    policy_weights: np.ndarray
    value_weights: np.ndarray
    # entry 0 is the pre-training loss, then one entry per epoch
    policy_losses: List[float]
    value_losses: List[float]

    def predictor(self, temperature: float = 1.0) -> LinearPredictor:
        return LinearPredictor(self.policy_weights, self.value_weights,
                               temperature=temperature, dim=len(self.policy_weights))


def _policy_probs(weights: np.ndarray, ex: TrainingExample) -> np.ndarray:
    logits = [_sparse_dot(weights, af) for af in ex.action_features]
    return softmax_temperature(logits, 1.0)


def _value_pred(weights: np.ndarray, ex: TrainingExample) -> float:
    return sigmoid(_sparse_dot(weights, ex.state_features))


def _dataset_losses(wp, wv, examples, alpha) -> Tuple[float, float]:
    pl = sum(policy_loss(ex.policy_targets, _policy_probs(wp, ex), alpha) for ex in examples)
    vl = sum(value_loss(ex.value_target, _value_pred(wv, ex)) for ex in examples)
    n = len(examples)
    return pl / n, vl / n


def train(examples: Sequence[TrainingExample], config: Optional[TrainConfig] = None) -> TrainResult:
    """Fits independent policy and value weight vectors by mini-batch SGD.
    Reported losses are full-dataset means evaluated after each epoch."""
    config = config or TrainConfig()
    if not examples:
        raise ValueError("no training examples")
    wp = np.zeros(config.dim)
    wv = np.zeros(config.dim)
    rng = np.random.default_rng(config.seed)
    pl0, vl0 = _dataset_losses(wp, wv, examples, config.alpha)
    policy_losses, value_losses = [pl0], [vl0]

    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo:lo + config.batch_size]]
            gp: Dict[int, float] = {}
            gv: Dict[int, float] = {}
            for ex in batch:
                probs = _policy_probs(wp, ex)
                g = policy_grad_logits(ex.policy_targets, probs, config.alpha)
                for gi, af in zip(g, ex.action_features):
                    if gi:
                        for f, c in af.items():
                            gp[f] = gp.get(f, 0.0) + gi * c
                gz = value_grad_logit(ex.value_target, _value_pred(wv, ex))
                if gz:
                    for f, c in ex.state_features.items():
                        gv[f] = gv.get(f, 0.0) + gz * c
            scale = config.learning_rate / len(batch)
            for f, g in gp.items():
                wp[f] -= scale * g
            for f, g in gv.items():
                wv[f] -= scale * g
        pl, vl = _dataset_losses(wp, wv, examples, config.alpha)
        if math.isnan(pl) or math.isnan(vl) or math.isinf(pl) or math.isinf(vl):
            raise TrainingDiverged(
                f"loss diverged at epoch {epoch + 1}: policy={pl}, value={vl}; "
                f"reduce the learning rate (currently {config.learning_rate})")
        policy_losses.append(pl)
        value_losses.append(vl)
    return TrainResult(wp, wv, policy_losses, value_losses)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EXAMPLES_MAGIC + "\n")
        for ex in examples:
            fields = [ex.problem, str(ex.iteration), repr(ex.value_target),
                      ",".join(repr(t) for t in ex.policy_targets),
                      _fmt_sparse(ex.state_features)]
            fields.extend(_fmt_sparse(af) for af in ex.action_features)
            fh.write("\t".join(fields) + "\n")


def read_examples(path) -> List[TrainingExample]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != EXAMPLES_MAGIC:
        raise ValueError(f"{path}: not a recognized examples file")
    out = []
    for ln in lines[1:]:
        if not ln:
            continue
        fields = ln.split("\t")
        problem, iteration, value, ptargets, state = fields[:5]
        out.append(TrainingExample(
            problem=problem,
            iteration=int(iteration),
            state_features=_parse_sparse(state),
            action_features=[_parse_sparse(f) for f in fields[5:]],
            value_target=float(value),
            policy_targets=[float(t) for t in ptargets.split(",")],
        ))
    return out


# ---------------------------------------------------------------------------
# prove/learn loop


def stable_seed(global_seed: int, name: str) -> int:
    import zlib
    return (global_seed * 1000003 + zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF


@dataclass
class LoopConfig:
    alpha: float = 0.7
    limits: SearchLimits = field(default_factory=SearchLimits)
    train: TrainConfig = field(default_factory=TrainConfig)
    temperature: float = 1.0
    seed: int = 0


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


def write_stats_csv(path, stats: Sequence[IterationStats]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_COLUMNS)
        for s in stats:
            writer.writerow(s.row())


def _prove_one(task) -> Tuple[ProofResult, List[TrainingExample]]:
    name, engine, predictor, limits, seed, iteration, collect = task
    r = prove(engine, name, predictor, limits, seed=seed, collect_states=collect)
    examples = extract_training_data(r, engine.matrix, iteration=iteration)
    # drop the search tree so results stay cheap to pickle across workers
    r.bigstep_nodes = []
    return r, examples


def prove_problems(problems: Sequence[Tuple[str, Engine]], predictor: Predictor,
                   limits: SearchLimits, global_seed: int = 0, iteration: int = 0,
                   workers: int = 1, collect_states: bool = False,
                   ) -> List[Tuple[ProofResult, List[TrainingExample]]]:
    """Proves every problem, returning (result, extracted examples) pairs
    in problem order.  Per-problem seeds depend only on the global seed
    and the problem name, so the worker count never changes results."""
    tasks = [(name, engine, predictor, limits, stable_seed(global_seed, name),
              iteration, collect_states)
             for name, engine in problems]
    if workers <= 1:
        return [_prove_one(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_prove_one, tasks))


def _reduce_stats(pairs: Sequence[Tuple[ProofResult, List[TrainingExample]]]) -> IterationStats:
    ent_sum = nent_sum = 0.0
    ent_count = solved = inferences = 0
    for r, _ in pairs:
        solved += int(r.solved)
        inferences += r.inferences
        ent_sum += r.mean_entropy * r.entropy_count
        nent_sum += r.mean_normalized_entropy * r.entropy_count
        ent_count += r.entropy_count
    return IterationStats(
        iteration=0, solved=solved,
        mean_entropy=ent_sum / ent_count if ent_count else 0.0,
        mean_normalized_entropy=nent_sum / ent_count if ent_count else 0.0,
        inferences_total=inferences)


def run_loop(problems: Sequence[Tuple[str, Engine]], iterations: int,
             config: Optional[LoopConfig] = None, out_dir: Optional[str] = None,
             resume: bool = False, workers: int = 1) -> LoopResult:
    """Iteration 0 proves every problem with the uniform predictor; each
    later iteration trains fresh models on all data collected so far and
    re-proves everything with them.  Per-problem failures are recorded in
    the statistics, never raised.

    With ``out_dir`` set, per-iteration example files, models, and the
    statistics CSV are written there; ``resume`` restarts after the last
    completed iteration using those files.
    """
    config = config or LoopConfig()
    train_cfg = replace(config.train, alpha=config.alpha)
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
        start_at = _load_checkpoint(out_dir, stats, examples)

    for it in range(start_at, iterations + 1):
        if it == 0:
            predictor: Predictor = UniformPredictor(temperature=config.temperature)
        else:
            model = train(examples, train_cfg)
            predictor = model.predictor(temperature=config.temperature)
        pairs = prove_problems(problems, predictor, config.limits, config.seed,
                               iteration=it, workers=workers)
        row = _reduce_stats(pairs)
        row.iteration = it
        stats.append(row)
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
            write_stats_csv(os.path.join(out_dir, "stats.csv"), stats)
            with open(os.path.join(out_dir, "loop_state.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"completed {it}\n")

    return LoopResult(stats=stats, examples=examples, final_model=model, results=all_results)


def _load_checkpoint(out_dir, stats: List[IterationStats],
                     examples: List[TrainingExample]) -> int:
    state_path = os.path.join(out_dir, "loop_state.txt")
    if not os.path.exists(state_path):
        return 0
    with open(state_path, "r", encoding="utf-8") as fh:
        last = int(fh.read().split()[1])
    with open(os.path.join(out_dir, "stats.csv"), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            stats.append(IterationStats(int(row[0]), int(row[1]), float(row[2]),
                                        float(row[3]), int(row[4])))
    for it in range(last + 1):
        examples.extend(read_examples(os.path.join(out_dir, f"examples_iter{it}.txt")))
    return last + 1
