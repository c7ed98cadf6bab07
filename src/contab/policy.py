"""Probability-vector mathematics and action-scoring predictors.

Entropy, normalized entropy, and tempered softmax all use the natural
logarithm.  Predictors map hashed action features to action logits and
a search state to a value; the built-ins are a uniform baseline, a
linear model over the hashed features, and a fixed-normalized-entropy
random policy that keeps a base predictor's action ordering while
pinning the distribution's normalized entropy to a chosen target.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# extract_features is not called here; perfbench's tracing wraps it under
# this module's name, beside extract_action_features
from .features import FEATURE_DIM, StateDot, extract_action_features, extract_features  # noqa: F401
from .fileio import atomic_open, read_text
from .tableau import TableauState

__all__ = [
    "entropy", "normalized_entropy", "softmax_temperature", "check_distribution", "sigmoid",
    "make_fixed_entropy_vector", "apply_order_preserving",
    "Predictor", "UniformPredictor", "LinearPredictor", "FixedEntropyPredictor",
    "predict", "save_model", "load_model",
]


def sigmoid(z: float) -> float:
    """Logistic function, saturating instead of overflowing at extreme z."""
    if z >= 0.0:
        return float(1.0 / (1.0 + math.exp(-z)))
    e = math.exp(z)
    return float(e / (1.0 + e))


def entropy(p: Sequence[float]) -> float:
    """Shannon entropy in nats, with the 0 * log 0 = 0 convention."""
    arr = np.asarray(p, dtype=float)
    nz = arr[arr > 0.0]
    return float(0.0 - np.sum(nz * np.log(nz)))


def normalized_entropy(p: Sequence[float]) -> float:
    """Entropy divided by its maximum ln(n); a length-1 distribution has
    no uncertainty, so its normalized entropy is 0."""
    n = len(p)
    if n <= 1:
        return 0.0
    return entropy(p) / math.log(n)


def softmax_temperature(logits: Sequence[float], temperature: float = 1.0) -> np.ndarray:
    """Softmax over the last axis: one distribution, or one per row of a
    2-D array.  A row sums as a 1-D vector of its length does, so each
    row's distribution is, to the bit, that of the row on its own.  The
    maximum is subtracted before dividing by the temperature, so a tiny
    one gives lower logits probability 0, not NaN; neither its overflow
    nor the NaN of an infinite maximum warns."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(logits, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp((arr - arr.max(axis=-1, keepdims=True)) / temperature)
    return e / e.sum(axis=-1, keepdims=True)


def check_distribution(predictor: Predictor, probs: Sequence[float]) -> None:
    """Raises ``ValueError`` naming the predictor's class when ``probs``
    holds a NaN or an infinity, as their sum then shows."""
    if not math.isfinite(sum(probs)):
        raise ValueError(f"{type(predictor).__name__} scored a distribution over "
                         f"{len(probs)} actions that is not finite")


def make_fixed_entropy_vector(n: int, target: float, seed: int) -> np.ndarray:
    """Random distribution of length n with normalized entropy equal to
    ``target`` within 1e-6.

    One logit vector is drawn from a generator seeded by (seed, n); the
    softmax temperature is then bisected, using that normalized entropy
    is continuous and nondecreasing in temperature for fixed logits.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target normalized entropy must be in (0, 1], got {target}")
    if target == 1.0:
        return np.full(n, 1.0 / n)
    rng = np.random.default_rng((seed, n))
    logits = rng.standard_normal(n)
    if len(np.unique(logits)) < n:
        logits = logits + 1e-9 * np.arange(n)
    lo, hi = 1e-6, 1e9
    p = softmax_temperature(logits, hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        p = softmax_temperature(logits, mid)
        h = normalized_entropy(p)
        # converge well past the documented 1e-6 so callers see margin
        if abs(h - target) <= 1e-9:
            break
        if h < target:
            lo = mid
        else:
            hi = mid
    return p


def apply_order_preserving(fixed: Sequence[float], reference: Sequence[float]) -> np.ndarray:
    """Permute ``fixed`` so its descending ranks line up with the
    descending ranks of ``reference`` (reference ties broken by index).
    A reference entry that is not finite has no rank and raises
    ``ValueError``."""
    fixed = np.asarray(fixed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if fixed.shape != reference.shape:
        raise ValueError(f"length mismatch: {fixed.shape} vs {reference.shape}")
    bad = np.flatnonzero(~np.isfinite(reference))
    if bad.size:
        raise ValueError(f"reference entry {bad[0]} is {reference[bad[0]]}, not finite")
    order = np.argsort(-reference, kind="stable")
    out = np.empty_like(fixed)
    out[order] = np.sort(fixed)[::-1]
    return out


# ---------------------------------------------------------------------------
# predictors


def _sparse_dot(weights: Dict[int, float], features: Dict[int, int]) -> float:
    """Adds ``weights[i] * c`` one term at a time in the features' order,
    a missing weight reading 0.0 (``sum`` would compensate Python floats
    on Python 3.12 and later).  A sum that starts at +0.0 never becomes
    -0.0, so a weight of 0.0 and a missing one score the same bits."""
    weight = weights.get
    total = 0.0
    for i, c in features.items():
        total += weight(i, 0.0) * c
    return total


class Predictor:
    """Scoring interface: per-action logits plus a state value in [0, 1].

    ``predict_policy`` scores the actions' feature maps and
    ``predict_value`` scores a search state, which each predictor reads
    as it needs; hashed state features are extracted only for training.
    ``temperature`` is applied by :func:`predict` when turning logits
    into a distribution.

    ``reads_state`` and ``reads_actions`` declare whether the value
    depends on the state and the logits on the action features.  When
    ``reads_actions`` is false, :func:`predict` skips that extraction and
    passes one ``{}`` per action instead, so a predictor must score those
    exactly as it would the real ones; a search that meets two states
    with the same action count scores them alike when neither is read.
    The base class reads both.  A predictor is fixed once built: its
    declarations and temperature are plain attributes set then, and its
    scores never change after.
    """

    temperature: float = 1.0
    reads_state: bool = True
    reads_actions: bool = True

    def predict_policy(self, action_features: List[Dict[int, int]]) -> np.ndarray:
        raise NotImplementedError

    def predict_value(self, state: TableauState) -> float:
        raise NotImplementedError


class UniformPredictor(Predictor):
    """Zero logits and value 1/2: the unguided baseline."""

    reads_state = False
    reads_actions = False

    def predict_policy(self, action_features):
        return np.zeros(len(action_features))

    def predict_value(self, state):
        return 0.5


class LinearPredictor(Predictor):
    """Linear model over hashed features: each action logit is a sparse
    dot product with the policy weights, the value is a logistic of the
    state features' dot product with the value weights.  Weights are
    sparse, feature index -> weight, a missing index weighing 0.0.  The
    predictor keeps its own copies of the nonzero weights it is given, so
    changing those afterwards changes none of its scores, and it declares
    its reads then: no nonzero weight, no read.  ``policy_weights`` and
    ``value_weights`` are read-only views of those copies.

    The value's dot product is a :class:`~contab.features.StateDot` built
    with the predictor: a sum of per-literal partial logits, memoized for
    the predictor's life (a copy shares the memo), so it matches
    ``sigmoid(_sparse_dot(value_weights, extract_features(state)))`` up
    to rounding."""

    def __init__(self, policy_weights: Optional[Dict[int, float]] = None,
                 value_weights: Optional[Dict[int, float]] = None,
                 temperature: float = 1.0):
        if not 0.0 < temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {temperature}")
        self._policy, self._value = (
            {i: float(v) for i, v in (w or {}).items() if v}
            for w in (policy_weights, value_weights))
        self.temperature = temperature
        self.reads_state = bool(self._value)
        self.reads_actions = bool(self._policy)
        self.value_dot = StateDot(self._value)

    @property
    def policy_weights(self) -> Mapping[int, float]:
        return MappingProxyType(self._policy)

    @property
    def value_weights(self) -> Mapping[int, float]:
        return MappingProxyType(self._value)

    def predict_policy(self, action_features):
        return np.array([_sparse_dot(self._policy, af) for af in action_features])

    def predict_value(self, state):
        return sigmoid(self.value_dot(state)) if self.reads_state else 0.5


class FixedEntropyPredictor(Predictor):
    """Replaces a base predictor's distribution with a fixed random one
    of the same length and a pinned normalized entropy, permuted so the
    base's action ordering is preserved.  Values still come from the
    base predictor.

    The vector for each action count is built on first use and cached;
    it depends only on the count, the target and the seed.
    """

    def __init__(self, base: Predictor, target: float, seed: int):
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target normalized entropy must be in (0, 1], got {target}")
        self.base = base
        self.target = target
        self.seed = seed
        self.cache: Dict[int, np.ndarray] = {}
        self.reads_state = base.reads_state
        self.reads_actions = base.reads_actions

    def vector_for(self, n: int) -> np.ndarray:
        if n not in self.cache:
            self.cache[n] = make_fixed_entropy_vector(n, self.target, self.seed)
        return self.cache[n]

    def predict_policy(self, action_features):
        n = len(action_features)
        if n < 2:
            return np.zeros(n)
        base_logits = self.base.predict_policy(action_features)
        reference = softmax_temperature(base_logits, self.base.temperature)
        check_distribution(self.base, reference)
        probs = apply_order_preserving(self.vector_for(n), reference)
        # logits = ln p reproduce p exactly under softmax at T = 1
        return np.log(probs)

    def predict_value(self, state):
        return self.base.predict_value(state)


def predict(predictor: Predictor, state, actions, matrix) -> Tuple[Optional[np.ndarray], float]:
    """Returns (distribution over ``actions``, value estimate).  The
    distribution is None when there are no actions, and exactly ``[1.0]``
    for one action, which the softmax of any finite logit gives, so no
    action is scored then.  Action features are extracted only for a
    predictor that declares it reads them."""
    value = min(1.0, max(0.0, predictor.predict_value(state)))
    if not actions:
        return None, value
    if len(actions) == 1:
        return np.ones(1), value
    if predictor.reads_actions:
        afs = [extract_action_features(state, a, matrix) for a in actions]
    else:
        afs = [{}] * len(actions)
    logits = predictor.predict_policy(afs)
    return softmax_temperature(logits, predictor.temperature), value


# ---------------------------------------------------------------------------
# model files

MODEL_MAGIC = "contab-model v1"


def save_model(path, kind: str, weights: Mapping[int, float],
               temperature: float = 1.0, alpha: float = 0.0) -> None:
    """Writes the nonzero weights of the sparse map ``weights``, feature
    index -> weight, in ascending index order.  An index outside
    ``[0, FEATURE_DIM)``, which :func:`load_model` would refuse, raises
    ``ValueError`` naming ``path`` before the file is created."""
    if kind not in ("policy", "value"):
        raise ValueError(f"kind must be 'policy' or 'value', got {kind!r}")
    nz = sorted(i for i, w in weights.items() if w)
    outside = [i for i in nz if not 0 <= i < FEATURE_DIM]
    if outside:
        raise ValueError(f"{path}: weight index {outside[0]} outside [0, {FEATURE_DIM})")
    with atomic_open(path) as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"kind {kind}\n")
        fh.write(f"dim {FEATURE_DIM}\n")
        fh.write(f"temperature {float(temperature)!r}\n")
        fh.write(f"alpha {float(alpha)!r}\n")
        fh.write(f"nonzero {len(nz)}\n")
        for i in nz:
            fh.write(f"{int(i)} {float(weights[i])!r}\n")


def load_model(path) -> Tuple[str, Dict[int, float], float, float]:
    """Returns (kind, sparse weights in file order, temperature, alpha); a
    damaged file, one whose dim is not ``FEATURE_DIM`` or one whose
    temperature is not positive raises ``ValueError`` naming it."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a recognized model file")
    header = {}
    body_at = 1
    for i, ln in enumerate(lines[1:], start=1):
        key, _, val = ln.partition(" ")
        header[key] = val
        if key == "nonzero":
            body_at = i + 1
            break
    if not {"kind", "dim", "temperature", "alpha", "nonzero"} <= header.keys():
        raise ValueError(f"{path}: model header lacks a kind, dim, temperature, alpha "
                         f"or nonzero line")
    try:
        dim, nonzero = int(header["dim"]), int(header["nonzero"])
        temperature, alpha = float(header["temperature"]), float(header["alpha"])
        entries = [(int(idx), float(val)) for idx, val in (ln.split() for ln in lines[body_at:] if ln)]
    except ValueError as e:
        raise ValueError(f"{path}: malformed model file: {e}") from None
    if dim != FEATURE_DIM:
        raise ValueError(f"{path}: model dim {dim} is not the feature dimension {FEATURE_DIM}")
    if len(entries) != nonzero:
        raise ValueError(f"{path}: header counts {nonzero} weights, {len(entries)} follow")
    if len({idx for idx, _ in entries}) != nonzero:
        raise ValueError(f"{path}: a weight index is given twice")
    if not np.isfinite([temperature, alpha] + [val for _, val in entries]).all():
        raise ValueError(f"{path}: a weight, the temperature or alpha is not finite")
    if temperature <= 0.0:
        raise ValueError(f"{path}: temperature {temperature!r} is not positive")
    for idx, _ in entries:
        if not 0 <= idx < dim:
            raise ValueError(f"{path}: weight index {idx} outside dim {dim}")
    return header["kind"], dict(entries), temperature, alpha
