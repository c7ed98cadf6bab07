"""Probability-vector mathematics and action-scoring predictors.

Entropy, normalized entropy, and tempered softmax all use the natural
logarithm.  Predictors map hashed state/action features to action logits
and a state value; the built-ins are a uniform baseline, a linear model
over the hashed features, and a fixed-normalized-entropy random policy
that keeps a base predictor's action ordering while pinning the
distribution's normalized entropy to a chosen target.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import FEATURE_DIM, extract_action_features, extract_features

__all__ = [
    "entropy", "normalized_entropy", "softmax_temperature", "sigmoid",
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
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(logits, dtype=float) / temperature
    arr = arr - arr.max()
    e = np.exp(arr)
    return e / e.sum()


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
    descending ranks of ``reference`` (reference ties broken by index)."""
    fixed = np.asarray(fixed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if fixed.shape != reference.shape:
        raise ValueError(f"length mismatch: {fixed.shape} vs {reference.shape}")
    order = np.argsort(-reference, kind="stable")
    out = np.empty_like(fixed)
    out[order] = np.sort(fixed)[::-1]
    return out


# ---------------------------------------------------------------------------
# predictors


def _sparse_dot(weights: np.ndarray, features: Dict[int, int]) -> float:
    return float(sum(weights[i] * c for i, c in features.items()))


class Predictor:
    """Scoring interface: per-action logits plus a state value in [0, 1].

    ``temperature`` is applied by :func:`predict` when turning logits
    into a distribution.

    ``reads_state`` and ``reads_actions`` declare whether the scores
    depend on the state features and on the action features.  When one
    is false, :func:`predict` skips that extraction and passes empty
    feature maps instead (``{}`` for the state, one ``{}`` per action),
    so a predictor must score those exactly as it would the real ones.
    The base class reads both.
    """

    temperature: float = 1.0
    reads_state: bool = True
    reads_actions: bool = True

    def predict_policy(self, features: Dict[int, int],
                       action_features: List[Dict[int, int]]) -> np.ndarray:
        raise NotImplementedError

    def predict_value(self, features: Dict[int, int]) -> float:
        raise NotImplementedError


class UniformPredictor(Predictor):
    """Zero logits and value 1/2: the unguided baseline."""

    reads_state = False
    reads_actions = False

    def __init__(self, temperature: float = 1.0):
        self.temperature = temperature

    def predict_policy(self, features, action_features):
        return np.zeros(len(action_features))

    def predict_value(self, features):
        return 0.5


class LinearPredictor(Predictor):
    """Linear model over hashed features: each action logit is a sparse
    dot product with the policy weights, the value is a logistic of the
    state-feature dot product."""

    def __init__(self, policy_weights: Optional[np.ndarray] = None,
                 value_weights: Optional[np.ndarray] = None,
                 temperature: float = 1.0, dim: int = FEATURE_DIM):
        self.dim = dim
        self.policy_weights = (np.zeros(dim) if policy_weights is None
                               else np.asarray(policy_weights, dtype=float))
        self.value_weights = (np.zeros(dim) if value_weights is None
                              else np.asarray(value_weights, dtype=float))
        if self.policy_weights.shape != (dim,) or self.value_weights.shape != (dim,):
            raise ValueError("weight vectors must match the feature dimension")
        self.temperature = temperature

    @property
    def reads_state(self) -> bool:
        # all-zero weights score every state 0, features or not
        return bool(self.value_weights.any())

    @property
    def reads_actions(self) -> bool:
        return bool(self.policy_weights.any())

    def predict_policy(self, features, action_features):
        return np.array([_sparse_dot(self.policy_weights, af) for af in action_features])

    def predict_value(self, features):
        return sigmoid(_sparse_dot(self.value_weights, features))


class FixedEntropyPredictor(Predictor):
    """Replaces a base predictor's distribution with a fixed random one
    of the same length and a pinned normalized entropy, permuted so the
    base's action ordering is preserved.  Values still come from the
    base predictor.

    Vectors for lengths 2..max_cached are built eagerly so prediction is
    read-only afterwards; longer action lists fall back to on-demand
    construction, which is deterministic regardless.
    """

    def __init__(self, base: Predictor, target: float, seed: int, max_cached: int = 128):
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target normalized entropy must be in (0, 1], got {target}")
        self.base = base
        self.target = target
        self.seed = seed
        self.temperature = 1.0
        self.cache: Dict[int, np.ndarray] = {
            n: make_fixed_entropy_vector(n, target, seed) for n in range(2, max_cached + 1)
        }

    @property
    def reads_state(self) -> bool:
        return self.base.reads_state

    @property
    def reads_actions(self) -> bool:
        return self.base.reads_actions

    def vector_for(self, n: int) -> np.ndarray:
        if n not in self.cache:
            self.cache[n] = make_fixed_entropy_vector(n, self.target, self.seed)
        return self.cache[n]

    def predict_policy(self, features, action_features):
        n = len(action_features)
        if n == 0:
            return np.zeros(0)
        if n == 1:
            return np.zeros(1)
        base_logits = self.base.predict_policy(features, action_features)
        reference = softmax_temperature(base_logits, self.base.temperature)
        probs = apply_order_preserving(self.vector_for(n), reference)
        # logits = ln p reproduce p exactly under softmax at T = 1
        return np.log(probs)

    def predict_value(self, features):
        return self.base.predict_value(features)


def predict(predictor: Predictor, state, actions, matrix) -> Tuple[Optional[np.ndarray], float]:
    """Feature-extraction glue: returns (distribution over ``actions``,
    value estimate).  The distribution is None when there are no actions.
    Only the features the predictor declares it reads are extracted."""
    features = extract_features(state) if predictor.reads_state else {}
    value = min(1.0, max(0.0, predictor.predict_value(features)))
    if not actions:
        return None, value
    if predictor.reads_actions:
        afs = [extract_action_features(state, a, matrix) for a in actions]
    else:
        afs = [{}] * len(actions)
    logits = predictor.predict_policy(features, afs)
    return softmax_temperature(logits, predictor.temperature), value


# ---------------------------------------------------------------------------
# model files

MODEL_MAGIC = "contab-model v1"


def save_model(path, kind: str, weights: np.ndarray, temperature: float = 1.0,
               alpha: float = 0.0) -> None:
    if kind not in ("policy", "value"):
        raise ValueError(f"kind must be 'policy' or 'value', got {kind!r}")
    nz = np.nonzero(weights)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"kind {kind}\n")
        fh.write(f"dim {len(weights)}\n")
        fh.write(f"temperature {float(temperature)!r}\n")
        fh.write(f"alpha {float(alpha)!r}\n")
        fh.write(f"nonzero {len(nz)}\n")
        for i in nz:
            fh.write(f"{int(i)} {float(weights[i])!r}\n")


def load_model(path) -> Tuple[str, np.ndarray, float, float]:
    """Returns (kind, weights, temperature, alpha)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
    kind = header["kind"]
    dim = int(header["dim"])
    weights = np.zeros(dim)
    for ln in lines[body_at:]:
        if not ln:
            continue
        idx, val = ln.split()
        weights[int(idx)] = float(val)
    return kind, weights, float(header["temperature"]), float(header["alpha"])
