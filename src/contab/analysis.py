"""Cross-predictor comparison over a fixed bank of search states.

The bank holds states an unguided search visited, each encoded as the
action path that reaches it from the root, so any predictor can later be
asked for its distribution over the exact same canonical action list.
Comparison metrics: same most-probable action (Best), same full ordering
(Order), and mean KL divergence in both directions with infinite terms
excluded from the mean and counted separately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fileio import atomic_open
from .policy import Predictor, UniformPredictor, check_distribution, predict
from .search import SearchLimits, prove
from .tableau import Engine, IllegalActionError, decode_action

BANK_MAGIC = "contab-bank v1"


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Relative entropy KL(P || Q) in nats; 0 log 0 = 0, and any P > 0
    where Q = 0 makes the result infinite."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass
class BankEntry:
    problem: str
    path: Tuple[str, ...]
    n_actions: int


def harvest_states(problems: Sequence[Tuple[str, Engine]],
                   limits: Optional[SearchLimits] = None) -> List[BankEntry]:
    """Runs the uniform predictor over every problem and returns the bank:
    a :class:`BankEntry` for each expanded state with at least two legal
    actions, identified by its action path.  Per-problem contribution is
    capped inside the search; paths are already unique per expansion,
    deduplication here guards against replays of the same problem list."""
    limits = limits or SearchLimits()
    bank: List[BankEntry] = []
    seen = set()
    for name, engine in problems:
        result = prove(engine, name, UniformPredictor(), limits, collect_states=True)
        for path, n_actions in result.harvested:
            key = (name, path)
            if key in seen:
                continue
            seen.add(key)
            bank.append(BankEntry(name, path, n_actions))
        result.drop_tree()
    return bank


def save_bank(path, bank: Sequence[BankEntry]) -> None:
    with atomic_open(path) as fh:
        fh.write(BANK_MAGIC + "\n")
        for e in bank:
            encoded = ";".join(e.path) if e.path else "-"
            fh.write(f"{e.problem}\t{encoded}\t{e.n_actions}\n")


def load_bank(path) -> List[BankEntry]:
    """The bank's entries in file order.  A malformed line, or a state with
    fewer than two actions (harvest records none), raises ``ValueError``
    naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != BANK_MAGIC:
        raise ValueError(f"{path}: not a recognized state-bank file")
    bank: List[BankEntry] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        try:
            problem, encoded, n = ln.split("\t")
            entry = BankEntry(problem, () if encoded == "-" else tuple(encoded.split(";")), int(n))
            if entry.n_actions < 2:
                raise ValueError(f"a bank state has at least 2 actions, got {entry.n_actions}")
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        bank.append(entry)
    return bank


def replay_entry(engine: Engine, entry: BankEntry):
    """The state :meth:`Engine.replay` reaches along the entry's path; a
    step that does not decode or is not legal raises ``ValueError`` naming
    the problem and the 1-based step."""
    actions = []
    for step, encoded in enumerate(entry.path, start=1):
        try:
            actions.append(decode_action(encoded))
        except ValueError as e:
            raise ValueError(f"{entry.problem}: bank step {step} {encoded!r}: {e}") from None
    try:
        return engine.replay(actions)
    except IllegalActionError as e:
        raise ValueError(f"{entry.problem}: bank step {e.step + 1} {e}") from None


@dataclass
class AgreementReport:
    best: float
    order: float
    kl_ab: float
    kl_ba: float
    states: int
    infinite_ab: int = 0
    infinite_ba: int = 0


RANK_TOL = 1e-9


def rank_groups(p: Sequence[float]) -> np.ndarray:
    """Descending rank of every entry, with entries closer than
    ``RANK_TOL`` sharing a rank.  Collapsing float-noise ties keeps rank
    comparisons invariant under monotone transformations such as
    temperature rescaling, which preserve order exactly in real arithmetic
    but can turn an ulp-sized gap into an exact tie in floats."""
    p = np.asarray(p, dtype=float)
    order = np.argsort(-p, kind="stable")
    ranks = np.empty(len(p), dtype=int)
    group = 0
    prev = None
    for i in order:
        if prev is not None and prev - p[i] > RANK_TOL:
            group += 1
        ranks[i] = group
        prev = p[i]
    return ranks


def compare(pred_a: Predictor, pred_b: Predictor, bank: Sequence[BankEntry],
            engines: Dict[str, Engine]) -> AgreementReport:
    """Evaluates both predictors on every bank state over the identical
    canonical action list.  Sums are reduced sequentially in bank order
    so the report is bit-stable.  A distribution that is not finite
    raises ``ValueError`` naming its predictor."""
    best_hits = order_hits = 0
    kl_ab_sum = kl_ba_sum = 0.0
    inf_ab = inf_ba = 0
    for entry in bank:
        engine = engines[entry.problem]
        state = replay_entry(engine, entry)
        actions = engine.legal_actions(state)
        if len(actions) != entry.n_actions:
            raise ValueError(
                f"bank entry for {entry.problem} expects {entry.n_actions} actions, "
                f"replay produced {len(actions)}; bank and matrix disagree")
        pa, _ = predict(pred_a, state, actions, engine.matrix)
        pb, _ = predict(pred_b, state, actions, engine.matrix)
        check_distribution(pred_a, pa)
        check_distribution(pred_b, pb)
        ranks_a = rank_groups(pa)
        ranks_b = rank_groups(pb)
        # ties resolve to the lowest index before comparing favorites
        if int(np.argmax(ranks_a == 0)) == int(np.argmax(ranks_b == 0)):
            best_hits += 1
        if np.array_equal(ranks_a, ranks_b):
            order_hits += 1
        d = kl_divergence(pa, pb)
        if math.isinf(d):
            inf_ab += 1
        else:
            kl_ab_sum += d
        d = kl_divergence(pb, pa)
        if math.isinf(d):
            inf_ba += 1
        else:
            kl_ba_sum += d
    n = len(bank)
    return AgreementReport(
        best=best_hits / n if n else 0.0,
        order=order_hits / n if n else 0.0,
        kl_ab=kl_ab_sum / (n - inf_ab) if n > inf_ab else 0.0,
        kl_ba=kl_ba_sum / (n - inf_ba) if n > inf_ba else 0.0,
        states=n,
        infinite_ab=inf_ab,
        infinite_ba=inf_ba)


# ---------------------------------------------------------------------------
# CSV reports


def format_cell(value) -> str:
    """Floats get two decimals (the entropy/KL convention), integers and
    strings pass through."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.2f}"
    return str(value)


def report_csv(path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


AGREEMENT_COLUMNS = ["comparison", "states", "best", "order",
                     "kl_ab", "kl_ba", "infinite_ab", "infinite_ba"]


def agreement_rows(reports: Sequence[Tuple[str, AgreementReport]]) -> List[List]:
    rows = []
    for label, r in reports:
        rows.append([label, r.states, r.best, r.order, r.kl_ab, r.kl_ba,
                     r.infinite_ab, r.infinite_ba])
    return rows
