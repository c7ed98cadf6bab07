"""Sparse hashed features for tableau states and actions.

Features are symbol walks of length one and two over literal trees:
every node symbol on its own, plus every parent-child symbol pair.
Variables all map to "*".  Each walk is tagged with a namespace (current
goal, path, other open goals, action target) and hashed with crc32 into
a fixed-dimension sparse count map.  crc32 keeps the hash stable across
processes, unlike the salted builtin hash.

The hashed walk indices of each instantiated literal are memoized per
namespace in a bounded LRU cache: searches meet the same few literals
over and over, and a literal's walks depend on nothing else.  The
instantiated literals themselves are kept per state
(:meth:`TableauState.instantiated`) and inherited from the parent state,
so a state pays only for the literals its last action added or bound.

:func:`extract_features` builds a state's count map for training.  A
search that needs only the dot product of one sparse weight map with it
takes it from :class:`StateDot`, literal by literal, without building
the map.
"""

from __future__ import annotations

import functools
import zlib
from collections import Counter
from itertools import chain
from typing import Dict, List, Tuple

from .tableau import Action, PARAMODULATION, REDUCTION, START, TableauState
from .terms import Literal, apply_subst_lit, is_var

FEATURE_DIM = 2 ** 15
WALK_CACHE_SIZE = 2 ** 12
PRESTART = "<prestart>"


def _sym(t) -> str:
    return "*" if is_var(t) else t[0]


def _term_walks(t, parent: str, out: List[str]) -> None:
    s = _sym(t)
    out.append(s)
    out.append(parent + ">" + s)
    if not is_var(t):
        for arg in t[1:]:
            _term_walks(arg, s, out)


def _root(lit: Literal) -> str:
    neg, pred, _ = lit
    return "~" + pred if neg else pred


def literal_walks(lit: Literal) -> List[str]:
    root = _root(lit)
    out = [root]
    for arg in lit[2]:
        _term_walks(arg, root, out)
    return out


def _hash(feature: str) -> int:
    return zlib.crc32(feature.encode("utf-8")) & (FEATURE_DIM - 1)


def _add(counts: Dict[int, int], namespace: str, walks) -> None:
    for w in walks:
        idx = _hash(namespace + w)
        counts[idx] = counts.get(idx, 0) + 1


@functools.lru_cache(maxsize=WALK_CACHE_SIZE)
def _literal_indices(namespace: str, lit: Literal) -> Tuple[int, ...]:
    return tuple(_hash(namespace + w) for w in literal_walks(lit))


def _add_literal(counts: Dict[int, int], namespace: str, lit: Literal) -> None:
    for idx in _literal_indices(namespace, lit):
        counts[idx] = counts.get(idx, 0) + 1


def extract_features(state: TableauState) -> Dict[int, int]:
    """Hashed walk counts over the current goal (g:), its path (p:), and
    the remaining open goals (o:), keyed in order of first occurrence."""
    if not state.started:
        return {_hash("g:" + PRESTART): 1}
    goals, path = state.instantiated()
    walks = [_literal_indices("g:", goals[0][0])] if goals else []
    walks += [_literal_indices("o:", lit) for lit, _ in goals[1:]]
    walks += [_literal_indices("p:", lit) for lit, _ in path]
    return dict(Counter(chain.from_iterable(walks)))


class LiteralSums(dict):
    """Memo: literal -> the sum of the sparse ``weights`` (feature index
    -> weight, a missing index weighing 0.0) over the literal's walk
    indices in ``namespace``, added one term at a time.  It is cleared
    when it holds ``WALK_CACHE_SIZE`` literals, so it stays bounded."""

    def __init__(self, weights: Dict[int, float], namespace: str):
        super().__init__()
        self.weights = weights
        self.namespace = namespace

    def __missing__(self, lit: Literal) -> float:
        if len(self) >= WALK_CACHE_SIZE:
            self.clear()
        weight = self.weights.get
        total = 0.0
        for idx in _literal_indices(self.namespace, lit):
            total += weight(idx, 0.0)
        self[lit] = total
        return total


class StateDot:
    """The dot product of sparse weights (feature index -> weight) with a
    state's features, taken as :func:`extract_features` lays them out but
    without building the count map: the current goal's g: sum, then the
    other goals' o: sums, then the path's p: sums, each literal's sum
    memoized.  It adds the same terms as ``_sparse_dot(weights,
    extract_features(state))``, grouped by literal and one occurrence at
    a time, so the two agree up to rounding, not to the bit.  The weights
    must not change after."""

    def __init__(self, weights: Dict[int, float]):
        self.prestart = weights.get(_hash("g:" + PRESTART), 0.0)
        self.goal, self.other, self.path = (LiteralSums(weights, ns) for ns in ("g:", "o:", "p:"))

    def __call__(self, state: TableauState) -> float:
        if not state.started:
            return self.prestart
        goals, path = state.instantiated()
        total = 0.0
        if goals:
            total += self.goal[goals[0][0]]
            other = self.other
            for lit, _ in goals[1:]:
                total += other[lit]
        sums = self.path
        for lit, _ in path:
            total += sums[lit]
        return total


def extract_action_features(state: TableauState, action: Action, matrix) -> Dict[int, int]:
    """Hashed features of an action: its kind, the literal(s) it connects
    or rewrites with (t:), a goal-predicate/target-predicate pair (x:),
    and the rewrite direction for paramodulation."""
    counts = {_hash("a:" + action.kind): 1}

    if action.kind == START:
        for lit in matrix.clauses[action.clause_id]:
            _add_literal(counts, "t:", lit)
        return counts

    if action.kind == REDUCTION:
        target = apply_subst_lit(state.path[action.path_index], state.subst)
    else:
        target = matrix.clauses[action.clause_id][action.literal_index]
    _add_literal(counts, "t:", target)
    _add(counts, "x:", [_root(state.current_goal) + "|" + _root(target)])
    if action.kind == PARAMODULATION:
        _add(counts, "d:", [action.direction])
    return counts
