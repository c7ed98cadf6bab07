"""Sparse hashed features for tableau states and actions.

Features are symbol walks of length one and two over literal trees:
every node symbol on its own, plus every parent-child symbol pair.
Variables all map to "*".  Each walk is tagged with a namespace (current
goal, path, other open goals, action target) and hashed with crc32 into
a fixed-dimension sparse count map.  crc32 keeps the hash stable across
processes, unlike the salted builtin hash.

The hashed walk indices of each instantiated literal are memoized per
namespace in a bounded LRU cache: searches meet the same few literals
over and over, and a literal's walks depend on nothing else.
"""

from __future__ import annotations

import functools
import zlib
from typing import Dict, List, Tuple

from .tableau import Action, EXTENSION, PARAMODULATION, REDUCTION, START, TableauState
from .terms import Literal, apply_subst_lit, is_var

FEATURE_DIM = 2 ** 15
WALK_CACHE_SIZE = 2 ** 12


def _sym(t) -> str:
    return "*" if is_var(t) else t[0]


def _term_walks(t, parent: str, out: List[str]) -> None:
    s = _sym(t)
    out.append(s)
    out.append(parent + ">" + s)
    if not is_var(t):
        for arg in t[1:]:
            _term_walks(arg, s, out)


def literal_walks(lit: Literal) -> List[str]:
    root = ("~" if lit.neg else "") + lit.pred
    out = [root]
    for arg in lit.args:
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
    the remaining open goals (o:)."""
    counts: Dict[int, int] = {}
    if not state.started:
        _add(counts, "g:", ["<prestart>"])
        return counts
    subst = state.subst
    if state.goals:
        _add_literal(counts, "g:", apply_subst_lit(state.goals[0][0], subst))
        for lit, _ in state.goals[1:]:
            _add_literal(counts, "o:", apply_subst_lit(lit, subst))
    for lit in state.path:
        _add_literal(counts, "p:", apply_subst_lit(lit, subst))
    return counts


def extract_action_features(state: TableauState, action: Action, matrix) -> Dict[int, int]:
    """Hashed features of an action: its kind, the literal(s) it connects
    or rewrites with (t:), a goal-predicate/target-predicate pair (x:),
    and the rewrite direction for paramodulation."""
    counts: Dict[int, int] = {}
    _add(counts, "a:", [action.kind])
    goal = state.current_goal
    goal_root = "" if goal is None else ("~" if goal.neg else "") + goal.pred

    if action.kind == START:
        for lit in matrix.clauses[action.clause_id].literals:
            _add_literal(counts, "t:", lit)
        return counts

    if action.kind == REDUCTION:
        target = apply_subst_lit(state.path[action.path_index], state.subst)
    else:
        target = matrix.clauses[action.clause_id].literals[action.literal_index]
    _add_literal(counts, "t:", target)
    target_root = ("~" if target.neg else "") + target.pred
    _add(counts, "x:", [goal_root + "|" + target_root])
    if action.kind == PARAMODULATION:
        _add(counts, "d:", [action.direction])
    return counts
