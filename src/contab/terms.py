"""First-order terms, literals, clauses and unification.

Representation is chosen for speed in the inner proving loop:

* variables are plain non-negative ints,
* compound terms are tuples ``(symbol, arg1, ..., argn)`` with an interned
  string symbol; constants are 1-tuples like ``('a',)``,
* substitutions are dicts mapping variable ids to terms, kept triangular
  (a binding may mention other bound variables) and dereferenced on use.

Equality uses the reserved predicate name ``"="``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union

EQ = "="

Term = Union[int, tuple]
Subst = dict


class Literal(NamedTuple):
    neg: bool
    pred: str
    args: tuple


class Matrix:
    """Clausal form of a problem: clauses, each a tuple of :class:`Literal`
    whose id is its index in ``clauses``, plus start-clause ids.

    ``reflexivity_id`` marks an automatically added ``X = X`` clause (present
    only when the problem mentions equality); it is excluded from
    paramodulation enumeration.  ``var_counts`` holds each clause's
    variable count, as ``clause_var_count`` gives it; a producer that
    knows the counts hands them over, else they are counted here.  A
    start or reflexivity id that names no clause raises ``ValueError``."""

    def __init__(self, clauses, start_ids, reflexivity_id=None, var_counts=None):
        self.clauses = list(clauses)
        self.start_ids = list(start_ids)
        self.reflexivity_id = reflexivity_id
        if var_counts is None:
            var_counts = [clause_var_count(c) for c in self.clauses]
        elif len(var_counts) != len(self.clauses):
            raise ValueError("one variable count per clause is needed")
        self.var_counts = list(var_counts)
        if not self.start_ids:
            raise ValueError("matrix needs at least one start clause")
        for cid in self.start_ids + [reflexivity_id]:
            if cid is not None and not 0 <= cid < len(self.clauses):
                raise ValueError(f"clause id {cid} is outside [0, {len(self.clauses)})")

    def dump(self) -> str:
        return matrix_dump(self)


def is_var(t: Term) -> bool:
    return type(t) is int


def head(t: Term) -> Optional[tuple]:
    """(symbol, arity) of a compound term or constant; None for a variable.

    Two non-variable terms with different heads never unify, whatever the
    substitution, since bindings replace variables only."""
    return None if type(t) is int else (t[0], len(t) - 1)


# ---------------------------------------------------------------------------
# substitution machinery


def walk(t: Term, subst: Subst) -> Term:
    """Dereference a variable through the substitution chain."""
    while type(t) is int:
        b = subst.get(t)
        if b is None:
            return t
        t = b
    return t


def apply_subst(t: Term, subst: Subst, free: Optional[list] = None) -> Term:
    """Fully dereference a term under ``subst``.

    When ``free`` is a list, every unbound variable met is appended to it,
    so the result is ground exactly when ``free`` stays empty.
    """
    while type(t) is int:
        b = subst.get(t)
        if b is None:
            if free is not None:
                free.append(t)
            return t
        t = b
    if len(t) == 1:
        return t
    out = [t[0]]
    for a in t[1:]:
        out.append(apply_subst(a, subst, free))
    return tuple(out)


def apply_subst_lit(lit: Literal, subst: Subst, free: Optional[list] = None) -> Literal:
    """:func:`apply_subst` over a literal's arguments."""
    if not subst and free is None:
        return lit
    return Literal(lit.neg, lit.pred, tuple([apply_subst(a, subst, free) for a in lit.args]))


def occurs(v: int, t: Term, subst: Subst) -> bool:
    t = walk(t, subst)
    if type(t) is int:
        return t == v
    return any(occurs(v, a, subst) for a in t[1:])


def unify_terms_trail(a: Term, b: Term, subst: Subst, trail: list) -> bool:
    """Extend ``subst`` to a most general unifier of two terms, with the
    occurs check; False when there is none.

    This is the only unifier.  Bindings are written into ``subst``
    directly and recorded on ``trail``; the caller undoes a failed or
    speculative attempt with :func:`undo_trail`, or passes a copy.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = walk(x, subst)
        y = walk(y, subst)
        if x is y or x == y:
            continue
        if type(x) is int:
            if occurs(x, y, subst):
                return False
            subst[x] = y
            trail.append(x)
        elif type(y) is int:
            if occurs(y, x, subst):
                return False
            subst[y] = x
            trail.append(y)
        else:
            if x[0] != y[0] or len(x) != len(y):
                return False
            stack.extend(zip(x[1:], y[1:]))
    return True


def unify_args_trail(a: tuple, b: tuple, subst: Subst, trail: list) -> bool:
    for x, y in zip(a, b):
        if not unify_terms_trail(x, y, subst, trail):
            return False
    return True


def undo_trail(subst: Subst, trail: list):
    """Remove every binding the trail records, emptying it."""
    while trail:
        del subst[trail.pop()]


def term_vars(t: Term, acc=None) -> set:
    if acc is None:
        acc = set()
    if type(t) is int:
        acc.add(t)
    else:
        for a in t[1:]:
            term_vars(a, acc)
    return acc


# ---------------------------------------------------------------------------
# standardizing apart


def offset_term(t: Term, k: int) -> Term:
    if type(t) is int:
        return t + k
    if len(t) == 1:
        return t
    return (t[0],) + tuple(offset_term(a, k) for a in t[1:])


def offset_literal(lit: Literal, k: int) -> Literal:
    if not lit.args or k == 0:
        return lit
    return Literal(lit.neg, lit.pred, tuple(offset_term(a, k) for a in lit.args))


def clause_var_count(clause: tuple) -> int:
    vs: set = set()
    for lit in clause:
        for a in lit.args:
            term_vars(a, vs)
    return max(vs) + 1 if vs else 0


# ---------------------------------------------------------------------------
# positions

Position = tuple


def subterm_positions(lit: Literal) -> list:
    """All (position, subterm) pairs of a literal's arguments, in
    left-to-right, outside-in order.  A position starts at the argument
    index (1-based); the atom itself has no position."""
    out: list = []

    def rec(t: Term, pos: tuple):
        out.append((pos, t))
        if type(t) is not int:
            for i, a in enumerate(t[1:], start=1):
                rec(a, pos + (i,))

    for i, a in enumerate(lit.args, start=1):
        rec(a, (i,))
    return out


def subterm_at(lit: Literal, pos: Position) -> Term:
    """The subterm of a literal at ``pos``, which must be a position that
    ``subterm_positions`` gives for it; no other position is checked."""
    t = lit.args[pos[0] - 1]
    for i in pos[1:]:
        t = t[i]
    return t


def replace_at(lit: Literal, pos: Position, new: Term) -> Literal:
    """The literal with the subterm at ``pos``, a position ``subterm_at``
    accepts, replaced by ``new``."""

    def rec(t: Term, p: tuple) -> Term:
        if not p:
            return new
        i = p[0]
        return t[:i] + (rec(t[i], p[1:]),) + t[i + 1 :]

    i = pos[0] - 1
    args = lit.args[:i] + (rec(lit.args[i], pos[1:]),) + lit.args[i + 1 :]
    return Literal(lit.neg, lit.pred, args)


# ---------------------------------------------------------------------------
# printing


def term_str(t: Term, names=None) -> str:
    if type(t) is int:
        return f"X{t}" if names is None else names.get(t, f"X{t}")
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(term_str(a, names) for a in t[1:])})"


def literal_str(lit: Literal, names=None) -> str:
    if lit.pred == EQ and len(lit.args) == 2:
        op = "!=" if lit.neg else "="
        return f"{term_str(lit.args[0], names)} {op} {term_str(lit.args[1], names)}"
    s = lit.pred if not lit.args else f"{lit.pred}({','.join(term_str(a, names) for a in lit.args)})"
    return f"~{s}" if lit.neg else s


def canonical_clause_str(clause: tuple) -> str:
    """Clause text with variables renumbered 0.. in order of first use."""
    names: dict = {}
    for lit in clause:
        for a in lit.args:
            for v in _var_order(a):
                if v not in names:
                    names[v] = f"X{len(names)}"
    return " | ".join(literal_str(lit, names) for lit in clause)


def _var_order(t: Term) -> Iterator[int]:
    if type(t) is int:
        yield t
    else:
        for a in t[1:]:
            yield from _var_order(a)


def matrix_dump(matrix: Matrix) -> str:
    """Deterministic text form: one clause per line, canonical variables."""
    lines = []
    starts = set(matrix.start_ids)
    for cid, c in enumerate(matrix.clauses):
        tag = " start" if cid in starts else ""
        lines.append(f"clause {cid}{tag}: {canonical_clause_str(c)}")
    return "\n".join(lines) + "\n"
