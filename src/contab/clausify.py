"""Clausal preprocessing: negate the conjecture, Skolemize, and build the
clause matrix the prover searches over.

The matrix is the clause form of ``axioms AND NOT conjecture``; a closed
tableau over it refutes that conjunction.  Start clauses are the ones
derived from the conjecture (every clause when there is none).  When the
problem mentions equality a reflexivity clause ``X = X`` is appended so
equational goals can be discharged; paramodulation never rewrites with it.

Each formula is scanned once for its symbols and free variables; then one
recursive pass (``_clauses``) takes it to negation normal form,
Skolemizes and distributes, returning its clauses as lists of plain
``(neg, pred, args)`` triples over named variables.  An equivalence
``a <=> b`` is clausified as ``(a => b) & (b => a)`` without building
those nodes: ``a``, ``b``, ``b`` and ``a`` are clausified in that order,
each under its polarity in the expansion, so fresh variable and Skolem
names are the expansion's.  A clause's duplicate
literals are dropped with ``dict.fromkeys``, and ``_number_vars`` builds
each :class:`Literal` once, from a triple, with clause-local integer
variables numbered in first-use order; their count is the clause's
variable count, which the matrix carries so that the engine need not
count again.  Both passes dispatch on the exact node type.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from .terms import EQ, Literal, Matrix
from .tptp import (
    AnnotatedFormula,
    FAtom,
    FBin,
    FConst,
    FNeg,
    FQuant,
    parse_problem,
    parse_problem_file,
)


class ClausifyError(ValueError):
    pass


def clausify(formulas: Sequence[AnnotatedFormula]) -> Matrix:
    """Convert a problem's annotated formulas, as :func:`parse_problem`
    returns them, into a :class:`Matrix`."""
    # every symbol of the problem is read before the first Skolem name is made
    used_symbols: set = set()
    free_vars = [_scan(af.formula, frozenset(), used_symbols, set()) for af in formulas]
    ctx = _Ctx(used_symbols)
    clauses: List[tuple] = []
    start_ids: List[int] = []
    var_counts: List[int] = []
    for af, free in zip(formulas, free_vars):
        f = FQuant("!", tuple(sorted(free)), af.formula) if free else af.formula
        # conjectures are refuted; negated_conjecture and cnf inputs are
        # already in refutation form
        positive = not (af.lang == "fof" and af.role == "conjecture")
        is_start = af.role in ("conjecture", "negated_conjecture")
        for lits in _clauses(f, positive, {}, (), ctx):
            if not lits:
                raise ClausifyError("problem clausifies to an empty clause (degenerate input)")
            literals, nvars = _number_vars(dict.fromkeys(lits))
            if is_start:
                start_ids.append(len(clauses))
            clauses.append(literals)
            var_counts.append(nvars)

    if not clauses:
        raise ClausifyError("problem contains no clauses")
    if not start_ids:
        start_ids = list(range(len(clauses)))

    reflexivity_id = None
    # an equation the clauses lost (as in ``$true | a = b``) adds no
    # reflexivity clause
    if EQ in used_symbols and any(l.pred == EQ for c in clauses for l in c):
        reflexivity_id = len(clauses)
        clauses.append((Literal(False, EQ, (0, 0)),))
        var_counts.append(1)

    return Matrix(clauses, start_ids, reflexivity_id, var_counts)


def clausify_text(text: str) -> Matrix:
    return clausify(parse_problem(text))


def load_matrix(path) -> Matrix:
    """The matrix of the problem file ``path``.  Parsing and clausifying
    recurse once per level of nesting, so a formula or term nested past
    the recursion limit raises :class:`ClausifyError` saying so."""
    try:
        return clausify(parse_problem_file(path))
    except RecursionError:
        raise ClausifyError(f"a formula or term nests deeper than the recursion limit "
                            f"({sys.getrecursionlimit()}) allows") from None


# ---------------------------------------------------------------------------


class _Ctx:
    def __init__(self, used_symbols: set):
        self.fresh_var = 0
        self.skolem = 0
        self.used_symbols = used_symbols

    def new_var(self) -> str:
        self.fresh_var += 1
        return f"_V{self.fresh_var}"

    def new_skolem(self) -> str:
        while True:
            name = f"sk{self.skolem}"
            self.skolem += 1
            if name not in self.used_symbols:
                return name


def _scan(f, bound: frozenset, symbols: set, free: set) -> set:
    """Adds the predicate and function symbols of ``f`` to ``symbols`` and
    its variables not in ``bound`` to ``free``; returns ``free``."""
    kind = type(f)
    if kind is FAtom:
        symbols.add(f.pred)
        todo = list(f.args)
        while todo:
            t = todo.pop()
            if type(t) is str:
                if t not in bound:
                    free.add(t)
            else:
                symbols.add(t[0])
                todo.extend(t[1:])
    elif kind is FBin:
        _scan(f.left, bound, symbols, free)
        _scan(f.right, bound, symbols, free)
    elif kind is FNeg:
        _scan(f.sub, bound, symbols, free)
    elif kind is FQuant:
        _scan(f.sub, bound | set(f.vars), symbols, free)
    return free


def _clauses(f, positive: bool, env: dict, uvars: tuple, ctx: _Ctx) -> List[list]:
    """The clauses of ``f`` under ``positive`` polarity, each a list of
    ``(neg, pred, args)`` literals over named variables: negation normal
    form, Skolemization and distribution in one pass.  The left subformula
    is always clausified before the right one (an equivalence as its two
    implications), so fresh names follow the formula's text."""
    kind = type(f)
    if kind is FAtom:
        args = tuple([env.get(a, a) if type(a) is str else _subst_named(a, env) for a in f.args])
        return [[(not positive, f.pred, args)]]
    if kind is FBin:
        if f.op == "<=>":
            # (a => b) & (b => a), its four halves clausified in that order
            a1 = _clauses(f.left, not positive, env, uvars, ctx)
            b1 = _clauses(f.right, positive, env, uvars, ctx)
            b2 = _clauses(f.right, not positive, env, uvars, ctx)
            a2 = _clauses(f.left, positive, env, uvars, ctx)
            if positive:
                return [x + y for x in a1 for y in b1] + [x + y for x in b2 for y in a2]
            # ~(a => b) | ~(b => a), each negated implication a conjunction
            return [x + y for x in a1 + b1 for y in b2 + a2]
        if f.op not in ("&", "|", "=>"):
            raise ClausifyError(f"unknown connective {f.op!r}")
        # a => b is ~a | b
        left = _clauses(f.left, positive != (f.op == "=>"), env, uvars, ctx)
        right = _clauses(f.right, positive, env, uvars, ctx)
        if (f.op == "&") == positive:
            return left + right
        return [a + b for a in left for b in right]
    if kind is FNeg:
        return _clauses(f.sub, not positive, env, uvars, ctx)
    if kind is FQuant:
        env = dict(env)
        if (f.q == "!") == positive:
            for v in f.vars:
                fresh = ctx.new_var()
                env[v] = fresh
                uvars = uvars + (fresh,)
        else:
            for v in f.vars:
                env[v] = (ctx.new_skolem(),) + uvars
        return _clauses(f.sub, positive, env, uvars, ctx)
    if kind is FConst:
        return [] if f.value == positive else [[]]
    raise ClausifyError(f"not a formula node: {f!r}")


def _subst_named(t, env: dict):
    if type(t) is str:
        return env.get(t, t)
    if len(t) == 1:
        return t
    return (t[0],) + tuple([_subst_named(a, env) for a in t[1:]])


def _number_vars(lits) -> tuple:
    """The ``(neg, pred, args)`` literals ``lits`` as a tuple of
    :class:`Literal`, their named variables mapped onto clause-local
    integers 0.. in first-use order, and the number of those variables."""
    names: Dict[str, int] = {}
    literals = tuple([Literal(neg, pred, _number_args(args, names)) for neg, pred, args in lits])
    return literals, len(names)


def _number_args(args: tuple, names: Dict[str, int]) -> tuple:
    """``args`` with each named variable replaced by its number in
    ``names``, where a new name gets the next number."""
    return tuple([names.setdefault(a, len(names)) if type(a) is str
                  else a if len(a) == 1 else (a[0],) + _number_args(a[1:], names)
                  for a in args])
