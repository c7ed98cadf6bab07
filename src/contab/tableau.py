"""Connection tableau engine: legal-action enumeration, action application,
closure detection, and checked replay of action sequences.

The calculus has three inference rules over the clause matrix:

* extension: connect the current goal with a complementary, unifiable
  literal of an input clause; the clause's remaining literals become new
  open goals one level deeper,
* reduction: close the current goal against a complementary literal on
  its path,
* paramodulation: rewrite a subterm of the current goal with an equality
  literal of an input clause (both directions); the rewritten goal and the
  clause's residual literals become new open goals.

``legal_actions`` decides which actions a state admits, ``apply`` commits
one without deciding again, and ``replay`` checks each action of a
sequence from outside against ``legal_actions`` before applying it.

A synthetic pre-state precedes the choice of start clause so that the
choice is itself an action; proof traces therefore begin with a ``start``
action.  Goal selection is leftmost; because goals are processed
depth-first, every pending goal's path is a prefix of the current path, so
states store one path plus a per-goal depth.

Clauses are standardized apart: every variable of a state (in its goals,
path and substitution, bound or not) is below its ``next_var``, and an
action copies its input clause with variables from ``next_var`` up.  A
goal subterm and a fresh copy of a clause term therefore share no
variable, so unifying them when either one is a variable always
succeeds (the occurs check cannot fire), as does unifying a goal's
arguments with distinct variables, and two non-variable terms with
different head symbols never unify.  ``legal_actions`` decides such
candidates by their heads alone and unifies only the rest.

The same invariant makes a goal's paramodulations depend on the goal
under the substitution alone: every variable left in it is unbound, and
the equation copy's are fresh, so the unifications read no binding, and
the actions name no variable.  Each engine therefore memoizes them by
the instantiated goal; the memo is cleared when it holds
``REWRITE_MEMO_SIZE`` goals, so it stays bounded.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .fileio import atomic_open, read_text
from .terms import (
    EQ,
    Literal,
    Matrix,
    apply_subst_lit,
    head,
    literal_str,
    offset_literal,
    replace_at,
    subterm_at,
    subterm_positions,
    undo_trail,
    unify_args_trail,
    unify_terms_trail,
    walk,
)

START = "start"
REDUCTION = "reduction"
EXTENSION = "extension"
PARAMODULATION = "paramodulation"
PATH_LIMIT = 100  # Engine's default maximum tableau depth
REWRITE_MEMO_SIZE = 2 ** 12  # instantiated goals an Engine keeps the rewrites of


class Action(NamedTuple):
    kind: str
    clause_id: int = -1
    literal_index: int = -1
    path_index: int = -1
    position: tuple = ()
    direction: str = ""

    def encode(self) -> str:
        if self.kind == START:
            return f"start {self.clause_id}"
        if self.kind == REDUCTION:
            return f"reduction {self.path_index}"
        if self.kind == EXTENSION:
            return f"extension {self.clause_id} {self.literal_index}"
        pos = ".".join(str(i) for i in self.position)
        return f"paramodulation {self.clause_id} {self.literal_index} {pos} {self.direction}"


# the fields of each kind's action line, the kind included
_FIELDS = {START: 2, REDUCTION: 2, EXTENSION: 3, PARAMODULATION: 5}


def decode_action(line: str) -> Action:
    """The action ``line`` encodes; an unknown kind, a missing or extra
    field, or a field that does not parse raises ``ValueError``."""
    parts = line.split()
    if not parts:
        raise ValueError("empty action line")
    if "-" in line:  # no kind or direction has one, so it signs a negative index
        raise ValueError(f"malformed action line {line!r}: negative index")
    kind = parts[0]
    if kind not in _FIELDS:
        raise ValueError(f"unknown action kind {kind!r}")
    if len(parts) != _FIELDS[kind]:
        raise ValueError(f"malformed action line {line!r}: {'an' if kind == EXTENSION else 'a'} "
                         f"{kind} action has {_FIELDS[kind]} fields, not {len(parts)}")
    try:
        if kind == START:
            return Action(START, clause_id=int(parts[1]))
        if kind == REDUCTION:
            return Action(REDUCTION, path_index=int(parts[1]))
        if kind == EXTENSION:
            return Action(EXTENSION, clause_id=int(parts[1]), literal_index=int(parts[2]))
        pos = tuple(int(i) for i in parts[3].split("."))
        return Action(PARAMODULATION, clause_id=int(parts[1]), literal_index=int(parts[2]),
                      position=pos, direction=parts[4])
    except ValueError as e:
        raise ValueError(f"malformed action line {line!r}: {e}") from None


class TableauState:
    """Immutable snapshot of a partial tableau.

    ``goals`` holds the pending (literal, depth) pairs with the current
    goal first; ``path`` is the ancestor chain of the current goal.  All
    literals are stored unsubstituted and interpreted under ``subst``.

    ``parent`` is the state :meth:`Engine.apply` made this one from (None
    for a state built directly, such as the root).  The literals under
    ``subst`` are derived data, computed on the first call to
    :meth:`instantiated` and kept on the state.
    """

    __slots__ = ("started", "goals", "path", "subst", "next_var", "parent", "_instantiated")

    def __init__(self, started, goals, path, subst, next_var, parent=None):
        self.started = started
        self.goals = goals
        self.path = path
        self.subst = subst
        self.next_var = next_var
        self.parent = parent
        self._instantiated = None

    def instantiated(self):
        """(goals, path): lists of (literal under ``subst``, ground) pairs,
        one per goal and one per path literal, in the same order.

        Computed once.  When the parent's lists are already known they are
        inherited: substitutions only grow along a branch, so a literal
        ground under the parent's substitution is reused as is, and only
        the new goals and the non-ground literals are instantiated again.
        """
        if self._instantiated is not None:
            return self._instantiated
        subst = self.subst
        parent = self.parent
        inherited = None if parent is None else parent._instantiated
        if inherited is None:
            goals = [_instantiate(lit, subst) for lit, _ in self.goals]
            path = [_instantiate(lit, subst) for lit in self.path]
        else:
            pgoals, ppath = inherited
            # Engine.apply keeps the parent's pending goals as the tail of
            # the goals, and a prefix of its path, extended by the parent's
            # current goal when the action opens new goals below it
            fresh = len(self.goals) - len(pgoals) + 1
            goals = [_instantiate(lit, subst) for lit, _ in self.goals[:fresh]]
            goals += [e if e[1] else _instantiate(e[0], subst) for e in pgoals[1:]]
            n = len(self.path)
            kept = ppath[:n] if n <= len(ppath) else ppath + pgoals[:1]
            path = [e if e[1] else _instantiate(e[0], subst) for e in kept]
        self._instantiated = (goals, path)
        return self._instantiated

    @property
    def current_goal(self) -> Optional[Literal]:
        return self.goals[0][0] if self.goals else None

    def describe(self) -> str:
        if not self.started:
            return "<pre-start>"
        if not self.goals:
            return "<closed>"
        goal = apply_subst_lit(self.goals[0][0], self.subst)
        return f"goal {literal_str(goal)} (depth {len(self.path)}, {len(self.goals)} open)"


def _instantiate(lit: Literal, subst) -> Tuple[Literal, bool]:
    free: list = []
    return apply_subst_lit(lit, subst, free), not free


def _candidate(cid: int, li: int, lit: Literal) -> tuple:
    """An extension candidate with what can decide it without unifying:
    the (index, head) of each non-variable argument, and whether its
    arguments are distinct variables, which unify with any goal's."""
    fixed = tuple([(k, head(a)) for k, a in enumerate(lit[2]) if type(a) is not int])
    return cid, li, lit, fixed, not fixed and len(set(lit[2])) == len(lit[2])


def _clash(goal_heads, fixed) -> bool:
    """Whether a goal argument's head differs from the head ``fixed`` gives
    the same argument of a candidate (a variable clashes with nothing).  A
    predicate has one arity (the parser checks), so the two line up."""
    for k, h in fixed:
        gh = goal_heads[k]
        if gh is not None and gh != h:
            return True
    return False


def check_path_limit(path_limit: int) -> None:
    if path_limit < 1:  # below 1 not even the start clause's goals could be expanded
        raise ValueError(f"path limit must be at least 1, got {path_limit}")


class IllegalActionError(Exception):
    """An action :meth:`Engine.replay` refused; ``step`` is its 0-based
    index in the sequence."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):
        # a pool child sends it to the caller pickled, step included
        return type(self), (str(self), self.step)


class Engine:
    """Action semantics over one matrix.

    The engine itself is stateless apart from candidate indexes and a
    rewrite memo.  The extension head tables are filled per key on first
    use and hold the same whichever search fills them.  The memo maps an
    instantiated goal to its paramodulation actions, which no binding of
    the state changes (see the module docstring), and is cleared when it
    holds ``REWRITE_MEMO_SIZE`` goals: what it holds depends on the
    searches run before, what ``legal_actions`` returns never does.  Each
    call returns a list of its own, so a single instance may serve many
    concurrent searches.
    """

    def __init__(self, matrix: Matrix, path_limit: int = PATH_LIMIT, paramodulation: bool = True):
        check_path_limit(path_limit)
        self.matrix = matrix
        self.path_limit = path_limit
        self.paramodulation = paramodulation
        self.var_counts = matrix.var_counts
        # (pred, neg) -> [(clause_id, literal_index)], in canonical order:
        # pairs of ints, which the garbage collector stops tracking
        self.by_key: dict = {}
        # (clause_id, literal_index, equation, head of its left side, of its right)
        self.equations: List[Tuple[int, int, Literal, Optional[tuple], Optional[tuple]]] = []
        for cid, c in enumerate(matrix.clauses):
            for i, (neg, pred, args) in enumerate(c):
                self.by_key.setdefault((pred, neg), []).append((cid, i))
                if pred == EQ and not neg and cid != matrix.reflexivity_id:
                    self.equations.append((cid, i, c[i], head(args[0]), head(args[1])))
        # (pred, neg) -> by_key's entries as _candidate gives them; filled
        # per key on first use, since most keys of a wide matrix are never
        # looked up
        self._candidates: dict = {}
        # instantiated goal -> its paramodulation actions (see the docstring)
        self._rewrites: dict = {}

    # -- states -------------------------------------------------------------

    def root_state(self) -> TableauState:
        return TableauState(False, (), (), {}, 0)

    def start_actions(self) -> List[Action]:
        return [Action(START, clause_id=cid) for cid in self.matrix.start_ids]

    def is_closed(self, s: TableauState) -> bool:
        return s.started and not s.goals

    # -- enumeration --------------------------------------------------------

    def legal_actions(self, s: TableauState) -> List[Action]:
        if not s.started:
            return self.start_actions()
        if not s.goals:
            return []
        if len(s.path) >= self.path_limit:
            return []
        goal, _ = s.goals[0]
        neg, pred, args = goal
        subst = s.subst
        trail: list = []
        neg_key = (pred, not neg)
        out: List[Action] = []

        for i, (pneg, ppred, pargs) in enumerate(s.path):
            if ppred == pred and pneg != neg and len(pargs) == len(args):
                ok = unify_args_trail(args, pargs, subst, trail)
                undo_trail(subst, trail)
                if ok:
                    out.append(Action(REDUCTION, path_index=i))

        off = s.next_var
        candidates = self._candidates.get(neg_key)
        if candidates is None:
            clauses = self.matrix.clauses
            candidates = self._candidates[neg_key] = [
                _candidate(cid, li, clauses[cid][li])
                for cid, li in self.by_key.get(neg_key, ())]
        goal_heads = None  # found for the first candidate that needs them
        for cid, li, lit, fixed, free in candidates:
            if not free:
                if fixed:
                    if goal_heads is None:
                        goal_heads = [head(walk(a, subst)) for a in args]
                    if _clash(goal_heads, fixed):
                        continue
                ok = unify_args_trail(args, offset_literal(lit, off)[2], subst, trail)
                undo_trail(subst, trail)
                if not ok:
                    continue
            out.append(Action(EXTENSION, clause_id=cid, literal_index=li))

        if self.paramodulation and self.equations:
            g = apply_subst_lit(goal, subst)
            rewrites = self._rewrites.get(g)
            if rewrites is None:
                if len(self._rewrites) >= REWRITE_MEMO_SIZE:
                    self._rewrites.clear()
                rewrites = self._rewrites[g] = self._paramodulations(g, off)
            out.extend(rewrites)
        return out

    def _paramodulations(self, g: Literal, off: int) -> Tuple[Action, ...]:
        """The rewrites of the instantiated goal ``g`` by each equation,
        copied with variables from ``off`` up, above every variable of
        ``g``.  Every variable of ``g`` is unbound, so the unifications
        read no binding and run on an empty substitution."""
        subst: dict = {}
        trail: list = []
        out = []
        subterms = [(pos, sub, head(sub)) for pos, sub in subterm_positions(g)]
        for cid, li, lit, lh, rh in self.equations:
            sides = None  # the offset copy, made for the first pair that needs it
            directions = (("lr", lh, 0), ("rl", rh, 1))
            for pos, sub, gh in subterms:
                for direction, sh, k in directions:
                    if gh is None or sh is None:
                        ok = True
                    elif gh != sh:
                        continue
                    else:
                        if sides is None:
                            sides = offset_literal(lit, off)[2]
                        ok = unify_terms_trail(sub, sides[k], subst, trail)
                        undo_trail(subst, trail)
                    if ok:
                        out.append(Action(PARAMODULATION, clause_id=cid, literal_index=li,
                                          position=pos, direction=direction))
        return tuple(out)

    # -- application --------------------------------------------------------

    def apply(self, s: TableauState, a: Action) -> TableauState:
        """The state action ``a`` leads to from ``s``.  ``legal_actions``
        decides, ``apply`` commits and ``replay`` checks: ``a`` must be one
        ``legal_actions(s)`` offers, so the unifications here cannot fail
        and only compute the bindings."""
        if a.kind == START:
            goals = tuple((lit, 0) for lit in self.matrix.clauses[a.clause_id])
            return TableauState(True, goals, (), {}, self.var_counts[a.clause_id], s)
        goal = s.goals[0][0]
        subst = dict(s.subst)
        next_var = s.next_var
        if a.kind == REDUCTION:
            unify_args_trail(goal[2], s.path[a.path_index][2], subst, [])
            new = []
        else:
            clause = self.matrix.clauses[a.clause_id]
            new = [offset_literal(lit, next_var) for lit in clause]
            conn = new.pop(a.literal_index)
            next_var += self.var_counts[a.clause_id]
            if a.kind == EXTENSION:
                unify_args_trail(goal[2], conn[2], subst, [])
            else:
                x, y = conn[2] if a.direction == "lr" else conn[2][::-1]
                g = apply_subst_lit(goal, s.subst)
                unify_terms_trail(subterm_at(g, a.position), x, subst, [])
                new.insert(0, replace_at(g, a.position, y))
        if new:
            depth = len(s.path) + 1
            goals = tuple((lit, depth) for lit in new) + s.goals[1:]
            return TableauState(True, goals, s.path + (goal,), subst, next_var, s)
        goals = s.goals[1:]  # the current goal closes; the path is the next goal's
        path = s.path[: goals[0][1]] if goals else ()
        return TableauState(True, goals, path, subst, next_var, s)

    # -- replay -------------------------------------------------------------

    def replay(self, actions) -> TableauState:
        """The state an action sequence (a search's, a trace's or a bank's)
        reaches from the root.  Each action must be one ``legal_actions``
        offers; the first that is not raises :class:`IllegalActionError`
        carrying its 0-based step."""
        state = self.root_state()
        for i, a in enumerate(actions):
            if a not in self.legal_actions(state):
                raise IllegalActionError(f"{a.encode()!r} is not a legal action", i)
            state = self.apply(state, a)
        return state

    def check_proof(self, actions) -> TableauState:
        """The closed state :meth:`replay` reaches along a proof; a tableau
        the proof leaves open raises :class:`IllegalActionError` with
        ``step`` the proof's length."""
        state = self.replay(actions)
        if not self.is_closed(state):
            raise IllegalActionError("tableau not closed after the last action", len(actions))
        return state


# ---------------------------------------------------------------------------
# trace files


def write_trace(path, problem_name: str, actions) -> None:
    with atomic_open(path) as fh:
        fh.write(f"problem {problem_name}\n")
        for a in actions:
            fh.write(a.encode() + "\n")


def read_trace(path) -> Tuple[str, List[Action]]:
    """The problem name and the actions of a trace file; a line that does
    not decode raises ``ValueError`` naming the file and line."""
    lines = [(lineno, ln.strip())
             for lineno, ln in enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("problem "):
        raise ValueError(f"{path}: trace file must begin with a 'problem <name>' line")
    actions = []
    for lineno, ln in lines[1:]:
        try:
            actions.append(decode_action(ln))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return lines[0][1][len("problem "):], actions
