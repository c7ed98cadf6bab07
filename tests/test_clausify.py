"""Clausification tests.

Two independent oracles back these tests: a truth-table satisfiability
check for ground problems, and a tiny standalone ground connection
tableau prover used to cross-check engine solvability.
"""

import functools
import gc
import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from contab.clausify import ClausifyError, clausify, clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.tableau import Engine
from contab.terms import EQ, Matrix, clause_var_count
from contab.tptp import FAtom, FBin, FConst, FNeg, parse_problem


class TestConjectureNegation:
    def test_conjecture_becomes_negated_start_clause(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        start = [m.clauses[i] for i in m.start_ids]
        assert len(start) == 1
        neg, pred, _ = start[0][0]
        assert pred == "p" and neg

    def test_negated_conjecture_role_is_not_negated_again(self):
        m = clausify_text("cnf(goal, negated_conjecture, ~p(a)).\ncnf(ax, axiom, p(a)).")
        neg, _, _ = m.clauses[m.start_ids[0]][0]
        assert neg

    def test_universal_conjecture_skolemizes_on_negation(self):
        m = clausify_text("fof(ax, axiom, q(a)).\nfof(c, conjecture, ! [X] : q(X)).")
        start = m.clauses[m.start_ids[0]]
        neg, _, args = start[0]
        assert neg
        arg = args[0]
        assert isinstance(arg, tuple) and arg[0].startswith("sk")

    def test_implication_conjecture_splits_into_units(self):
        m = clausify_text("fof(c, conjecture, ! [X] : (p(X) => q(X))).\nfof(ax, axiom, r(b)).")
        starts = [m.clauses[i] for i in m.start_ids]
        preds = sorted(c[0][:2] for c in starts)
        assert preds == [(False, "p"), (True, "q")]


class TestSkolemization:
    def test_existential_axiom(self):
        m = clausify_text("fof(a, axiom, ? [X] : p(X)).\nfof(c, conjecture, ? [Y] : p(Y)).")
        axiom = next(c for c in m.clauses if not c[0][0])
        assert axiom[0][2][0] == ("sk0",)

    def test_skolem_function_captures_universals(self):
        m = clausify_text(
            "fof(a, axiom, ! [X] : ? [Y] : r(X, Y)).\nfof(c, conjecture, ? [Z] : r(a, Z))."
        )
        axiom = next(c for c in m.clauses if not c[0][0])
        _, _, (x, skterm) = axiom[0]
        assert isinstance(x, int)
        assert skterm[0].startswith("sk")
        assert skterm[1] == x

    def test_skolem_counter_is_per_problem(self):
        text = "fof(a, axiom, ? [X] : p(X)).\nfof(c, conjecture, ? [Y] : p(Y))."
        m1 = clausify_text(text)
        m2 = clausify_text(text)
        assert m1.dump() == m2.dump()
        assert "sk0" in m1.dump()


class TestStartSelection:
    def test_all_clauses_start_without_conjecture(self):
        m = clausify_text("cnf(a1, axiom, p(a) | q(a)).\ncnf(a2, axiom, ~p(a)).")
        assert sorted(m.start_ids) == list(range(len(m.clauses)))

    def test_only_conjecture_clauses_start_otherwise(self):
        # Negating a conjunction yields one disjunctive clause.
        m = clausify_text(
            "fof(a1, axiom, p(a)).\nfof(a2, axiom, q(a)).\nfof(c, conjecture, p(a) & q(a))."
        )
        assert len(m.start_ids) == 1
        start = m.clauses[m.start_ids[0]]
        assert sorted((neg, pred) for neg, pred, _ in start) == [(True, "p"), (True, "q")]
        assert len(m.clauses) == 3

    def test_disjunctive_conjecture_yields_two_start_clauses(self):
        m = clausify_text(
            "fof(a1, axiom, p(a)).\nfof(c, conjecture, p(a) | q(a))."
        )
        starts = {m.clauses[i][0][1] for i in m.start_ids}
        assert starts == {"p", "q"}
        assert len(m.start_ids) == 2


class TestReflexivity:
    def test_added_when_equality_present(self):
        m = clausify_text("fof(e, axiom, f(a) = a).\nfof(c, conjecture, f(f(a)) = a).")
        assert m.reflexivity_id is not None
        refl = m.clauses[m.reflexivity_id]
        assert len(refl) == 1
        neg, pred, args = refl[0]
        assert pred == EQ and not neg
        assert args[0] == args[1]
        assert isinstance(args[0], int)

    def test_reflexivity_is_not_a_start_clause(self):
        m = clausify_text("fof(e, axiom, f(a) = a).\nfof(c, conjecture, f(f(a)) = a).")
        assert m.reflexivity_id not in m.start_ids

    def test_absent_without_equality(self):
        m = clausify_text("fof(a, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        assert m.reflexivity_id is None
        assert all(pred != EQ for c in m.clauses for _, pred, _ in c)

    def test_absent_when_no_clause_keeps_the_equation(self):
        # the problem mentions '=', but the only formula that does is true
        m = clausify_text("fof(a, axiom, $true | a = b).\nfof(c, conjecture, p(a)).")
        assert m.reflexivity_id is None
        assert len(m.clauses) == 1


class TestDegenerateInputs:
    def test_false_axiom_raises(self):
        with pytest.raises(ClausifyError):
            clausify_text("fof(f, axiom, $false).\nfof(x, axiom, p(a)).")

    def test_true_conjecture_raises(self):
        with pytest.raises(ClausifyError):
            clausify_text("fof(c, conjecture, $true).\nfof(x, axiom, p(a)).")

    def test_no_clauses_raises(self):
        with pytest.raises(ClausifyError):
            clausify_text("fof(t, axiom, $true).")

    def test_true_axiom_contributes_nothing(self):
        m = clausify_text("fof(t, axiom, $true).\nfof(x, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        assert len(m.clauses) == 2

    def test_duplicate_literals_collapse(self):
        m = clausify_text("cnf(a, axiom, p(X) | p(X) | q(X)).\nfof(c, conjecture, q(a)).")
        axiom = next(c for c in m.clauses if len(c) > 1)
        assert len(axiom) == 2


class TestVariableNumbering:
    def test_clause_local_variables_start_at_zero(self):
        m = clausify_text(
            "fof(a1, axiom, ! [X, Y] : r(X, Y)).\nfof(a2, axiom, ! [Z] : p(Z)).\n"
            "fof(c, conjecture, p(a))."
        )
        for clause in m.clauses:
            vs = set()
            for lit in clause:
                stack = list(lit[2])
                while stack:
                    t = stack.pop()
                    if isinstance(t, int):
                        vs.add(t)
                    else:
                        stack.extend(t[1:])
            if vs:
                assert vs == set(range(len(vs)))


def wide_fof_text(n=40):
    """A wide FOF problem with every connective and quantifier under both
    polarities, and symbols named like Skolem functions."""
    lines = ["fof(used, axiom, sk0(a) | sk2 = b)."]
    for i in range(n):
        lines.append(
            f"fof(ax{i}, axiom, ! [X, Y] : (p{i % 7}(X, Y) <=> "
            f"? [Z] : (q{i % 5}(f(X, Z)) & (r(Z) | ~ s{i % 3}(g(Y), Z)))))."
        )
        lines.append(
            f"fof(eq{i}, axiom, ! [X] : (h{i % 4}(X) = c{i} => "
            f"((? [Y] : (X != Y & ~ ! [W] : (t(W, Y) => t(Y, W)))) | $false)))."
        )
    lines.append("fof(goal, conjecture, ? [X] : (p0(X, a) <=> ~ ? [Y] : q0(f(X, Y)))).")
    return "\n".join(lines) + "\n"


def benchmark_problems(seed=1):
    """The problems of the benchmark's three families (``eq``, ``chain``
    and ``batch``) for ``seed``, as the benchmark generates them; its
    known-defect problems are not among them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"
    spec = importlib.util.spec_from_file_location("benchmark_problems", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {family: make(random.Random(seed)) for family, make in (
        ("eq", gen.eq_problems), ("chain", gen.chain_problems), ("batch", gen.batch_problems))}


@functools.lru_cache(maxsize=None)
def benchmark_matrices(family):
    return [clausify(parse_problem(p.text, p.source_dir)) for p in BENCHMARK_PROBLEMS[family]]


BENCHMARK_PROBLEMS = benchmark_problems()


class TestMatrixDumpPinned:
    """The matrices of fixed inputs, pinned by the sha256 of their dumps:
    a front-end change that renumbers clauses, variables or Skolem
    functions fails here."""

    @staticmethod
    def digest(matrices):
        return hashlib.sha256("".join(m.dump() for m in matrices).encode("utf-8")).hexdigest()

    def test_bundled_corpus(self):
        matrices = [load_matrix(p) for p in corpus_problems()]
        assert self.digest(matrices) == (
            "80f1b71215f18446148d9d39a22495add8e3cf394bb3bc2b8c52458becba63fa")

    def test_wide_fof(self):
        m = clausify_text(wide_fof_text())
        assert len(m.clauses) == 286
        assert self.digest([m]) == (
            "d0072ea6fbb20176aa41e8bdf2ed44729b74aa18409d064b0f93b5d5eee9aabf")

    def test_equivalences_with_quantifiers_on_both_sides(self):
        # each side's fresh names depend on the order the four halves of
        # the expansion are clausified in, under either polarity
        m = clausify_text(
            "fof(a, axiom, ![X]: ((?[Y]: p(X, Y)) <=> (![Z]: ?[W]: q(Z, W, X)))).\n"
            "fof(b, axiom, (?[Y]: r(Y)) <=> ((?[Z]: s(Z)) <=> ![W]: r(W))).\n"
            "fof(c, conjecture, ?[X]: ((![Y]: p(X, Y)) <=> ?[Z]: (s(Z) & r(X)))).\n")
        assert len(m.clauses) == 14
        assert self.digest([m]) == (
            "043838ab12ca8d14c41df9eca477e6dc755644e419cd6f9848ddc0409235a491")

    @pytest.mark.parametrize("family, clauses, digest", [
        ("eq", 32, "c1b124e360a726b96741b6def40d43b7db926bab0bb98d5078e8a75ec696c311"),
        ("chain", 450, "565e82f206174730877ab29226ca3f6bd2a0272aa94792f512379fd4199783cc"),
        ("batch", 9183, "37d8b738ef123c9623f0a8ea947ad88f64dfe58ce1b78925902c7f655ada030d"),
    ])
    def test_benchmark_problems_of_seed_1(self, family, clauses, digest):
        matrices = benchmark_matrices(family)
        assert sum(len(m.clauses) for m in matrices) == clauses
        assert self.digest(matrices) == digest


class TestVarCounts:
    """The variable counts clausify hands over with the matrix, and the
    engine reads, are ``clause_var_count``'s."""

    @pytest.mark.parametrize("family", sorted(BENCHMARK_PROBLEMS))
    def test_benchmark_problems(self, family):
        for m in benchmark_matrices(family):
            assert Engine(m).var_counts == [clause_var_count(c) for c in m.clauses]

    def test_corpus_and_wide_fof(self):
        matrices = [load_matrix(p) for p in corpus_problems()] + [clausify_text(wide_fof_text())]
        for m in matrices:
            assert Engine(m).var_counts == [clause_var_count(c) for c in m.clauses]

    def test_a_hand_built_matrix_counts_its_own(self):
        m = clausify_text(wide_fof_text())
        rebuilt = Matrix(m.clauses, m.start_ids, m.reflexivity_id)
        assert rebuilt.var_counts == m.var_counts

    def test_one_count_per_clause(self):
        m = clausify_text(wide_fof_text())
        with pytest.raises(ValueError, match="one variable count per clause"):
            Matrix(m.clauses, m.start_ids, m.reflexivity_id, m.var_counts[1:])


class TestLiteralRepresentation:
    """A literal is the plain tuple ``(neg, pred, args)`` and a clause a
    tuple of them.  The cyclic garbage collector stops tracking an exact
    tuple once everything in it is untracked, so a matrix's clauses leave
    nothing for later collections to walk; a tuple subclass is never
    untracked."""

    @staticmethod
    def matrices():
        return [load_matrix(p) for p in corpus_problems()] + [clausify_text(wide_fof_text())]

    def test_clausify_builds_plain_tuples(self):
        for m in self.matrices() + [m for f in sorted(BENCHMARK_PROBLEMS)
                                    for m in benchmark_matrices(f)]:
            for clause in m.clauses:
                assert type(clause) is tuple
                for lit in clause:
                    assert type(lit) is tuple and len(lit) == 3
                    neg, pred, args = lit
                    assert type(neg) is bool and type(pred) is str and type(args) is tuple

    def test_no_clause_or_literal_stays_tracked(self):
        def tuples(x):
            yield x
            for y in x:
                if type(y) is tuple:
                    yield from tuples(y)

        clauses = [c for m in self.matrices() for c in m.clauses]
        every = [t for c in clauses for t in tuples(c)]
        # a collection untracks a tuple only if its items already are, so
        # it may take one collection per level of nesting
        tracked, last = sum(map(gc.is_tracked, every)), None
        for _ in range(50):
            if tracked == last:
                break
            gc.collect()
            tracked, last = sum(map(gc.is_tracked, every)), tracked
        assert not [x for c in clauses for x in (c, *c) if gc.is_tracked(x)]
        assert tracked == 0


class TestMatrixIds:
    """A start or reflexivity id must name a clause: one outside the list
    would fail later as a bare ``IndexError`` deep in the search."""

    CLAUSES = [((False, "p", ()),)]

    @pytest.mark.parametrize("start", [1, 3, -1])
    def test_a_start_id_outside_the_clauses_is_refused(self, start):
        with pytest.raises(ValueError, match=rf"clause id {start} is outside \[0, 1\)"):
            Matrix(self.CLAUSES, [0, start])

    def test_a_reflexivity_id_outside_the_clauses_is_refused(self):
        with pytest.raises(ValueError, match=r"clause id 7 is outside \[0, 1\)"):
            Matrix(self.CLAUSES, [0], reflexivity_id=7)


# --- ground oracles ---------------------------------------------------------


def formula_atoms(f, acc):
    if isinstance(f, FAtom):
        acc.add((f.pred, f.args))
    elif isinstance(f, FNeg):
        formula_atoms(f.sub, acc)
    elif isinstance(f, FBin):
        formula_atoms(f.left, acc)
        formula_atoms(f.right, acc)


def eval_formula(f, assign):
    if isinstance(f, FConst):
        return f.value
    if isinstance(f, FAtom):
        return assign[(f.pred, f.args)]
    if isinstance(f, FNeg):
        return not eval_formula(f.sub, assign)
    op = f.op
    a = eval_formula(f.left, assign)
    b = eval_formula(f.right, assign)
    if op == "&":
        return a and b
    if op == "|":
        return a or b
    if op == "=>":
        return (not a) or b
    if op == "<=>":
        return a == b
    raise AssertionError(op)


def problem_satisfiable(problem):
    """Truth-table satisfiability of axioms AND NOT conjecture (ground only)."""
    parts = []
    for af in problem:
        if af.role == "conjecture":
            parts.append(FNeg(af.formula))
        else:
            parts.append(af.formula)
    atoms = set()
    for f in parts:
        formula_atoms(f, atoms)
    atoms = sorted(atoms)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        assign = dict(zip(atoms, bits))
        if all(eval_formula(f, assign) for f in parts):
            return True
    return False


def matrix_satisfiable(matrix):
    """Brute-force CNF satisfiability over the ground atoms of a matrix."""
    atoms = sorted({(pred, args) for c in matrix.clauses for _, pred, args in c})
    for bits in itertools.product([False, True], repeat=len(atoms)):
        assign = dict(zip(atoms, bits))
        ok = True
        for clause in matrix.clauses:
            if not any(assign[(pred, args)] != neg for neg, pred, args in clause):
                ok = False
                break
        if ok:
            return True
    return False


def ground_tableau_provable(matrix, depth_limit=8):
    """Standalone ground connection tableau search, engine-independent.

    Each open goal carries its own branch path; sibling goals must not
    see literals added below a different sibling.
    """

    def close(goals):
        if not goals:
            return True
        (goal, path), rest = goals[0], goals[1:]
        neg, pred, args = goal
        if goal in path:
            return False  # regularity: a repeated branch literal cannot help
        comp = (not neg, pred, args)
        if comp in path and close(rest):
            return True
        if len(path) >= depth_limit:
            return False
        below = path | {goal}
        for clause in matrix.clauses:
            for i, lit in enumerate(clause):
                if lit == comp:
                    new_goals = [
                        (l, below) for j, l in enumerate(clause) if j != i
                    ]
                    if close(new_goals + rest):
                        return True
        return False

    for cid in matrix.start_ids:
        goals = [(l, frozenset()) for l in matrix.clauses[cid]]
        if close(goals):
            return True
    return False


def random_ground_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        atom = FAtom(rng.choice(["p", "q", "r"]), (("a",),))
        return FNeg(atom) if rng.random() < 0.4 else atom
    op = rng.choice(["&", "|", "=>", "~"])
    if op == "~":
        return FNeg(random_ground_formula(rng, depth - 1))
    return FBin(op, random_ground_formula(rng, depth - 1), random_ground_formula(rng, depth - 1))


def ground_text(f):
    """The TPTP text of a formula ``random_ground_formula`` builds."""
    if isinstance(f, FAtom):
        return f"{f.pred}(a)"
    if isinstance(f, FNeg):
        return f"~{ground_text(f.sub)}"
    return f"({ground_text(f.left)} {f.op} {ground_text(f.right)})"


class TestGroundSoundness:
    """Formula-level and matrix-level satisfiability must agree."""

    def test_random_ground_problems(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(300):
            n_axioms = rng.randrange(1, 3)
            lines = []
            for i in range(n_axioms):
                f = random_ground_formula(rng, 2)
                lines.append(f"fof(a{i}, axiom, {ground_text(f)}).")
            if rng.random() < 0.7:
                f = random_ground_formula(rng, 2)
                lines.append(f"fof(c, conjecture, {ground_text(f)}).")
            problem = parse_problem("\n".join(lines))
            want_sat = problem_satisfiable(problem)
            try:
                matrix = clausify(problem)
            except ClausifyError:
                # An empty clause comes from a single self-contradictory
                # formula, so the whole conjunction is unsatisfiable.
                assert not want_sat
                continue
            assert matrix_satisfiable(matrix) == want_sat, "\n".join(lines)
            checked += 1
        assert checked > 150

    def test_unsat_matrix_matches_tableau_oracle(self):
        rng = random.Random(77)
        agreements = 0
        proofs = 0
        for _ in range(150):
            lines = []
            for i in range(rng.randrange(1, 4)):
                f = random_ground_formula(rng, 1)
                lines.append(f"fof(a{i}, axiom, {ground_text(f)}).")
            f = random_ground_formula(rng, 1)
            lines.append(f"fof(c, conjecture, {ground_text(f)}).")
            try:
                matrix = clausify(parse_problem("\n".join(lines)))
            except ClausifyError:
                continue
            oracle = ground_tableau_provable(matrix)
            if oracle:
                # The oracle only claims a closed tableau exists; that
                # forces unsatisfiability of the matrix.
                assert not matrix_satisfiable(matrix)
                proofs += 1
            agreements += 1
        assert agreements > 50
        assert proofs > 5


class TestEngineAgainstGroundOracle:
    def solve(self, matrix, budget=4000):
        from contab.policy import UniformPredictor
        from contab.search import SearchLimits, prove

        engine = Engine(matrix)
        result = prove(
            engine,
            "oracle-case",
            UniformPredictor(),
            SearchLimits(inference_limit=budget, bigstep_frequency=50),
        )
        if result.solved:
            assert engine.check_proof(result.proof)
        return result.solved

    def test_one_step_proof(self):
        m = clausify_text("fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).")
        assert ground_tableau_provable(m)
        assert self.solve(m)

    def test_per_constant_axiom_does_not_prove_universal_claim(self):
        m = clausify_text(
            "fof(ax, axiom, p(a) & (q(a) | $false)).\n"
            "fof(c, conjecture, ! [X] : (p(X) => q(X)))."
        )
        assert not ground_tableau_provable(m)
        assert not self.solve(m)

    def test_universal_axiom_proves_universal_claim(self):
        m = clausify_text(
            "fof(ax, axiom, ! [X] : (p(X) & (q(X) | $false))).\n"
            "fof(c, conjecture, ! [X] : (p(X) => q(X)))."
        )
        assert self.solve(m)

    def test_random_ground_agreement_with_engine(self):
        rng = random.Random(5150)
        solved_both = 0
        for _ in range(60):
            lines = []
            for i in range(rng.randrange(1, 4)):
                f = random_ground_formula(rng, 1)
                lines.append(f"fof(a{i}, axiom, {ground_text(f)}).")
            f = random_ground_formula(rng, 1)
            lines.append(f"fof(c, conjecture, {ground_text(f)}).")
            try:
                matrix = clausify(parse_problem("\n".join(lines)))
            except ClausifyError:
                continue
            oracle = ground_tableau_provable(matrix)
            got = self.solve(matrix)
            assert got == oracle, "\n".join(lines)
            solved_both += got
        assert solved_both > 5
