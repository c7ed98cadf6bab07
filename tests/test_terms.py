"""Term representation, substitution, and unification tests.

The unifier is checked against an independent naive implementation that
eagerly applies substitutions instead of keeping a triangular form.
"""

import random

from contab.terms import (
    EQ,
    Clause,
    Literal,
    apply_subst,
    apply_subst_lit,
    canonical_clause_str,
    clause_var_count,
    is_var,
    literal_str,
    occurs,
    offset_literal,
    offset_term,
    replace_at,
    subterm_at,
    subterm_positions,
    term_str,
    term_vars,
    undo_trail,
    unify_args_trail,
    unify_terms_trail,
    walk,
)


def mk(sym, *args):
    return (sym,) + args


def normalize_subst(subst):
    """Idempotent form of a triangular substitution: every binding fully
    dereferenced (the oracle the unifier's results are compared under)."""
    return {v: apply_subst(t, subst) for v, t in subst.items()}


def contains_var(t, v):
    if is_var(t):
        return t == v
    return any(contains_var(x, v) for x in t[1:])


def full_apply(t, s):
    """Apply an idempotent substitution dict, chasing variable chains."""
    seen = 0
    while is_var(t) and t in s:
        t = s[t]
        seen += 1
        assert seen < 10000, "substitution cycle"
    if is_var(t):
        return t
    return (t[0],) + tuple(full_apply(x, s) for x in t[1:])


def naive_unify(a, b):
    """Textbook unification with eager application. Returns dict or None."""
    eqs = [(a, b)]
    s = {}
    while eqs:
        x, y = eqs.pop()
        x = full_apply(x, s)
        y = full_apply(y, s)
        if x == y:
            continue
        if is_var(x):
            if contains_var(y, x):
                return None
            s[x] = y
            continue
        if is_var(y):
            if contains_var(x, y):
                return None
            s[y] = x
            continue
        if x[0] != y[0] or len(x) != len(y):
            return None
        eqs.extend(zip(x[1:], y[1:]))
    return s


def match_terms(pattern, t, m):
    """One-sided matching; variables bind only in the pattern."""
    if is_var(pattern):
        if pattern in m:
            return m[pattern] == t
        m[pattern] = t
        return True
    if is_var(t):
        return False
    if pattern[0] != t[0] or len(pattern) != len(t):
        return False
    return all(match_terms(p, q, m) for p, q in zip(pattern[1:], t[1:]))


def is_instance_of(general, specific):
    return match_terms(general, specific, {})


def alpha_equivalent(a, b):
    return is_instance_of(a, b) and is_instance_of(b, a)


def random_term(rng, depth, n_vars=4):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.5:
            return rng.randrange(n_vars)
        return mk(rng.choice(["a", "b", "c"]))
    sym, arity = rng.choice([("f", 1), ("g", 1), ("h", 2), ("k", 2)])
    return mk(sym, *[random_term(rng, depth - 1, n_vars) for _ in range(arity)])


class TestBasics:
    def test_var_predicate(self):
        assert is_var(0)
        assert is_var(17)
        assert not is_var(mk("a"))
        assert not is_var(mk("f", 0))

    def test_term_vars(self):
        t = mk("h", 0, mk("f", 2))
        assert term_vars(t) == {0, 2}
        assert term_vars(mk("a")) == set()

    def test_offset_term_shifts_all_vars(self):
        t = mk("h", 0, mk("f", 1))
        assert offset_term(t, 10) == mk("h", 10, mk("f", 11))

    def test_offset_literal(self):
        lit = Literal(False, "p", (0,))
        shifted = offset_literal(lit, 5)
        assert shifted.pred == "p"
        assert shifted.args == (5,)
        assert shifted.neg is False

    def test_clause_var_count(self):
        c = Clause(0, (Literal(False, "p", (0, 2)),))
        assert clause_var_count(c) == 3
        assert clause_var_count(Clause(1, (Literal(False, "q", (mk("a"),)),))) == 0


class TestWalkAndApply:
    def test_walk_chases_bindings(self):
        s = {0: 1, 1: mk("a")}
        assert walk(0, s) == mk("a")
        assert walk(2, s) == 2

    def test_apply_subst_full(self):
        s = {0: mk("f", 1), 1: mk("a")}
        assert apply_subst(mk("g", 0), s) == mk("g", mk("f", mk("a")))

    def test_apply_subst_lit(self):
        s = {0: mk("b")}
        lit = Literal(True, "p", (0, 1))
        out = apply_subst_lit(lit, s)
        assert out.args == (mk("b"), 1)
        assert out.neg

    def test_normalize_subst_flattens_chains(self):
        s = {0: 1, 1: mk("f", 2), 2: mk("a")}
        flat = normalize_subst(s)
        assert flat[0] == mk("f", mk("a"))

    def test_occurs(self):
        assert occurs(0, mk("f", 0), {})
        assert not occurs(0, mk("f", 1), {})
        assert occurs(0, mk("f", 1), {1: 0})


class TestUnify:
    def test_identical_terms(self):
        t = mk("f", mk("a"))
        s = {}
        assert unify_terms_trail(t, t, s, [])
        assert s == {}

    def test_var_binding(self):
        s = {}
        assert unify_terms_trail(0, mk("a"), s, [])
        assert walk(0, s) == mk("a")

    def test_symbol_clash(self):
        assert not unify_terms_trail(mk("a"), mk("b"), {}, [])

    def test_occurs_check_rejects(self):
        assert not unify_terms_trail(0, mk("f", 0), {}, [])

    def test_occurs_check_through_chain(self):
        s = {}
        assert unify_terms_trail(0, mk("f", 1), s, [])
        assert not unify_terms_trail(1, mk("g", 0), dict(s), [])

    def test_literal_unify(self):
        p = Literal(False, "p", (0, mk("b")))
        q = Literal(False, "p", (mk("a"), 1))
        s = {}
        assert unify_args_trail(p.args, q.args, s, [])
        assert apply_subst_lit(p, s) == apply_subst_lit(q, s)

    def test_unifier_is_applied_equal(self):
        a = mk("h", 0, mk("f", 1))
        b = mk("h", mk("f", 2), 0)
        s = {}
        assert unify_terms_trail(a, b, s, [])
        sn = normalize_subst(s)
        assert apply_subst(a, sn) == apply_subst(b, sn)


class TestUnifyAgainstOracle:
    """Random cross-validation against the naive eager unifier."""

    N_PAIRS = 1000

    def test_agreement_on_random_pairs(self):
        rng = random.Random(20240817)
        failures = 0
        successes = 0
        for _ in range(self.N_PAIRS):
            a = random_term(rng, 3)
            b = random_term(rng, 3)
            s = {}
            ok = unify_terms_trail(a, b, s, [])
            expect = naive_unify(a, b)
            assert ok == (expect is not None), (a, b)
            if not ok:
                failures += 1
                continue
            successes += 1
            sn = normalize_subst(s)
            got_a = apply_subst(a, sn)
            got_b = apply_subst(b, sn)
            assert got_a == got_b
            # Most-general check: both unifiers give alpha-equivalent results.
            want = full_apply(a, expect)
            assert alpha_equivalent(got_a, want), (a, b, got_a, want)
        # The generator must exercise both branches.
        assert failures > 100
        assert successes > 100

    def test_unify_extends_existing_subst(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_term(rng, 2)
            b = random_term(rng, 2)
            s0 = {}
            if not unify_terms_trail(a, b, s0, []):
                continue
            c = random_term(rng, 2)
            d = random_term(rng, 2)
            s1 = dict(s0)
            if not unify_terms_trail(c, d, s1, []):
                continue
            sn = normalize_subst(s1)
            assert apply_subst(a, sn) == apply_subst(b, sn)
            assert apply_subst(c, sn) == apply_subst(d, sn)


class TestTrail:
    def test_trail_undo_restores_subst(self):
        s = {5: mk("a")}
        before = dict(s)
        trail = []
        ok = unify_terms_trail(mk("h", 0, 1), mk("h", mk("b"), mk("c")), s, trail)
        assert ok
        assert len(trail) == 2
        undo_trail(s, trail)
        assert s == before
        assert trail == []

    def test_trail_failure_leaves_partial_bindings(self):
        # Callers undo on failure; the trail records what to remove.
        s = {}
        trail = []
        ok = unify_terms_trail(mk("h", 0, mk("a")), mk("h", mk("b"), mk("c")), s, trail)
        assert not ok
        undo_trail(s, trail)
        assert s == {}

    def test_trail_agrees_with_plain_unifier(self):
        # the plain unifier is the naive eager one; undoing the trail gives {}
        rng = random.Random(99)
        for _ in range(300):
            a = random_term(rng, 3)
            b = random_term(rng, 3)
            plain = naive_unify(a, b)
            s = {}
            trail = []
            ok = unify_terms_trail(a, b, s, trail)
            assert ok == (plain is not None)
            if ok:
                sn = normalize_subst(s)
                assert apply_subst(a, sn) == apply_subst(b, sn)
            undo_trail(s, trail)
            assert s == {}


class TestPositions:
    def test_subterm_positions_of_term(self):
        t = mk("h", mk("f", 0), mk("a"))
        lit = Literal(False, "p", (t,))
        pairs = subterm_positions(lit)
        assert pairs == [((1,), t), ((1, 1), mk("f", 0)), ((1, 1, 1), 0), ((1, 2), mk("a"))]
        for pos, sub in pairs:
            assert subterm_at(lit, pos) == sub

    def test_literal_positions_skip_the_atom_root(self):
        lit = Literal(False, "p", (mk("f", mk("a")),))
        pairs = subterm_positions(lit)
        assert all(pos for pos, _ in pairs)
        assert ((1,), mk("f", mk("a"))) in pairs
        assert ((1, 1), mk("a")) in pairs

    def test_subterm_at_and_replace_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            lit = Literal(False, "p", (random_term(rng, 3), random_term(rng, 2)))
            for pos, sub in subterm_positions(lit):
                assert subterm_at(lit, pos) == sub
                assert replace_at(lit, pos, sub) == lit
                swapped = replace_at(lit, pos, mk("zz"))
                assert subterm_at(swapped, pos) == mk("zz")

    def test_replace_at_literal(self):
        lit = Literal(False, "p", (mk("f", mk("a")),))
        pairs = subterm_positions(lit)
        assert pairs
        target = pairs[-1][0]
        out = replace_at(lit, target, mk("b"))
        assert isinstance(out, Literal)
        assert subterm_at(out, target) == mk("b")


class TestPrinting:
    def test_term_str_ground(self):
        assert term_str(mk("a")) == "a"
        assert term_str(mk("f", mk("a"))) == "f(a)"

    def test_term_str_vars_stable(self):
        s = term_str(mk("h", 0, 0))
        inner = s[s.index("(") + 1 : s.rindex(")")]
        left, right = inner.split(",")
        assert left.strip() == right.strip()

    def test_literal_str_negation(self):
        lit = Literal(True, "p", (mk("a"),))
        assert literal_str(lit).startswith("~")

    def test_equality_prints_infix(self):
        lit = Literal(False, EQ, (mk("a"), mk("b")))
        s = literal_str(lit)
        assert "=" in s
        assert "a" in s and "b" in s

    def test_canonical_clause_str_is_order_insensitive_name_choice(self):
        c1 = Clause(0, (Literal(False, "p", (0,)), Literal(True, "q", (0,))))
        c2 = Clause(1, (Literal(False, "p", (5,)), Literal(True, "q", (5,))))
        assert canonical_clause_str(c1) == canonical_clause_str(c2)
