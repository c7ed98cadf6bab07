"""Parser tests: cnf/fof inputs, includes, errors, and a round trip of
random formulas through their printed text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contab.clausify import ClausifyError, clausify
from contab.terms import EQ
from contab.tptp import (
    AnnotatedFormula,
    FAtom,
    FBin,
    FConst,
    FNeg,
    FQuant,
    ParseError,
    UnsupportedError,
    parse_problem,
    parse_problem_file,
)


class TestBasicParsing:
    def test_single_fof(self):
        p = parse_problem("fof(ax, axiom, p(a)).")
        assert len(p) == 1
        f = p[0]
        assert f.name == "ax"
        assert f.role == "axiom"
        assert f.lang == "fof"
        assert f.formula == FAtom("p", (("a",),))

    def test_cnf_language_tag(self):
        p = parse_problem("cnf(c, axiom, p(a) | ~q(b)).")
        assert p[0].lang == "cnf"

    def test_a_parenthesized_cnf_clause_is_the_bare_one(self):
        wrapped = parse_problem("cnf(c, axiom, (p(X) | ~q(X))).")
        bare = parse_problem("cnf(c, axiom, p(X) | ~q(X)).")
        assert wrapped == bare
        assert clausify(wrapped).dump() == clausify(bare).dump() == (
            "clause 0 start: p(X0) | ~q(X0)\n")

    def test_variables_are_uppercase_names(self):
        p = parse_problem("fof(ax, axiom, ! [X] : p(X)).")
        q = p[0].formula
        assert isinstance(q, FQuant)
        assert q.q == "!"
        assert q.vars == ("X",)
        assert q.sub == FAtom("p", ("X",))

    def test_quantifier_var_list(self):
        p = parse_problem("fof(ax, axiom, ? [X, Y] : r(X, Y)).")
        q = p[0].formula
        assert q.q == "?"
        assert q.vars == ("X", "Y")

    def test_nested_terms(self):
        p = parse_problem("fof(ax, axiom, p(f(g(a), X))).")
        atom = p[0].formula
        assert atom == FAtom("p", (("f", ("g", ("a",)), "X"),))

    def test_connective_shapes(self):
        p = parse_problem("fof(ax, axiom, (p(a) & q(a)) | (r(a) => s(a))).")
        f = p[0].formula
        assert isinstance(f, FBin) and f.op == "|"
        assert f.left.op == "&"
        assert f.right.op == "=>"

    def test_iff_and_negation(self):
        p = parse_problem("fof(ax, axiom, ~p(a) <=> q(a)).")
        f = p[0].formula
        assert f.op == "<=>"
        assert isinstance(f.left, FNeg)

    def test_boolean_constants(self):
        p = parse_problem("fof(t, axiom, $true). fof(f, axiom, $false).")
        assert p[0].formula == FConst(True)
        assert p[1].formula == FConst(False)

    def test_equality_infix(self):
        p = parse_problem("fof(e, axiom, f(a) = b).")
        assert p[0].formula == FAtom("=", (("f", ("a",)), ("b",)))

    def test_disequality_becomes_negated_equality(self):
        p = parse_problem("fof(e, axiom, a != b).")
        assert p[0].formula == FNeg(FAtom("=", (("a",), ("b",))))

    def test_comments_and_whitespace_ignored(self):
        text = """% leading comment
        fof(ax, axiom, % trailing comment
            p(a)).
        % another
        """
        p = parse_problem(text)
        assert len(p) == 1

    def test_quoted_names_hold_the_unescaped_name(self):
        f = parse_problem(r"fof(a, axiom, p('it\'s', 'a\\b')).")[0].formula
        assert f == FAtom("p", (("it's",), ("a\\b",)))

    @pytest.mark.parametrize("text, name, formula", [
        ("fof(ax, axiom, ! [X] : (p(X) => q(X))).", "ax",
         FQuant("!", ("X",), FBin("=>", FAtom("p", ("X",)), FAtom("q", ("X",))))),
        ("fof(ax, axiom, ? [X, Y] : (r(X, Y) & ~r(Y, X))).", "ax",
         FQuant("?", ("X", "Y"), FBin("&", FAtom("r", ("X", "Y")), FNeg(FAtom("r", ("Y", "X")))))),
        ("cnf(c, axiom, p(a) | ~q(f(b))).", "c",
         FBin("|", FAtom("p", (("a",),)), FNeg(FAtom("q", (("f", ("b",)),))))),
        ("fof(e, axiom, (f(a) = b) & (a != c)).", "e",
         FBin("&", FAtom("=", (("f", ("a",)), ("b",))), FNeg(FAtom("=", (("a",), ("c",)))))),
        ("fof(m, axiom, (p(a) <=> q(a)) | $false).", "m",
         FBin("|", FBin("<=>", FAtom("p", (("a",),)), FAtom("q", (("a",),))), FConst(False))),
        ("fof(n, axiom, ~(~p(a))).", "n", FNeg(FNeg(FAtom("p", (("a",),))))),
        (r"fof('it\'s', axiom, p('a\\b') & 'Q\\'('it\'s')).", "it's",
         FBin("&", FAtom("p", (("a\\b",),)), FAtom("Q\\", (("it's",),)))),
    ], ids=["quantified-implication", "quantified-conjunction", "cnf-disjunction",
            "parenthesized-equations", "iff-or-false", "double-negation", "quoted-names"])
    def test_parses_to_its_ast(self, text, name, formula):
        lang = text[:3]
        assert parse_problem(text) == (AnnotatedFormula(name, "axiom", formula, lang),)

    def test_multiple_formulas(self):
        p = parse_problem("fof(a1, axiom, p(a)).\nfof(a2, axiom, q(a)).\nfof(c, conjecture, q(a)).")
        assert [f.name for f in p] == ["a1", "a2", "c"]
        assert p[2].role == "conjecture"


class TestErrors:
    def test_error_reports_line_and_column(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("fof(bad, axiom, p(X) &.")
        assert ei.value.line == 1
        assert ei.value.col > 1

    def test_error_line_counts_newlines(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("fof(a, axiom, p(a)).\n\nfof(b, axiom, ).")
        assert ei.value.line == 3

    def test_missing_final_dot(self):
        with pytest.raises(ParseError):
            parse_problem("fof(a, axiom, p(a))")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_problem("fof(a, axiom, (p(a) & q(a)).")

    def test_arity_clash_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("fof(a, axiom, p(a) & p(a, b)).")
        assert "arity" in str(ei.value)

    def test_function_vs_different_arity(self):
        with pytest.raises(ParseError):
            parse_problem("fof(a, axiom, p(f(a)) & q(f(a, b))).")

    def test_unsupported_language(self):
        with pytest.raises(UnsupportedError):
            parse_problem("thf(t, axiom, p).")

    def test_garbage_input(self):
        with pytest.raises(ParseError):
            parse_problem("this is not tptp")


class TestLexicalErrors:
    # (input, error class, message, line, col): each error names the
    # offending token's first character
    CASES = [
        ("fof(a, axiom, p <~> q).", UnsupportedError, "connective '<~>' is not supported", 1, 17),
        ("fof(a, axiom,\n  p <= q).", UnsupportedError, "connective '<=' is not supported", 2, 5),
        ("fof(a, axiom, p ~& q).", UnsupportedError, "connective '~&' is not supported", 1, 17),
        ("fof(a, axiom, p ~| q).", UnsupportedError, "connective '~|' is not supported", 1, 17),
        ("fof(a, axiom, $foo).", UnsupportedError, "defined symbol '$foo' is not supported", 1, 15),
        ("fof(a, axiom, p(1)).", UnsupportedError, "numeric terms are not supported", 1, 17),
        # a digit that is not decimal is still a digit ...
        ("fof(a, axiom, p(²)).", UnsupportedError, "numeric terms are not supported", 1, 17),
        # ... and a numeric character that is not a digit is unexpected
        ("fof(a, axiom, p(½)).", ParseError, "unexpected character '½'", 1, 17),
        ("fof('ab\ncd', axiom, p).", ParseError, "unterminated quoted name", 1, 5),
        ("fof(a, axiom, p).\nfof('ab", ParseError, "unterminated quoted name", 2, 5),
        # an escaped quote does not end the name
        (r"fof(a, axiom, p('it\'s)).", ParseError, "unterminated quoted name", 1, 17),
        (r"fof(a, axiom, p('a\nb')).", ParseError, r"invalid escape '\\n' in a quoted name",
         1, 19),
        ('fof(a, axiom, p("obj")).', UnsupportedError, "distinct objects are not supported",
         1, 17),
        ("fof(a, axiom, p # q).", ParseError, "unexpected character '#'", 1, 17),
        ("fof(a, axiom,\x0cp).", ParseError, "unexpected character '\\x0c'", 1, 14),
        # a non-ASCII letter starts a word, here an unknown directive
        ("élan(X).", UnsupportedError, "unknown directive 'élan'", 1, 1),
        # end of input after a trailing comment is where the input ends
        ("fof(a,axiom,p) % note", ParseError, "expected '.', found ''", 1, 22),
        ("fof(a,axiom,p)   ", ParseError, "expected '.', found ''", 1, 18),
        ("fof(a, axiom, p) \n% trailing\n", ParseError, "expected '.', found ''", 3, 1),
        # parse errors, placed by re-scanning the text up to the offending
        # token: the comments, escapes and newlines before it must count
        ("% line one\n% line two, with 'quotes' and (parens)\n%\nfof(a, axiom, p(a) & ).\n",
         ParseError, "expected a formula, found ')'", 4, 22),
        (r"fof('it\'s a \\ name', axiom, p('x\'y') q).", ParseError,
         "expected ')', found 'q'", 1, 41),
        ("fof(a, axiom, p(a)).\nfof(b, axiom,\n  q(a) & p(a, b)).", ParseError,
         "symbol 'p' used with arity 2 and 1", 3, 10),
        ("fof(a, axiom,\n  p(a, , b)).", ParseError, "expected a term, found ','", 2, 8),
        ("include(\n  X).", ParseError, "expected a quoted include path", 2, 3),
        ("% a comment\ninclude('a.ax').", ParseError,
         "include directive without a source directory", 2, 9),
        ("fof(a, axiom, p(a)).\n\n   fof(b, axiom, ! [x] : p(x)).", ParseError,
         "expected a variable, found 'x'", 3, 21),
        ("fof(a, axiom, p).\n  fof(b, axiom, X).", ParseError,
         "expected '=' or '!=' after a term, found ')'", 2, 18),
        ("fof(a, axiom, p => q => r).", ParseError,
         "'=>' is non-associative; parenthesize", 1, 22),
        ("fof(a, axiom, p & q | r).", ParseError,
         "cannot mix '&' with '|' without parentheses", 1, 21),
        ("fof(a, axiom, p).\n(", ParseError,
         "expected a cnf/fof/include directive, found '('", 2, 1),
        ("fof(, axiom, p).", ParseError, "expected a formula name", 1, 5),
    ]

    @pytest.mark.parametrize("text,cls,message,line,col", CASES)
    def test_error_class_message_and_position(self, text, cls, message, line, col):
        with pytest.raises(ParseError) as ei:
            parse_problem(text)
        assert type(ei.value) is cls
        assert str(ei.value) == f"{line}:{col}: {message}"
        assert (ei.value.line, ei.value.col) == (line, col)


class TestIncludes:
    def test_include_is_flattened(self, tmp_path):
        (tmp_path / "sub.ax").write_text("fof(inc1, axiom, p(a)).\n")
        main = tmp_path / "main.p"
        main.write_text("include('sub.ax').\nfof(m, conjecture, p(a)).\n")
        prob = parse_problem_file(str(main))
        assert [f.name for f in prob] == ["inc1", "m"]

    def test_include_cycle_reads_each_file_once(self, tmp_path):
        (tmp_path / "a.ax").write_text("include('b.ax').\nfof(fa, axiom, q(a)).\n")
        (tmp_path / "b.ax").write_text("include('a.ax').\nfof(fb, axiom, r(a)).\n")
        top = tmp_path / "top.p"
        top.write_text("include('a.ax').\n")
        prob = parse_problem_file(str(top))
        assert sorted(f.name for f in prob) == ["fa", "fb"]

    def test_missing_include_is_a_parse_error(self, tmp_path):
        top = tmp_path / "miss.p"
        top.write_text("include('nope.ax').\n")
        with pytest.raises(ParseError) as ei:
            parse_problem_file(str(top))
        assert "nope.ax" in str(ei.value)

    def test_error_in_an_included_file_is_placed_in_that_file(self, tmp_path):
        (tmp_path / "bad.ax").write_text("% header\nfof(b, axiom,\n   p(a) | ).\n")
        top = tmp_path / "top.p"
        top.write_text("fof(a, axiom, q(a)).\ninclude('bad.ax').\n")
        with pytest.raises(ParseError) as ei:
            parse_problem_file(str(top))
        assert str(ei.value) == "3:11: expected a formula, found ')'"

    def test_an_include_that_is_not_utf8_is_a_parse_error_naming_it(self, tmp_path):
        (tmp_path / "bin.ax").write_bytes(b"\xff\n")
        top = tmp_path / "top.p"
        top.write_text("fof(a, axiom, q(a)).\ninclude('bin.ax').\n")
        with pytest.raises(ParseError) as ei:
            parse_problem_file(str(top))
        assert str(ei.value) == (f"2:9: cannot read include file 'bin.ax': {tmp_path / 'bin.ax'}: "
                                 f"'utf-8' codec can't decode byte 0xff in position 0: "
                                 f"invalid start byte")

    def test_include_without_source_dir_fails(self):
        with pytest.raises(ParseError):
            parse_problem("include('anything.ax').")


class TestCorpusFilesParse:
    def test_every_bundled_problem_parses(self):
        from contab.corpus import corpus_problems

        paths = corpus_problems()
        assert paths
        for path in paths:
            prob = parse_problem_file(path)
            assert prob, path


# --- round trip: random ASTs, printed here, parse back to themselves -------

VARIABLES = ["X", "Y", "Z"]
# one arity per symbol, so that no printed problem has an arity clash
terms = st.recursive(
    st.sampled_from(VARIABLES + [("a",), ("b",)]),
    lambda sub: st.one_of(st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub, sub)),
    max_leaves=4)
atoms = st.one_of(
    st.builds(lambda t: FAtom("p", (t,)), terms),
    st.builds(lambda s, t: FAtom("q", (s, t)), terms, terms),
    st.just(FAtom("r", ())),
    st.builds(lambda s, t: FAtom(EQ, (s, t)), terms, terms),
    st.builds(FConst, st.booleans()))
# at most 6 atoms: a nest of 5 equivalences is 2 620 clauses, one more is
# 335 878
formulas = st.recursive(atoms, lambda sub: st.one_of(
    st.builds(FNeg, sub),
    st.builds(FBin, st.sampled_from(["&", "|", "=>", "<=>"]), sub, sub),
    st.builds(FQuant, st.sampled_from(["!", "?"]),
              st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=2,
                       unique=True).map(tuple), sub)),
    max_leaves=6)
problems = st.lists(
    st.tuples(st.sampled_from(["axiom", "hypothesis", "conjecture", "negated_conjecture"]),
              formulas),
    min_size=1, max_size=3).map(lambda fs: tuple(
        AnnotatedFormula(f"f{i}", role, f, "fof") for i, (role, f) in enumerate(fs)))


def tptp_term(t):
    if type(t) is str:
        return t
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(tptp_term(a) for a in t[1:])})"


def tptp_text(problem, rng):
    """The TPTP text of ``problem``: every binary formula in parentheses,
    and between any two tokens a gap ``rng`` picks, from none to a comment.
    A negated equation is written ``~s = t`` or ``s != t``."""
    def gap():
        return rng.choice(["", " ", "  ", "\n", "\t", " % note\n"])

    def formula(f):
        if isinstance(f, FAtom):
            if f.pred == EQ:
                return f"{tptp_term(f.args[0])}{gap()}={gap()}{tptp_term(f.args[1])}"
            return tptp_term((f.pred,) + f.args)
        if isinstance(f, FConst):
            return "$true" if f.value else "$false"
        if isinstance(f, FNeg):
            if isinstance(f.sub, FAtom) and f.sub.pred == EQ and rng.random() < 0.5:
                lhs, rhs = f.sub.args
                return f"{tptp_term(lhs)}{gap()}!={gap()}{tptp_term(rhs)}"
            return f"~{gap()}{formula(f.sub)}"
        if isinstance(f, FQuant):
            return f"{f.q}{gap()}[{gap()}{','.join(f.vars)}{gap()}]{gap()}:{gap()}({formula(f.sub)})"
        return f"({gap()}{formula(f.left)}{gap()}{f.op}{gap()}{formula(f.right)}{gap()})"

    return "".join(f"{gap()}fof({af.name},{gap()}{af.role},{gap()}{formula(af.formula)}){gap()}.\n"
                   for af in problem)


def clausified(problem):
    try:
        return clausify(problem).dump()
    except ClausifyError as e:
        return f"ClausifyError: {e}"


@settings(max_examples=80, deadline=None)
@given(problems, st.randoms(use_true_random=False))
def test_printed_problems_parse_back_to_their_ast(problem, rng):
    parsed = parse_problem(tptp_text(problem, rng))
    assert parsed == problem
    assert clausified(parsed) == clausified(problem)
