"""Parser and printer for the untyped CNF/FOF subset of the TPTP syntax.

Accepted inputs: ``cnf(name, role, formula).`` and ``fof(name, role,
formula).`` annotated formulas, ``include('file').`` directives, ``%`` line
comments, quoted names with the escapes ``\\\\`` and ``\\'``, connectives
``~ & | => <=>``, quantifiers ``![X]:`` / ``?[X]:``, infix ``=`` / ``!=``
and the constants ``$true`` / ``$false``.

The tokenizer is one table, the compiled pattern ``_TOKEN`` with a named
group per token class, read by ``re.finditer``; a token's line and column
come from its match offset.  A recursive-descent parser reads the tokens.

Parse-level terms use strings for variables (TPTP upper-case words) and
tuples ``(symbol, arg...)`` for function applications; clausification maps
them onto the integer-variable representation in :mod:`contab.terms`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .terms import EQ


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnsupportedError(ParseError):
    """Input is well-formed TPTP but outside the supported subset."""


# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class FAtom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class FNeg:
    sub: object


@dataclass(frozen=True)
class FBin:
    op: str  # '&' '|' '=>' '<=>'
    left: object
    right: object


@dataclass(frozen=True)
class FQuant:
    q: str  # '!' '?'
    vars: Tuple[str, ...]
    sub: object


@dataclass(frozen=True)
class FConst:
    value: bool  # $true / $false


class AnnotatedFormula(NamedTuple):
    name: str
    role: str
    formula: object
    lang: str  # 'cnf' or 'fof'


class Problem(NamedTuple):
    formulas: Tuple[AnnotatedFormula, ...]


# ---------------------------------------------------------------------------
# tokenizer

# one alternative per token class, tried in this order at each position;
# the unsupported connectives come before the operators they begin with
_TOKEN = re.compile(r"""
    (?P<SPACE>[ \t\r\n]+|%[^\n]*)
  | (?P<UNSUPPORTED><~>|<=(?!>)|~[&|])
  | (?P<PUNCT><=>|=>|!=|[()\[\],.:&|~!?=])
  | '(?P<QUOTED>(?:[^'\\\n]|\\[^\n])*)'
  | (?P<UNTERMINATED>')
  | (?P<DISTINCT>")
  | (?P<DEFINED>\$\w*)
  | (?P<WORD>\w+)
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)

_PUNCT = {
    "(": "LP", ")": "RP", "[": "LB", "]": "RB",
    ",": "COMMA", ".": "DOT", ":": "COLON",
    "&": "AND", "|": "OR", "~": "NOT", "!": "BANG", "?": "QUEST", "=": "EQ",
    "<=>": "IFF", "=>": "IMPL", "!=": "NEQ",
}


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _unescape(name: str, line: int, col: int) -> str:
    """The quoted name ``name``, which starts at column ``col``, with its
    ``\\\\`` and ``\\'`` escapes resolved; any other escape is an error."""
    def resolve(m):
        if m.group(1) not in "\\'":
            raise ParseError(f"invalid escape {m.group()!r} in a quoted name", line, col + m.start())
        return m.group(1)
    return re.sub(r"\\(.)", resolve, name)


def _tokenize(text: str):
    toks: List[_Tok] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() + 1 - line_start
        if kind == "SPACE":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = m.start() + tok.rindex("\n") + 1
        elif kind == "PUNCT":
            toks.append(_Tok(_PUNCT[tok], tok, line, col))
        elif kind == "WORD" and (tok[0].isalpha() or tok[0] == "_"):
            upper = tok[0].isupper() or tok[0] == "_"
            toks.append(_Tok("UPPER" if upper else "LOWER", tok, line, col))
        elif kind == "WORD" and tok[0].isdigit():
            raise UnsupportedError("numeric terms are not supported", line, col)
        elif kind == "QUOTED":
            name = m.group(kind)
            if "\\" in name:
                name = _unescape(name, line, col + 1)
            toks.append(_Tok("QUOTED", name, line, col))
        elif kind == "DEFINED":
            if tok not in ("$true", "$false"):
                raise UnsupportedError(f"defined symbol '{tok}' is not supported", line, col)
            toks.append(_Tok("DEFINED", tok, line, col))
        elif kind == "UNSUPPORTED":
            raise UnsupportedError(f"connective '{tok}' is not supported", line, col)
        elif kind == "DISTINCT":
            raise UnsupportedError("distinct objects are not supported", line, col)
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated quoted name", line, col)
        else:  # BAD, or a WORD that starts with neither a letter nor a digit
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
    toks.append(_Tok("EOF", "", line, len(text) + 1 - line_start))
    return toks


# ---------------------------------------------------------------------------
# recursive-descent parser

_LANG_DIRECTIVES = ("cnf", "fof")
_KNOWN_UNSUPPORTED = ("thf", "tff", "tcf", "tpi")


class _Parser:
    def __init__(self, text: str, source_dir: Optional[str] = None, _seen=None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.source_dir = source_dir
        self.seen_includes = _seen if _seen is not None else set()
        # symbol -> arity, checked separately for functions and predicates
        self.fun_arity: dict = {}
        self.pred_arity: dict = {}

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- top level ----------------------------------------------------------

    def parse_problem(self) -> Problem:
        out: List[AnnotatedFormula] = []
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind != "LOWER":
                self.error(f"expected a cnf/fof/include directive, found {t.text!r}")
            if t.text in _KNOWN_UNSUPPORTED:
                raise UnsupportedError(f"'{t.text}' inputs are not supported (untyped cnf/fof only)", t.line, t.col)
            if t.text == "include":
                out.extend(self._parse_include())
                continue
            if t.text not in _LANG_DIRECTIVES:
                raise UnsupportedError(f"unknown directive '{t.text}'", t.line, t.col)
            out.append(self._parse_annotated(t.text))
        return Problem(tuple(out))

    def _parse_include(self):
        self.next()  # include
        self.expect("LP", "'('")
        t = self.next()
        if t.kind not in ("QUOTED", "LOWER"):
            raise ParseError("expected a quoted include path", t.line, t.col)
        self.expect("RP", "')'")
        self.expect("DOT", "'.'")
        if self.source_dir is None:
            raise ParseError("include directive without a source directory", t.line, t.col)
        path = os.path.normpath(os.path.join(self.source_dir, t.text))
        if path in self.seen_includes:
            return []
        self.seen_includes.add(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read include file {t.text!r}: {e}", t.line, t.col)
        sub = _Parser(text, os.path.dirname(path), self.seen_includes)
        sub.fun_arity = self.fun_arity
        sub.pred_arity = self.pred_arity
        return list(sub.parse_problem().formulas)

    def _parse_annotated(self, lang: str) -> AnnotatedFormula:
        self.next()  # cnf/fof
        self.expect("LP", "'('")
        nt = self.next()
        if nt.kind not in ("LOWER", "QUOTED"):
            raise ParseError("expected a formula name", nt.line, nt.col)
        self.expect("COMMA", "','")
        rt = self.expect("LOWER", "a role")
        self.expect("COMMA", "','")
        if lang == "cnf":
            formula = self._parse_cnf_formula()
        else:
            formula = self._parse_formula()
        self.expect("RP", "')'")
        self.expect("DOT", "'.'")
        return AnnotatedFormula(nt.text, rt.text, formula, lang)

    # -- fof formulas -------------------------------------------------------

    def _parse_formula(self):
        left = self._parse_unitary()
        t = self.peek()
        if t.kind in ("IMPL", "IFF"):
            self.next()
            right = self._parse_unitary()
            nxt = self.peek()
            if nxt.kind in ("IMPL", "IFF", "AND", "OR"):
                self.error(f"'{t.text}' is non-associative; parenthesize")
            return FBin("=>" if t.kind == "IMPL" else "<=>", left, right)
        if t.kind in ("AND", "OR"):
            op = "&" if t.kind == "AND" else "|"
            parts = [left]
            while self.peek().kind == t.kind:
                self.next()
                parts.append(self._parse_unitary())
            nxt = self.peek()
            if nxt.kind in ("IMPL", "IFF", "AND", "OR"):
                self.error(f"cannot mix '{op}' with '{nxt.text}' without parentheses")
            node = parts[0]
            for p in parts[1:]:
                node = FBin(op, node, p)
            return node
        return left

    def _parse_unitary(self):
        t = self.peek()
        if t.kind in ("BANG", "QUEST"):
            self.next()
            self.expect("LB", "'['")
            vars_: List[str] = []
            while True:
                vt = self.expect("UPPER", "a variable")
                vars_.append(vt.text)
                if self.peek().kind == "COMMA":
                    self.next()
                    continue
                break
            self.expect("RB", "']'")
            self.expect("COLON", "':'")
            sub = self._parse_unitary()
            return FQuant("!" if t.kind == "BANG" else "?", tuple(vars_), sub)
        if t.kind == "NOT":
            self.next()
            return FNeg(self._parse_unitary())
        if t.kind == "LP":
            self.next()
            f = self._parse_formula()
            self.expect("RP", "')'")
            return f
        return self._parse_atomic()

    def _parse_atomic(self):
        t = self.peek()
        if t.kind == "DEFINED":
            self.next()
            return FConst(t.text == "$true")
        if t.kind == "UPPER":
            # a bare variable is only a formula as one side of an equation
            lhs = self.next().text
            return self._parse_equation_rest(lhs)
        if t.kind in ("LOWER", "QUOTED"):
            app = self._parse_term(checked=False)
            equation = self.peek().kind in ("EQ", "NEQ")
            self._check_arity(self.fun_arity if equation else self.pred_arity, t.text, len(app) - 1, t)
            return self._parse_equation_rest(app) if equation else FAtom(t.text, app[1:])
        self.error(f"expected a formula, found {t.text!r}")

    def _parse_equation_rest(self, lhs):
        op = self.next()
        if op.kind == "EQ":
            return FAtom(EQ, (lhs, self._parse_term()))
        if op.kind == "NEQ":
            return FNeg(FAtom(EQ, (lhs, self._parse_term())))
        raise ParseError(f"expected '=' or '!=' after a term, found {op.text!r}", op.line, op.col)

    def _parse_term(self, checked: bool = True):
        """A variable or an application ``(symbol, arg...)``; unless
        ``checked`` is false, the symbol's arity is checked as a
        function's.  An atom is parsed as an unchecked application."""
        t = self.next()
        if t.kind == "UPPER":
            return t.text
        if t.kind not in ("LOWER", "QUOTED"):
            raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
        app = [t.text]
        if self.peek().kind == "LP":
            self.next()
            app.append(self._parse_term())
            while self.peek().kind == "COMMA":
                self.next()
                app.append(self._parse_term())
            self.expect("RP", "')'")
        if checked:
            self._check_arity(self.fun_arity, t.text, len(app) - 1, t)
        return tuple(app)

    def _check_arity(self, table: dict, sym: str, arity: int, tok: _Tok):
        prev = table.get(sym)
        if prev is not None and prev != arity:
            raise ParseError(f"symbol {sym!r} used with arity {arity} and {prev}", tok.line, tok.col)
        table[sym] = arity

    # -- cnf formulas -------------------------------------------------------

    def _parse_cnf_formula(self):
        # literals never begin with '(', so a leading paren always wraps
        # the whole disjunction
        if self.peek().kind == "LP":
            self.next()
            lits = self._parse_cnf_disjunction()
            self.expect("RP", "')'")
        else:
            lits = self._parse_cnf_disjunction()
        node = lits[0]
        for l in lits[1:]:
            node = FBin("|", node, l)
        return node

    def _parse_cnf_disjunction(self):
        lits = [self._parse_cnf_literal()]
        while self.peek().kind == "OR":
            self.next()
            lits.append(self._parse_cnf_literal())
        return lits

    def _parse_cnf_literal(self):
        if self.peek().kind == "NOT":
            self.next()
            atom = self._parse_atomic()
            return FNeg(atom)
        return self._parse_atomic()


def parse_problem(text: str, source_dir: Optional[str] = None) -> Problem:
    """Parse a TPTP-subset document into a :class:`Problem` AST."""
    return _Parser(text, source_dir).parse_problem()


def parse_problem_file(path) -> Problem:
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem(text, os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# printer


def format_term(t) -> str:
    if isinstance(t, str):
        return t
    if len(t) == 1:
        return _quote(t[0])
    return f"{_quote(t[0])}({','.join(format_term(a) for a in t[1:])})"


def _quote(sym: str) -> str:
    if sym and sym[0].islower() and all(c.isalnum() or c == "_" for c in sym):
        return sym
    escaped = sym.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def format_formula(f) -> str:
    if isinstance(f, FConst):
        return "$true" if f.value else "$false"
    if isinstance(f, FAtom):
        if f.pred == EQ:
            return f"({format_term(f.args[0])} = {format_term(f.args[1])})"
        if not f.args:
            return _quote(f.pred)
        return f"{_quote(f.pred)}({','.join(format_term(a) for a in f.args)})"
    if isinstance(f, FNeg):
        if isinstance(f.sub, FAtom) and f.sub.pred == EQ:
            return f"({format_term(f.sub.args[0])} != {format_term(f.sub.args[1])})"
        return f"~{format_formula(f.sub)}"
    if isinstance(f, FBin):
        return f"({format_formula(f.left)} {f.op} {format_formula(f.right)})"
    if isinstance(f, FQuant):
        return f"{f.q}[{','.join(f.vars)}]: {format_formula(f.sub)}"
    raise TypeError(f"not a formula node: {f!r}")


def format_problem(problem: Problem) -> str:
    lines = []
    for af in problem.formulas:
        lines.append(f"{af.lang}({_quote(af.name)}, {af.role}, {format_formula(af.formula)}).")
    return "\n".join(lines) + "\n"
