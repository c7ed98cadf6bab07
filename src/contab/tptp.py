"""Parser for the untyped CNF/FOF subset of the TPTP syntax.

Accepted inputs: ``cnf(name, role, formula).`` and ``fof(name, role,
formula).`` annotated formulas, ``include('file').`` directives, ``%`` line
comments, quoted names with the escapes ``\\\\`` and ``\\'``, connectives
``~ & | => <=>``, quantifiers ``![X]:`` / ``?[X]:``, infix ``=`` / ``!=``
and the constants ``$true`` / ``$false``.

The tokenizer is one table, the compiled pattern ``_TOKEN`` with a named
group per token class, read by ``re.finditer``; each match is one token,
its leading whitespace and comments included.  The tokens are two
parallel lists, their kinds and their texts, with no per-token object;
a recursive-descent parser reads them.  Line and column are found only
when an error is raised: from the match offset for a lexical error, and
by re-scanning the text up to the offending token's index for a parse
error.

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

# one match per token: leading whitespace and ``%`` comments, then one
# alternative per token class, tried in this order; the unsupported
# connectives come before the operators they begin with, and ``EOF``
# matches only at the end of the text
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*
    (?:
        (?P<UNSUPPORTED><~>|<=(?!>)|~[&|])
      | (?P<PUNCT><=>|=>|!=|[()\[\],.:&|~!?=])
      | (?P<QUOTED>'(?:[^'\\\n]|\\[^\n])*')
      | (?P<UNTERMINATED>')
      | (?P<DISTINCT>")
      | (?P<DEFINED>\$\w*)
      | (?P<WORD>\w+)
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )
""", re.VERBOSE | re.DOTALL)

_PUNCT = {
    "(": "LP", ")": "RP", "[": "LB", "]": "RB",
    ",": "COMMA", ".": "DOT", ":": "COLON",
    "&": "AND", "|": "OR", "~": "NOT", "!": "BANG", "?": "QUEST", "=": "EQ",
    "<=>": "IFF", "=>": "IMPL", "!=": "NEQ",
}


def _where(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_where(text: str, index: int) -> Tuple[int, int]:
    """The line and column of the ``index``-th token of ``text``, which
    tokenizes without error: each ``_TOKEN`` match is one token."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return _where(text, m.start(m.lastgroup))
    raise IndexError(index)


def _unescape(name: str, text: str, offset: int) -> str:
    """The quoted name ``name``, which starts at ``offset`` in ``text``,
    with its ``\\\\`` and ``\\'`` escapes resolved; any other escape is an
    error."""
    def resolve(m):
        if m.group(1) not in "\\'":
            raise ParseError(f"invalid escape {m.group()!r} in a quoted name",
                             *_where(text, offset + m.start()))
        return m.group(1)
    return re.sub(r"\\(.)", resolve, name)


def _tokenize(text: str) -> Tuple[List[str], List[str]]:
    """The kinds and the texts of the tokens of ``text``, as two parallel
    lists that end with the ``EOF`` token.  There is no per-token tuple:
    a 2-tuple falls in the same allocator size class as the symbol strings
    that outlive the parse, and the freed tokens would leave that class
    full of holes (2 MB after setting up the wide benchmark problems)."""
    kinds: List[str] = []
    texts: List[str] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        if kind == "PUNCT":
            kind = _PUNCT[tok]
        elif kind == "WORD" and (tok[0].isalpha() or tok[0] == "_"):
            kind = "UPPER" if tok[0].isupper() or tok[0] == "_" else "LOWER"
        elif kind == "QUOTED":
            tok = tok[1:-1]
            if "\\" in tok:
                tok = _unescape(tok, text, m.start(kind) + 1)
        elif kind == "EOF":
            break
        elif kind != "DEFINED" or tok not in ("$true", "$false"):
            raise _lexical_error(kind, tok, *_where(text, m.start(kind)))
        kinds.append(kind)
        texts.append(tok)
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _lexical_error(kind: str, tok: str, line: int, col: int) -> ParseError:
    """The error for the match ``tok`` of ``kind``, which is no token."""
    if kind == "WORD" and tok[0].isdigit():
        return UnsupportedError("numeric terms are not supported", line, col)
    if kind == "DEFINED":
        return UnsupportedError(f"defined symbol '{tok}' is not supported", line, col)
    if kind == "UNSUPPORTED":
        return UnsupportedError(f"connective '{tok}' is not supported", line, col)
    if kind == "DISTINCT":
        return UnsupportedError("distinct objects are not supported", line, col)
    if kind == "UNTERMINATED":
        return ParseError("unterminated quoted name", line, col)
    # BAD, or a WORD that starts with neither a letter nor a digit
    return ParseError(f"unexpected character {tok[0]!r}", line, col)


# ---------------------------------------------------------------------------
# recursive-descent parser

_LANG_DIRECTIVES = ("cnf", "fof")
_KNOWN_UNSUPPORTED = ("thf", "tff", "tcf", "tpi")


class _Parser:
    def __init__(self, text: str, source_dir: Optional[str] = None, _seen=None):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.source_dir = source_dir
        self.seen_includes = _seen if _seen is not None else set()
        # symbol -> arity, checked separately for functions and predicates
        self.fun_arity: dict = {}
        self.pred_arity: dict = {}

    def peek(self) -> str:
        """The kind of the next token."""
        return self.kinds[self.pos]

    def next(self) -> str:
        """The text of the next token, which is consumed."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        if self.kinds[self.pos] != kind:
            self.error(f"expected {what}, found {self.texts[self.pos]!r}")
        return self.next()

    def fail(self, msg: str, index: int, cls=ParseError):
        """Raise ``cls`` at the ``index``-th token."""
        raise cls(msg, *_token_where(self.text, index))

    def error(self, msg: str):
        self.fail(msg, self.pos)

    # -- top level ----------------------------------------------------------

    def parse_problem(self) -> Problem:
        out: List[AnnotatedFormula] = []
        while self.peek() != "EOF":
            text = self.texts[self.pos]
            if self.peek() != "LOWER":
                self.error(f"expected a cnf/fof/include directive, found {text!r}")
            if text in _KNOWN_UNSUPPORTED:
                self.fail(f"'{text}' inputs are not supported (untyped cnf/fof only)", self.pos,
                          UnsupportedError)
            if text == "include":
                out.extend(self._parse_include())
                continue
            if text not in _LANG_DIRECTIVES:
                self.fail(f"unknown directive '{text}'", self.pos, UnsupportedError)
            out.append(self._parse_annotated(text))
        return Problem(tuple(out))

    def _parse_include(self):
        self.next()  # include
        self.expect("LP", "'('")
        at = self.pos
        if self.peek() not in ("QUOTED", "LOWER"):
            self.error("expected a quoted include path")
        name = self.next()
        self.expect("RP", "')'")
        self.expect("DOT", "'.'")
        if self.source_dir is None:
            self.fail("include directive without a source directory", at)
        path = os.path.normpath(os.path.join(self.source_dir, name))
        if path in self.seen_includes:
            return []
        self.seen_includes.add(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            self.fail(f"cannot read include file {name!r}: {e}", at)
        sub = _Parser(text, os.path.dirname(path), self.seen_includes)
        sub.fun_arity = self.fun_arity
        sub.pred_arity = self.pred_arity
        return list(sub.parse_problem().formulas)

    def _parse_annotated(self, lang: str) -> AnnotatedFormula:
        self.next()  # cnf/fof
        self.expect("LP", "'('")
        if self.peek() not in ("LOWER", "QUOTED"):
            self.error("expected a formula name")
        name = self.next()
        self.expect("COMMA", "','")
        role = self.expect("LOWER", "a role")
        self.expect("COMMA", "','")
        if lang == "cnf":
            formula = self._parse_cnf_formula()
        else:
            formula = self._parse_formula()
        self.expect("RP", "')'")
        self.expect("DOT", "'.'")
        return AnnotatedFormula(name, role, formula, lang)

    # -- fof formulas -------------------------------------------------------

    def _parse_formula(self):
        left = self._parse_unitary()
        kind = self.peek()
        if kind in ("IMPL", "IFF"):
            op = self.next()
            right = self._parse_unitary()
            if self.peek() in ("IMPL", "IFF", "AND", "OR"):
                self.error(f"'{op}' is non-associative; parenthesize")
            return FBin(op, left, right)
        if kind in ("AND", "OR"):
            op = self.texts[self.pos]
            parts = [left]
            while self.peek() == kind:
                self.next()
                parts.append(self._parse_unitary())
            if self.peek() in ("IMPL", "IFF", "AND", "OR"):
                self.error(f"cannot mix '{op}' with '{self.texts[self.pos]}' without parentheses")
            node = parts[0]
            for p in parts[1:]:
                node = FBin(op, node, p)
            return node
        return left

    def _parse_unitary(self):
        kind = self.peek()
        if kind in ("BANG", "QUEST"):
            q = self.next()
            self.expect("LB", "'['")
            vars_: List[str] = []
            while True:
                vars_.append(self.expect("UPPER", "a variable"))
                if self.peek() == "COMMA":
                    self.next()
                    continue
                break
            self.expect("RB", "']'")
            self.expect("COLON", "':'")
            sub = self._parse_unitary()
            return FQuant(q, tuple(vars_), sub)
        if kind == "NOT":
            self.next()
            return FNeg(self._parse_unitary())
        if kind == "LP":
            self.next()
            f = self._parse_formula()
            self.expect("RP", "')'")
            return f
        return self._parse_atomic()

    def _parse_atomic(self):
        at = self.pos
        kind = self.peek()
        if kind == "DEFINED":
            return FConst(self.next() == "$true")
        if kind == "UPPER":
            # a bare variable is only a formula as one side of an equation
            return self._parse_equation_rest(self.next())
        if kind in ("LOWER", "QUOTED"):
            app = self._parse_term(checked=False)
            equation = self.peek() in ("EQ", "NEQ")
            self._check_arity(self.fun_arity if equation else self.pred_arity, app[0], len(app) - 1, at)
            return self._parse_equation_rest(app) if equation else FAtom(app[0], app[1:])
        self.error(f"expected a formula, found {self.texts[self.pos]!r}")

    def _parse_equation_rest(self, lhs):
        kind = self.peek()
        if kind == "EQ":
            self.next()
            return FAtom(EQ, (lhs, self._parse_term()))
        if kind == "NEQ":
            self.next()
            return FNeg(FAtom(EQ, (lhs, self._parse_term())))
        self.error(f"expected '=' or '!=' after a term, found {self.texts[self.pos]!r}")

    def _parse_term(self, checked: bool = True):
        """A variable or an application ``(symbol, arg...)``; unless
        ``checked`` is false, the symbol's arity is checked as a
        function's.  An atom is parsed as an unchecked application."""
        at = self.pos
        kind = self.peek()
        if kind == "UPPER":
            return self.next()
        if kind not in ("LOWER", "QUOTED"):
            self.error(f"expected a term, found {self.texts[self.pos]!r}")
        app = [self.next()]
        if self.peek() == "LP":
            self.next()
            app.append(self._parse_term())
            while self.peek() == "COMMA":
                self.next()
                app.append(self._parse_term())
            self.expect("RP", "')'")
        if checked:
            self._check_arity(self.fun_arity, app[0], len(app) - 1, at)
        return tuple(app)

    def _check_arity(self, table: dict, sym: str, arity: int, at: int):
        """Record ``sym`` with ``arity``; a clash is an error at token ``at``."""
        prev = table.get(sym)
        if prev is not None and prev != arity:
            self.fail(f"symbol {sym!r} used with arity {arity} and {prev}", at)
        table[sym] = arity

    # -- cnf formulas -------------------------------------------------------

    def _parse_cnf_formula(self):
        # literals never begin with '(', so a leading paren always wraps
        # the whole disjunction
        if self.peek() == "LP":
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
        while self.peek() == "OR":
            self.next()
            lits.append(self._parse_cnf_literal())
        return lits

    def _parse_cnf_literal(self):
        if self.peek() == "NOT":
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

