"""Parser for the untyped CNF/FOF subset of the TPTP syntax.

Accepted inputs: ``cnf(name, role, formula).`` and ``fof(name, role,
formula).`` annotated formulas, ``include('file').`` directives, ``%`` line
comments, quoted names with the escapes ``\\\\`` and ``\\'``, connectives
``~ & | => <=>``, quantifiers ``![X]:`` / ``?[X]:``, infix ``=`` / ``!=``
and the constants ``$true`` / ``$false``.

The tokenizer is one pattern, ``_TOKEN``: each match is one token, its
leading whitespace and comments included, and its one group is the
token's text, so a single ``re.findall`` gives every token's text.  A
token's kind comes from a dict lookup on its text (operators,
punctuation, ``$true``/``$false``, and the empty text that ends the
input) or else on its first character (words led by an ASCII letter or
``_``, and quoted names).  Only the rare token that neither table places
is looked at once more: a quoted name loses its quotes and escapes, a word
led by a non-ASCII letter gets its case, and anything else is a lexical
error.  The tokens are two parallel lists, their kinds and their texts,
with no per-token object; a recursive-descent parser reads them, its
per-token methods indexing the lists directly.  Line and column are found
only when an error is raised, by re-scanning the text up to the offending
token's index, whether the error is lexical or a parse error.

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


# ---------------------------------------------------------------------------
# tokenizer

# one match per token: leading whitespace and ``%`` comments, then the
# token itself as the one group; the alternatives are tried in this order:
# the unsupported connectives before the operators they begin with, then
# operators, quoted names, an unterminated quote or a distinct object's
# quote, defined symbols, words, the end of the text (an empty token), and
# any other character
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*
    (
        <~>|<=(?!>)|~[&|]
      | <=>|=>|!=|[()\[\],.:&|~!?=]
      | '(?:[^'\\\n]|\\[^\n])*'
      | ['"]
      | \$\w*
      | \w+
      | \Z
      | .
    )
""", re.VERBOSE | re.DOTALL)

# a token's kind by its text, else by its first character; a token that
# neither table places is a word led by a non-ASCII letter or no token
_KINDS = {
    "(": "LP", ")": "RP", "[": "LB", "]": "RB",
    ",": "COMMA", ".": "DOT", ":": "COLON",
    "&": "AND", "|": "OR", "~": "NOT", "!": "BANG", "?": "QUEST", "=": "EQ",
    "<=>": "IFF", "=>": "IMPL", "!=": "NEQ",
    "$true": "DEFINED", "$false": "DEFINED", "": "EOF",
}
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "UPPER")
_FIRST.update(dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "LOWER"))
_FIRST["'"] = "QUOTED"


def _token_where(text: str, index: int) -> Tuple[int, int]:
    """The 1-based line and column of the ``index``-th token of ``text``:
    each ``_TOKEN`` match is one token, whether or not it is a valid one."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == index:
            offset = m.start(1)
            return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    raise IndexError(index)


def _tokenize(text: str) -> Tuple[List[str], List[str]]:
    """The kinds and the texts of the tokens of ``text``, as two parallel
    lists that end with the ``EOF`` token.  There is no per-token tuple:
    a 2-tuple falls in the same allocator size class as the symbol strings
    that outlive the parse, and the freed tokens would leave that class
    full of holes (2 MB after setting up the wide benchmark problems)."""
    texts = _TOKEN.findall(text)
    if len(texts) > 1 and not texts[-2]:
        # the end of a text that ends in whitespace matches twice: once
        # after the whitespace and once more, empty, at the same offset
        texts.pop()
    by_text = _KINDS.get
    by_first = _FIRST.get
    kinds = [by_text(tok) or by_first(tok[0], "?") for tok in texts]
    if "?" in kinds or "QUOTED" in kinds:
        _resolve(kinds, texts, text)
    return kinds, texts


def _resolve(kinds: List[str], texts: List[str], text: str) -> None:
    """Settles, in token order, the tokens ``_tokenize`` left open: a
    quoted name loses its quotes and escapes, a word led by a non-ASCII
    letter gets its case, and the first token that is none raises."""
    for i, kind in enumerate(kinds):
        if kind == "QUOTED":
            tok = texts[i]
            if len(tok) == 1:
                raise ParseError("unterminated quoted name", *_token_where(text, i))
            texts[i] = _unescape(tok[1:-1], text, i) if "\\" in tok else tok[1:-1]
        elif kind == "?":
            c = texts[i][0]
            if not c.isalpha():
                raise _lexical_error(texts[i], *_token_where(text, i))
            kinds[i] = "UPPER" if c.isupper() else "LOWER"


def _unescape(name: str, text: str, index: int) -> str:
    """The quoted name ``name`` of the ``index``-th token of ``text`` with
    its ``\\\\`` and ``\\'`` escapes resolved; any other escape is an
    error."""
    def resolve(m):
        if m.group(1) not in "\\'":
            line, col = _token_where(text, index)
            raise ParseError(f"invalid escape {m.group()!r} in a quoted name",
                             line, col + 1 + m.start())
        return m.group(1)
    return re.sub(r"\\(.)", resolve, name)


def _lexical_error(tok: str, line: int, col: int) -> ParseError:
    """The error for the text ``tok``, which is no token."""
    if tok[0].isdigit():
        return UnsupportedError("numeric terms are not supported", line, col)
    if tok[0] == "$":
        return UnsupportedError(f"defined symbol '{tok}' is not supported", line, col)
    if tok in ("<~>", "<=", "~&", "~|"):
        return UnsupportedError(f"connective '{tok}' is not supported", line, col)
    if tok == '"':
        return UnsupportedError("distinct objects are not supported", line, col)
    # any other character, or a word led by a numeric character that is
    # no digit
    return ParseError(f"unexpected character {tok[0]!r}", line, col)


# ---------------------------------------------------------------------------
# recursive-descent parser

_LANG_DIRECTIVES = ("cnf", "fof")
_KNOWN_UNSUPPORTED = ("thf", "tff", "tcf", "tpi")
_BINARY = ("IMPL", "IFF", "AND", "OR")


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
        pos = self.pos
        self.pos = pos + 1
        return self.texts[pos]

    def expect(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.error(f"expected {what}, found {self.texts[pos]!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def fail(self, msg: str, index: int, cls=ParseError):
        """Raise ``cls`` at the ``index``-th token."""
        raise cls(msg, *_token_where(self.text, index))

    def error(self, msg: str):
        self.fail(msg, self.pos)

    # -- top level ----------------------------------------------------------

    def parse_problem(self) -> Tuple[AnnotatedFormula, ...]:
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
        return tuple(out)

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
        return sub.parse_problem()

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
    #
    # The methods below run once per token or per subformula, so they read
    # the token lists directly instead of calling peek/next/expect.

    def _parse_formula(self):
        left = self._parse_unitary()
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "IMPL" or kind == "IFF":
            op = self.next()
            right = self._parse_unitary()
            if kinds[self.pos] in _BINARY:
                self.error(f"'{op}' is non-associative; parenthesize")
            return FBin(op, left, right)
        if kind == "AND" or kind == "OR":
            op = self.texts[self.pos]
            node = left
            while kinds[self.pos] == kind:
                self.pos += 1
                node = FBin(op, node, self._parse_unitary())
            if kinds[self.pos] in _BINARY:
                self.error(f"cannot mix '{op}' with '{self.texts[self.pos]}' without parentheses")
            return node
        return left

    def _parse_unitary(self):
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "BANG" or kind == "QUEST":
            q = self.texts[self.pos]
            self.pos += 1
            self.expect("LB", "'['")
            vars_: List[str] = [self.expect("UPPER", "a variable")]
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                vars_.append(self.expect("UPPER", "a variable"))
            self.expect("RB", "']'")
            self.expect("COLON", "':'")
            return FQuant(q, tuple(vars_), self._parse_unitary())
        if kind == "NOT":
            self.pos += 1
            return FNeg(self._parse_unitary())
        if kind == "LP":
            self.pos += 1
            f = self._parse_formula()
            self.expect("RP", "')'")
            return f
        return self._parse_atomic()

    def _parse_atomic(self):
        at = self.pos
        kind = self.kinds[at]
        if kind == "LOWER" or kind == "QUOTED":
            app = self._parse_term(checked=False)
            if self.kinds[self.pos] not in ("EQ", "NEQ"):
                self._check_arity(self.pred_arity, app[0], len(app) - 1, at)
                return FAtom(app[0], app[1:])
            self._check_arity(self.fun_arity, app[0], len(app) - 1, at)
            return self._parse_equation_rest(app)
        if kind == "UPPER":
            # a bare variable is only a formula as one side of an equation
            return self._parse_equation_rest(self.next())
        if kind == "DEFINED":
            return FConst(self.next() == "$true")
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
        kinds = self.kinds
        at = self.pos
        kind = kinds[at]
        if kind == "UPPER":
            self.pos = at + 1
            return self.texts[at]
        if kind != "LOWER" and kind != "QUOTED":
            self.error(f"expected a term, found {self.texts[at]!r}")
        if kinds[at + 1] != "LP":
            self.pos = at + 1
            app = (self.texts[at],)
        else:
            self.pos = at + 2
            args = [self.texts[at], self._parse_term()]
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self._parse_term())
            self.expect("RP", "')'")
            app = tuple(args)
        if checked:
            self._check_arity(self.fun_arity, app[0], len(app) - 1, at)
        return app

    def _check_arity(self, table: dict, sym: str, arity: int, at: int):
        """Record ``sym`` with ``arity``; a clash is an error at token ``at``."""
        prev = table.setdefault(sym, arity)
        if prev != arity:
            self.fail(f"symbol {sym!r} used with arity {arity} and {prev}", at)

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


def parse_problem(text: str, source_dir: Optional[str] = None) -> Tuple[AnnotatedFormula, ...]:
    """Parse a TPTP-subset document into its annotated formulas, in input
    order, with included files' formulas in place of their directives."""
    return _Parser(text, source_dir).parse_problem()


def parse_problem_file(path) -> Tuple[AnnotatedFormula, ...]:
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem(text, os.path.dirname(os.path.abspath(path)))

