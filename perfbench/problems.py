"""Deterministic problem generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed and
returns ``Problem`` records holding TPTP text, so the benchmark parses and
clausifies real input.  The seed renames symbols (with names of a fixed
length, so feature hashing does the same work) and orders the axioms of
the wide problems; the shape of each family (axiom counts, chain lengths
and rule order, term depths) is fixed, so runs on different seeds do the
same amount of work.

Each problem carries its expected answer: ``theorem`` (a proof exists;
the prover may still report it unsolved within its budget) or
``non-theorem`` (the clause set is satisfiable, so a reported proof is a
wrong verdict).
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Tuple

THEOREM = "theorem"
NON_THEOREM = "non-theorem"


class Problem(NamedTuple):
    name: str
    text: str
    expected: str
    # directory that include() directives resolve against (corpus only)
    source_dir: Optional[str] = None


def _namer(rng: random.Random):
    """Returns fresh(prefix) -> a unique lower-case TPTP word such as
    ``p4821``; the numeric part always has four digits."""
    used = set()

    def fresh(prefix: str) -> str:
        while True:
            name = f"{prefix}{rng.randrange(1000, 10000)}"
            if name not in used:
                used.add(name)
                return name
    return fresh


# ---------------------------------------------------------------------------
# group theory (eq-uniform)

EQ_CONJECTURES = [
    # (label, conjecture over mul/inv/unit/a/b, adds x*x=e, expected)
    ("comm", "{m}({a},{b}) = {m}({b},{a})", True, THEOREM),
    ("rid", "{m}({a},{e}) = {a}", False, THEOREM),
    ("invinv", "{i}({i}({a})) = {a}", False, THEOREM),
    ("invprod", "{i}({m}({a},{b})) = {m}({i}({b}),{i}({a}))", False, THEOREM),
    # short rewrites the uniform search does close, so verdict times
    # include solved problems
    ("lid2", "{m}({e},{m}({e},{a})) = {a}", False, THEOREM),
    ("unit", "{m}({e},{e}) = {e}", True, THEOREM),
]


def eq_problems(rng: random.Random) -> List[Problem]:
    """Group axioms (associativity, left identity, left inverse; some
    problems add x*x=e) with one conjecture each."""
    out = []
    for label, conj, square, expected in EQ_CONJECTURES:
        fresh = _namer(rng)
        s = dict(m=fresh("mul"), i=fresh("inv"), e=fresh("one"),
                 a=fresh("ca"), b=fresh("cb"))
        lines = [
            "fof(assoc, axiom, ![X,Y,Z]: {m}({m}(X,Y),Z) = {m}(X,{m}(Y,Z))).",
            "fof(left_identity, axiom, ![X]: {m}({e},X) = X).",
            "fof(left_inverse, axiom, ![X]: {m}({i}(X),X) = {e}).",
        ]
        if square:
            lines.append("fof(square, axiom, ![X]: {m}(X,X) = {e}).")
        lines.append(f"fof(goal, conjecture, {conj}).")
        text = "\n".join(ln.format(**s) for ln in lines) + "\n"
        out.append(Problem(f"eq_{label}", text, expected))
    return out


# ---------------------------------------------------------------------------
# implication chains (chain-loop)


class ChainVocabulary(NamedTuple):
    """Symbols shared by every chain of a workload, so what training
    learns on one chain carries over to the others."""
    const: str
    fun: str
    chain: List[str]                 # p_0 .. p_max
    lures: List[Tuple[str, str]]     # one (q_a, q_b) pair per distractor slot

    @classmethod
    def make(cls, rng: random.Random, length: int, width: int) -> "ChainVocabulary":
        fresh = _namer(rng)
        return cls(fresh("c"), fresh("f"), [fresh("p") for _ in range(length + 1)],
                   [(fresh("q"), fresh("q")) for _ in range(width)])


def chain_problem(name: str, n: int, k: int, vocab: ChainVocabulary,
                  broken: bool = False) -> Problem:
    """p0(c), rules p_i(X) => p_{i+1}(X), conjecture p_n(c).  Every step
    also has k distractor rules q_a(X) => p_{i+1}(X) whose q predicates
    only follow from each other on a growing term (q_b(f(X)) => q_a(X)
    and back), so a wrong choice is plausible but dies at the path limit.
    Each step's rules are shuffled by a generator seeded with the chain's
    shape, not the workload seed, so every seed poses equally hard chains
    under new names.  With ``broken`` one true rule is left out and the
    problem is satisfiable."""
    c, f, p = vocab.const, vocab.fun, vocab.chain
    rng = random.Random(n * 1000 + k)
    missing = rng.randrange(n) if broken else -1
    lines = [f"cnf(base, axiom, {p[0]}({c}))."]
    for j, (qa, qb) in enumerate(vocab.lures[:k]):
        lines.append(f"cnf(loop{j}a, axiom, ~{qb}({f}(X)) | {qa}(X)).")
        lines.append(f"cnf(loop{j}b, axiom, ~{qa}({f}(X)) | {qb}(X)).")
    for i in range(n):
        rules = [f"cnf(lure{i}_{j}, axiom, ~{qa}(X) | {p[i + 1]}(X))."
                 for j, (qa, _) in enumerate(vocab.lures[:k])]
        if i != missing:
            rules.append(f"cnf(step{i}, axiom, ~{p[i]}(X) | {p[i + 1]}(X)).")
        rng.shuffle(rules)
        lines.extend(rules)
    lines.append(f"fof(goal, conjecture, {p[n]}({c})).")
    return Problem(name, "\n".join(lines) + "\n", NON_THEOREM if broken else THEOREM)


CHAIN_LENGTHS = (4, 6, 8, 10, 12)
CHAIN_WIDTHS = (1, 2, 3)


def chain_problems(rng: random.Random, lengths=CHAIN_LENGTHS,
                   widths=CHAIN_WIDTHS) -> List[Problem]:
    """One chain for every (length, width) pair, over one vocabulary."""
    vocab = ChainVocabulary.make(rng, max(lengths), max(widths))
    return [chain_problem(f"chain_n{n}_k{k}", n, k, vocab)
            for n in lengths for k in widths]


# ---------------------------------------------------------------------------
# wide first-order problems, non-theorems, deep terms (batch-wide)


def wide_problem(name: str, axioms: int, rng: random.Random) -> Problem:
    """``axioms`` definitions r_j(X) <=> ?[Z]: (s_j(X,Z) & r_{j+1}(Z))
    (Skolemized one way, a universal the other way), facts that make the
    first three definitions fire, and a conjecture at r_0."""
    fresh = _namer(rng)
    r = [fresh("r") for _ in range(axioms + 1)]
    s = [fresh("s") for _ in range(axioms)]
    c = [fresh("c") for _ in range(4)]
    lines = [f"fof(def{j}, axiom, ![X]: ({r[j]}(X) <=> ?[Z]: ({s[j]}(X,Z) & {r[j + 1]}(Z)))).\n"
             for j in range(axioms)]
    rng.shuffle(lines)
    facts = [f"{s[j]}({c[j]},{c[j + 1]})" for j in range(3)]
    lines.append(f"fof(facts, axiom, {' & '.join(facts)} & {r[3]}({c[3]})).\n")
    lines.append(f"fof(goal, conjecture, ?[W]: {r[0]}(W)).\n")
    return Problem(name, "".join(lines), THEOREM)


WIDE_SIZES = (100, 200, 400, 800, 1500)


def non_theorems(rng: random.Random) -> List[Problem]:
    """Satisfiable problems: a rule that only recurses on a growing term,
    a chain with a missing link, and an equation that never reaches the
    goal's constant."""
    fresh = _namer(rng)
    p, f, g, a, b, c = (fresh(x) for x in ("p", "f", "g", "a", "b", "c"))
    out = [
        Problem("nt_grow", f"cnf(rule, axiom, {p}(X) | ~{p}({f}(X))).\n"
                           f"fof(goal, conjecture, {p}({a})).\n", NON_THEOREM),
        Problem("nt_grow2", f"cnf(rule, axiom, {p}(X,Y) | ~{p}({f}(X),{g}(Y))).\n"
                            f"fof(goal, conjecture, {p}({a},{b})).\n", NON_THEOREM),
        Problem("nt_eq", f"cnf(e1, axiom, {f}({a}) = {b}).\ncnf(fact, axiom, {p}({a})).\n"
                         f"fof(goal, conjecture, {p}({c})).\n", NON_THEOREM),
    ]
    out.append(chain_problem("nt_chain", 5, 2, ChainVocabulary.make(rng, 5, 2), broken=True))
    return out


# At the time of writing a term nested about 330 deep exhausts the
# interpreter stack inside search (the occurs check) and one about 450 deep
# inside clausification; 150 and 250 stay below both limits, 400 and 700
# are past one each and are the known defects below.
DEEP_DEPTHS = (150, 250)
KNOWN_DEFECTS = ((400, "RecursionError"), (700, "RecursionError"))


def deep_problem(name: str, depth: int, rng: random.Random) -> Problem:
    """p(t) and p(X) => q(X) with goal q(t), t a term nested ``depth``
    deep; the extension step binds X to t under the occurs check."""
    fresh = _namer(rng)
    p, q, f, c = fresh("p"), fresh("q"), fresh("f"), fresh("c")
    term = f"{f}(" * depth + c + ")" * depth
    text = (f"cnf(rule, axiom, ~{p}(X) | {q}(X)).\ncnf(fact, axiom, {p}({term})).\n"
            f"fof(goal, conjecture, {q}({term})).\n")
    return Problem(name, text, THEOREM)


def corpus_problems() -> List[Problem]:
    """The bundled corpus; its two designed dead ends are non-theorems."""
    from contab.corpus import corpus_problems as paths
    dead = {"nogoal", "wrong_const"}
    return [Problem(f"corpus_{p.stem}", p.read_text(encoding="utf-8"),
                    NON_THEOREM if p.stem in dead else THEOREM, str(p.parent))
            for p in paths()]


def batch_problems(rng: random.Random, wide_sizes=WIDE_SIZES,
                   deep_depths=DEEP_DEPTHS) -> List[Problem]:
    out = corpus_problems()
    out.extend(wide_problem(f"wide_{n}", n, rng) for n in wide_sizes)
    out.extend(non_theorems(rng))
    out.extend(deep_problem(f"deep_{d}", d, rng) for d in deep_depths)
    return out


def known_defect_problems(rng: random.Random) -> List[Tuple[Problem, str]]:
    """Deep-term problems past today's recursion limits, each with the
    exception class it raises at the time of writing.  They may fail with
    that class; once the defect is fixed they must get a right verdict."""
    return [(deep_problem(f"deep_{d}", d, rng), cls) for d, cls in KNOWN_DEFECTS]
