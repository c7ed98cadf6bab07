"""The benchmark's workloads: how each is set up and what one pass runs.

A workload turns seeded problems into engines (``setup``) and then runs
identical, deterministic passes over them (``Workload.run``).  The harness
repeats passes for the requested time, so every pass must produce the
same result lines; their hash is the workload's ``trace_hash``.  Problems
that fail today for a known reason are not in the passes: each is probed
once per run (``probe_known_defects``).  All
calls into the prover go through module attributes (``learn.prove_problems``
and so on) so that a traced pass sees the wrappers from ``tracing``.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from contab.learn import LoopConfig
from contab.policy import UniformPredictor
from contab.search import ProofResult, SearchLimits, format_result_line
from contab.tableau import Engine

from . import problems as gen

tptp = importlib.import_module("contab.tptp")
clausify = importlib.import_module("contab.clausify")
learn = importlib.import_module("contab.learn")
analysis = importlib.import_module("contab.analysis")

perf_counter = time.perf_counter


@dataclass
class Prepared:
    """Output of one set-up: an engine per problem, in problem order."""
    engines: List[Tuple[str, Engine]]
    expected: Dict[str, str]
    bytes: int
    clauses: int


@dataclass
class PassResult:
    wall: float
    lines: List[str]                 # hashed: no times in them
    results: List[ProofResult]       # every search, in order
    attempted: int
    failed: int
    solved: int
    gate_errors: List[str]           # raises, failed replays, wrong verdicts
    known_failures: Dict[str, str] = field(default_factory=dict)   # problem -> class
    iterations: int = 1
    loop_wall: Optional[float] = None   # prove/train loop alone, when the pass has one
    examples: int = 0
    states: int = 0
    solved_by_iteration: List[int] = field(default_factory=list)

    @property
    def trace_hash(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode("utf-8")).hexdigest()[:16]


def setup(problems: List[gen.Problem], engine_cls, path_limit: int) -> Prepared:
    """Parse, clausify and index every problem; any raise propagates."""
    engines = []
    nbytes = nclauses = 0
    for p in problems:
        nbytes += len(p.text.encode("utf-8"))
        matrix = clausify.clausify(tptp.parse_problem(p.text, p.source_dir))
        nclauses += len(matrix.clauses)
        engines.append((p.name, engine_cls(matrix, path_limit=path_limit)))
    return Prepared(engines, {p.name: p.expected for p in problems}, nbytes, nclauses)


def _proof_line(result: ProofResult) -> str:
    proof = ";".join(a.encode() for a in result.proof) if result.proof else "-"
    return f"{format_result_line(result)} proof={proof}"


class _Tally:
    """Checks verdicts and collects the hashed lines.  Proofs need no
    check here: ``search.prove`` replays every proof it finds through
    ``Engine.check_proof`` and raises when the replay fails, and every
    raise is a gate error."""

    def __init__(self, expected: Dict[str, str]):
        self.expected = expected
        self.lines: List[str] = []
        self.results: List[ProofResult] = []
        self.attempted = self.failed = self.solved = 0
        self.gate_errors: List[str] = []
        self.known_failures: Dict[str, str] = {}

    def error(self, name: str, exc: BaseException, known: Optional[str] = None) -> None:
        """A problem raised: tolerated only as its recorded known defect."""
        cls = type(exc).__name__
        self.attempted += 1
        self.failed += 1
        self.lines.append(f"problem={name} status=error error={cls}")
        if cls == known:
            self.known_failures[name] = cls
        else:
            self.gate_errors.append(f"{name}: raised {cls}: {exc}")

    def result(self, result: ProofResult) -> None:
        self.attempted += 1
        self.results.append(result)
        self.lines.append(_proof_line(result))
        if not result.solved:
            return
        if self.expected[result.problem] == gen.NON_THEOREM:
            self.failed += 1
            self.gate_errors.append(f"{result.problem}: non-theorem reported solved")
        else:
            self.solved += 1

    def finish(self, wall: float, **extra) -> PassResult:
        return PassResult(wall, self.lines, self.results, self.attempted, self.failed,
                          self.solved, self.gate_errors, self.known_failures, **extra)


def prove_isolated(engines, predictor, limits: SearchLimits, workers: int):
    """``learn.prove_problems`` over the batch.  A raise aborts the pool's
    map, so only then is every problem proved again on its own, to name
    the ones that raise.  Yields (name, result, examples, exception)."""
    try:
        pairs = learn.prove_problems(engines, predictor, limits, workers=workers)
    except Exception:
        pairs = None
    if pairs is not None:
        for (name, _), (result, examples) in zip(engines, pairs):
            yield name, result, len(examples), None
        return
    for name, engine in engines:
        try:
            [(result, examples)] = learn.prove_problems([(name, engine)], predictor, limits)
        except Exception as e:  # per-problem boundary: record and go on
            yield name, None, 0, e
        else:
            yield name, result, len(examples), None


def probe_known_defects(defects: List[Tuple[gen.Problem, str]], engine_cls,
                        path_limit: int, limits: SearchLimits) -> PassResult:
    """Sets up and proves each known-defect problem on its own, untimed.
    Raising the recorded class is tolerated; any other raise, or a wrong
    verdict once the defect is fixed, is a gate error."""
    tally = _Tally({p.name: p.expected for p, _ in defects})
    t0 = perf_counter()
    for problem, known in defects:
        try:
            prep = setup([problem], engine_cls, path_limit)
            [(result, _)] = learn.prove_problems(prep.engines, UniformPredictor(), limits)
        except Exception as e:  # per-problem boundary: record and go on
            tally.error(problem.name, e, known)
        else:
            tally.result(result)
    return tally.finish(perf_counter() - t0)


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    make_problems: Callable[[random.Random, bool], List[gen.Problem]]
    run: Callable[[Prepared, bool, int], PassResult]    # (engines, tiny, workers)
    workers: int
    path_limit: int = 100
    # problems that may fail with a recorded exception, probed once per run
    known_defects: Callable[[random.Random], List[Tuple[gen.Problem, str]]] = lambda rng: []
    probe_limits: SearchLimits = field(default_factory=SearchLimits)


def _prove_pass(prep: Prepared, limits: SearchLimits, workers: int) -> PassResult:
    tally = _Tally(prep.expected)
    examples = 0
    t0 = perf_counter()
    for name, result, n_examples, err in prove_isolated(prep.engines, UniformPredictor(),
                                                        limits, workers):
        if err:
            tally.error(name, err)
        else:
            examples += n_examples
            tally.result(result)
    return tally.finish(perf_counter() - t0, examples=examples)


# eq-uniform ----------------------------------------------------------------

def _eq_problems(rng, tiny):
    probs = gen.eq_problems(rng)
    return probs[:1] + probs[-2:] if tiny else probs


def _eq_pass(prep, tiny, workers):
    return _prove_pass(prep, SearchLimits(inference_limit=60 if tiny else 150), workers)


# chain-loop ----------------------------------------------------------------

LOOP_ITERATIONS = 2          # iteration 0 is uniform, then two trained ones
HARVEST_EVERY = 3            # harvest states from every third problem


def _chain_problems(rng, tiny):
    if tiny:
        return gen.chain_problems(rng, lengths=(3, 4), widths=(1, 2))
    return gen.chain_problems(rng)


def _chain_pass(prep, tiny, workers):
    # frequent bigsteps commit early, which is where guidance pays off
    limits = SearchLimits(inference_limit=150 if tiny else 1000, bigstep_frequency=25)
    config = LoopConfig(alpha=0.7, limits=limits)
    tally = _Tally(prep.expected)
    t0 = perf_counter()
    try:
        loop = learn.run_loop(prep.engines, LOOP_ITERATIONS, config, workers=workers)
        loop_wall = perf_counter() - t0
    except Exception as e:  # the loop has no per-problem boundary of its own
        tally.error("run_loop", e)
        return tally.finish(perf_counter() - t0, iterations=LOOP_ITERATIONS + 1)
    solved_by_iteration = []
    for stats, results in zip(loop.stats, loop.results):
        tally.lines.append("stats " + ",".join(stats.row()))
        before = tally.solved
        for r in results:
            tally.result(r)
        solved_by_iteration.append(tally.solved - before)
    harvest_from = prep.engines[::HARVEST_EVERY]
    bank = analysis.harvest_states(harvest_from, SearchLimits(inference_limit=100 if tiny else 300))
    report = analysis.compare(UniformPredictor(), loop.final_model.predictor(), bank,
                              dict(harvest_from))
    tally.lines.append(f"compare {report!r}")
    return tally.finish(perf_counter() - t0, iterations=LOOP_ITERATIONS + 1,
                        loop_wall=loop_wall, examples=len(loop.examples), states=len(bank),
                        solved_by_iteration=solved_by_iteration)


# batch-wide ----------------------------------------------------------------

def _batch_problems(rng, tiny):
    if tiny:
        return gen.batch_problems(rng, wide_sizes=(20, 40))
    return gen.batch_problems(rng)


BATCH_LIMITS = SearchLimits(inference_limit=200, bigstep_frequency=50)


def _batch_pass(prep, tiny, workers):
    return _prove_pass(prep, BATCH_LIMITS, workers)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "eq-uniform",
        "Group-theory equations run to a fixed inference budget with the uniform "
        "predictor and one worker: search-bound, no pool, training or parsing to "
        "speak of; stresses paramodulation at every subterm, feature extraction "
        "the uniform predictor never reads, and UCT selection.",
        _eq_problems, _eq_pass, workers=1),
    Workload(
        "chain-loop",
        "Prove/train loop (alpha 0.7, two workers) over implication chains with "
        "dead-end distractors, then a state harvest and a uniform-vs-trained "
        "comparison: learned guidance beats uniform here, and it exercises linear "
        "scoring, training, shipping the predictor to workers, and analysis.",
        _chain_problems, _chain_pass, workers=2, path_limit=40),
    Workload(
        "batch-wide",
        "Many easy problems (corpus, wide FOF with up to 1500 axioms that need "
        "Skolemization, known non-theorems, deep terms below today's recursion "
        "limits) on a small budget with two workers and every proof replayed: "
        "set-up and pool transfer dominate, search is tiny.  Deep terms past "
        "those limits are probed once per run as known defects.",
        _batch_problems, _batch_pass, workers=2, path_limit=30,
        known_defects=gen.known_defect_problems, probe_limits=BATCH_LIMITS),
]}
