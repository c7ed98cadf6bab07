"""Per-layer spans taken from outside the prover.

Nothing here changes the prover.  A traced run builds its engines as
:class:`TracedEngine`, replaces every predictor the search consults with
a :func:`traced_predictor` copy, and, while :func:`installed` is active, replaces
the public entry points of ``tptp``, ``clausify``, ``features`` (as
imported by ``policy`` and ``learn``), ``learn`` and ``analysis`` with
wrappers that record a span around the original call.  Leaving the
context restores every original, so untraced passes in the same process
run the unmodified program.

Spans are kept in memory as ``[name, parent, request, start, end, n]``
lists (``n`` is an optional count such as the number of actions a
``legal_actions`` call returned) and written out once at the end.
Searches that run in pool workers record into the worker's copy of the
tracer; the wrapped task function ships those spans back on the result
and the wrapped ``prove_problems`` merges them under its own span.  A
layer's seconds are summed over its spans, so with two workers they are
busy seconds, which can exceed the wall time of the pass.
"""

from __future__ import annotations

import contextlib
import copy
import gzip
import importlib
import inspect
import json
import os
import time
from typing import Dict, List

from contab.policy import Predictor
from contab.tableau import Engine

perf_counter = time.perf_counter

tptp = importlib.import_module("contab.tptp")
clausify = importlib.import_module("contab.clausify")
policy = importlib.import_module("contab.policy")
search = importlib.import_module("contab.search")
learn = importlib.import_module("contab.learn")
analysis = importlib.import_module("contab.analysis")

NAME, PARENT, REQUEST, START, END, COUNT = range(6)
_SHIPPED = "_perfbench_spans"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = ""
        self.pool_overhead = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, self.stack[-1] if self.stack else -1, self.request, 0.0, 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.pool_overhead = 0.0

    def take_since(self, mark: int) -> List[list]:
        """Removes and returns the spans recorded after ``mark``, with
        parents re-based so the first one is index 0 (-1: outside)."""
        out = self.spans[mark:]
        del self.spans[mark:]
        for rec in out:
            rec[PARENT] = rec[PARENT] - mark if rec[PARENT] >= mark else -1
        return out

    def adopt(self, spans: List[list], parent: int) -> None:
        base = len(self.spans)
        for rec in spans:
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else parent
            self.spans.append(rec)



TRACER = Tracer()


class TracedEngine(Engine):
    """Engine whose calculus calls record ``tableau.*`` spans."""

    def legal_actions(self, s):
        spans = TRACER.spans
        at = len(spans)
        out = TRACER.call("tableau.legal_actions", Engine.legal_actions, self, s)
        spans[at][COUNT] = len(out)
        return out

    def apply(self, s, a):
        return TRACER.call("tableau.apply", Engine.apply, self, s, a)

    def check_proof(self, actions):
        return TRACER.call("tableau.check_proof", Engine.check_proof, self, actions)


def _spanned(name: str, fn):
    def wrapper(*args, **kwargs):
        return TRACER.call(name, fn, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def traced_predictor(predictor: Predictor) -> Predictor:
    """A shallow copy of ``predictor`` whose scoring calls record
    ``policy.score`` spans.  The copy keeps the predictor's type and every
    attribute, so code that asks what a predictor is or declares sees the
    same answers as in an untraced run."""
    traced = copy.copy(predictor)
    traced.predict_policy = _spanned("policy.score", predictor.predict_policy)
    traced.predict_value = _spanned("policy.score", predictor.predict_value)
    return traced


_ORIG: Dict[str, object] = {}
_PROVE_PROBLEMS_SIG = inspect.signature(learn.prove_problems)


def _predict(predictor, state, actions, matrix):
    return TRACER.call("policy.predict", _ORIG["predict"], traced_predictor(predictor),
                       state, actions, matrix)


def _prove(engine, problem, *args, **kwargs):
    """``search.prove`` span; its spans carry the problem as request id."""
    tr = TRACER
    outer, tr.request = tr.request, problem
    try:
        return tr.call("search.prove", _ORIG["prove"], engine, problem, *args, **kwargs)
    finally:
        tr.request = outer


def _prove_one(task):
    """Pool task wrapper: in a worker, hands the task's spans back on the
    result so the parent can merge them."""
    tr = TRACER
    mark = len(tr.spans)
    result, examples = _ORIG["_prove_one"](task)
    if os.getpid() != tr.pid:
        setattr(result, _SHIPPED, tr.take_since(mark))
    return result, examples


def _prove_problems(*args, **kwargs):
    tr = TRACER
    workers = _PROVE_PROBLEMS_SIG.bind(*args, **kwargs).arguments.get("workers", 1)
    parent = len(tr.spans)
    t0 = perf_counter()
    try:
        pairs = tr.call("learn.prove_problems", _ORIG["prove_problems"], *args, **kwargs)
    except Exception:
        # a raise aborts the whole map: every worker-second spent is lost
        tr.pool_overhead += max(workers, 1) * (perf_counter() - t0)
        raise
    wall = perf_counter() - t0
    busy = 0.0
    for result, _ in pairs:
        busy += result.wall_time
        shipped = result.__dict__.pop(_SHIPPED, None)
        if shipped:
            tr.adopt(shipped, parent)
    tr.pool_overhead += max(workers, 1) * wall - busy
    return pairs


def _patches():
    """(module, attribute, replacement) for every traced entry point."""
    traced_state = _spanned("features.state", policy.extract_features)
    traced_action = _spanned("features.action", policy.extract_action_features)
    return [
        (tptp, "parse_problem", _spanned("tptp.parse", tptp.parse_problem)),
        (clausify, "clausify", _spanned("clausify.clausify", clausify.clausify)),
        (policy, "extract_features", traced_state),
        (policy, "extract_action_features", traced_action),
        (learn, "extract_features", traced_state),
        (learn, "extract_action_features", traced_action),
        (search, "predict", _predict),
        (analysis, "predict", _predict),
        (learn, "prove", _prove),
        (analysis, "prove", _prove),
        (learn, "extract_training_data",
         _spanned("learn.extract", learn.extract_training_data)),
        (learn, "train", _spanned("learn.train", learn.train)),
        (learn, "_prove_one", _prove_one),
        (learn, "prove_problems", _prove_problems),
        (analysis, "harvest_states", _spanned("analysis.harvest", analysis.harvest_states)),
        (analysis, "compare", _spanned("analysis.compare", analysis.compare)),
    ]


@contextlib.contextmanager
def installed():
    """Activates every wrapper for the duration of the block."""
    saved = []
    _ORIG["predict"] = policy.predict
    _ORIG["prove"] = search.prove
    _ORIG["_prove_one"] = learn._prove_one
    _ORIG["prove_problems"] = learn.prove_problems
    for module, attr, replacement in _patches():
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)
    try:
        yield TRACER
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def totals(spans: List[list]) -> Dict[str, list]:
    """name -> [seconds, calls, summed counts] over ``spans``."""
    by: Dict[str, list] = {}
    for rec in spans:
        d = by.setdefault(rec[NAME], [0.0, 0, 0])
        d[0] += rec[END] - rec[START]
        d[1] += 1
        d[2] += rec[COUNT]
    return by


def self_seconds(spans: List[list], name: str) -> float:
    """Summed duration of the ``name`` spans minus their direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return sum(rec[END] - rec[START] - child[i]
               for i, rec in enumerate(spans) if rec[NAME] == name)


def write_spans(path, spans: List[list]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
