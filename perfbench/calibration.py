"""A fixed pure-Python loop that measures how fast the machine runs
interpreter-bound code right now.

Shared machines drift: the same search can take 1.5 times as long in one
minute as in the next, with CPU time tracking wall time, and on a
2-vCPU virtual machine two busy processes each ran this loop up to 2.6
times slower than one.  The harness times the loop before and after
every round, in this process and, for a workload with a worker pool, in
as many processes at once as the pool has workers.  It scales each
timing by ``REFERENCE_S / loop time`` of the matching kind: work done in
this process by the one-process loop, work done in the pool by the pool
loop.  A timing then reads as seconds on a machine where the loop takes
``REFERENCE_S``.  The loop imports nothing from the prover, so a change
to the prover never moves it.
"""

from __future__ import annotations

import multiprocessing
import random
import time

REFERENCE_S = 0.1        # the loop's duration that timings are scaled to


def _size(term, env):
    """Nodes of ``term`` with variables bound in ``env`` followed."""
    if isinstance(term, tuple):
        return 1 + sum(_size(arg, env) for arg in term[1:])
    bound = env.get(term)
    return 1 if bound is None else _size(bound, env)


def _work(rounds: int) -> int:
    """Builds and walks shared terms, much as unification and feature
    extraction do: tuples, dict lookups, recursion and short strings."""
    rng = random.Random(12345)
    total = 0
    for _ in range(rounds):
        env, terms = {}, []
        for i in range(300):
            if terms and rng.random() < 0.7:
                other = rng.choice(terms) if rng.random() < 0.5 else "c"
                term = ("f", rng.choice(terms), other)
            else:
                term = ("g", f"X{i}")
            terms.append(term)
            if rng.random() < 0.3:
                env[f"X{rng.randrange(i + 1)}"] = ("h", "c")
        total += sum(_size(t, env) % 97 for t in terms[-60:])
        total += len({str(t)[:20] for t in terms[:120]})
    return total


def _timed_loop() -> float:
    t0 = time.perf_counter()
    _work(60)
    return time.perf_counter() - t0


def _child(barrier, queue) -> None:
    barrier.wait()
    queue.put(_timed_loop())


def loop_seconds(processes: int = 1) -> float:
    """Wall seconds of the fixed loop; with ``processes`` > 1, the loop
    runs in that many processes that start it together, and the result is
    the harmonic mean of their times, since a pool that hands out tasks
    as workers free up gets through work at the sum of their speeds."""
    if processes <= 1:
        return _timed_loop()
    ctx = multiprocessing.get_context("fork")
    barrier, queue = ctx.Barrier(processes), ctx.Queue()
    children = [ctx.Process(target=_child, args=(barrier, queue)) for _ in range(processes)]
    for child in children:
        child.start()
    times = [queue.get(timeout=60) for _ in children]
    for child in children:
        child.join()
    return processes / sum(1.0 / t for t in times)
