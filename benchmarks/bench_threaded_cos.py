"""Real-time microbenchmarks of the threaded COS structures.

These measure actual wall-clock operation rates of the three schedulers on
OS threads.  Under CPython's GIL they cannot demonstrate multi-core
speedup (DESIGN.md §2) — they exist as sanity checks that the structures
sustain realistic Python-level rates and that the *relative* single-thread
overhead ordering (sequential < lock-free ≈ coarse < fine for a populated
graph) is what the algorithms predict.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    NeverConflicts,
    ReadWriteConflicts,
    ThreadedCOS,
    ThreadedRuntime,
    make_cos,
)
from repro.core.command import Command

ALGORITHMS = ("coarse-grained", "fine-grained", "lock-free", "sequential")


def _cycle(cos: ThreadedCOS, commands) -> None:
    for command in commands:
        cos.insert(command)
        handle = cos.get()
        cos.remove(handle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_thread_cycle(benchmark, algorithm):
    """insert+get+remove round trips on one thread, empty graph."""
    runtime = ThreadedRuntime()
    cos = ThreadedCOS(
        make_cos(algorithm, runtime, ReadWriteConflicts()), runtime)
    commands = [Command("contains", (i,), writes=False) for i in range(200)]
    benchmark(_cycle, cos, commands)


#: Direct execution must beat the reference interpreter by this much on
#: insert+drain at a 140-node graph, for the kernels that perform effects
#: per visited node (measured 3.4x fine-grained, 5.1x lock-free).  The
#: coarse-grained walk is plain Python under one mutex — two effects per
#: operation, nothing for the trampoline to cost (1.3x) — so it only reports.
MIN_DIRECT_SPEEDUP = 1.8
SPEEDUP_GATED = ("fine-grained", "lock-free")


def _populated(algorithm, direct: bool):
    """insert+drain of 50 commands over a 140-node resident graph, through
    the direct executor or the reference interpreter."""
    runtime = ThreadedRuntime()
    kernel = make_cos(algorithm, runtime, NeverConflicts(), max_size=200)
    if direct:
        cos = ThreadedCOS(kernel, runtime)
        insert, get, remove = cos.insert, cos.get, cos.remove
    else:
        def insert(cmd): runtime.run(kernel.insert(cmd))
        def get(): return runtime.run(kernel.get())
        def remove(handle): runtime.run(kernel.remove(handle))
    for i in range(140):  # resident population
        insert(Command("contains", (i,), writes=False))
    commands = [Command("contains", (i,), writes=False) for i in range(50)]

    def insert_drain():
        for command in commands:
            insert(command)
        for _ in commands:
            remove(get())

    return insert_drain


def _best_of(fn, rounds: int = 15) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("algorithm", ("coarse-grained", "fine-grained",
                                       "lock-free"))
def test_populated_insert(benchmark, algorithm):
    """Insert cost against a graph pre-populated near its cap.

    This isolates the full-graph walk that sets each algorithm's ceiling
    in Fig. 2 (see EXPERIMENTS.md).  Gate (``SPEEDUP_GATED``): the same
    kernel, in the same process, must run at least ``MIN_DIRECT_SPEEDUP``
    times faster direct than interpreted — the trampoline was the
    majority of the cost.
    """
    direct = _populated(algorithm, direct=True)
    benchmark(direct)
    speedup = (_best_of(_populated(algorithm, direct=False))
               / _best_of(direct))
    print(f"[threaded_cos] {algorithm}: direct is {speedup:.2f}x the "
          f"interpreter on insert+drain at 140 nodes")
    if algorithm in SPEEDUP_GATED:
        assert speedup >= MIN_DIRECT_SPEEDUP, (
            f"{algorithm}: direct executor only {speedup:.2f}x the "
            f"reference interpreter; expected >= {MIN_DIRECT_SPEEDUP}x")


@pytest.mark.parametrize("algorithm", ("coarse-grained", "fine-grained",
                                       "lock-free"))
def test_two_thread_pipeline(benchmark, algorithm):
    """One producer and one consumer thread pumping 500 commands through."""
    runtime = ThreadedRuntime()
    cos = ThreadedCOS(
        make_cos(algorithm, runtime, ReadWriteConflicts(), max_size=150),
        runtime)
    n = 500

    def pump():
        def producer():
            for i in range(n):
                cos.insert(Command("contains", (i,), writes=False))

        thread = threading.Thread(target=producer)
        thread.start()
        for _ in range(n):
            cos.remove(cos.get())
        thread.join()

    benchmark(pump)
