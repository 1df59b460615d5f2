"""What a replica scheduling through the lock-free graph keeps alive.

A removed node stays reachable through the ``nxt`` of any older handle, so
three things decide a replica's resident set: whether dead nodes still carry
their edge snapshots (:meth:`LockFreeNode.drop_dead_edges`), whether idle
workers still hold handles (``ParallelReplica._worker_loop``), and whether
pruning ``dep_on`` churns CPython's tuple free lists
(``LockFreeCOS._helped_remove``).  The wake-up hazard of dropping edges too
early is a ``repro check`` mutant (tests/test_check_mutations.py,
``drop-edges-at-unlink``).
"""

import gc
import platform
import re
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import pytest

from repro.apps import LinkedListService
from repro.core.command import Command
from repro.core.node import REMOVED
from repro.smr.replica import ParallelReplica

MAX_SIZE = 150


def _wait(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "replica did not get there"
        time.sleep(0.002)


def _quiescent(replica, executed):
    """Every delivered command executed *and* removed."""
    kernel = replica._cos.algorithm
    _wait(lambda: replica.executed >= executed
          and kernel._space.sem._value == MAX_SIZE)


def _write(key):
    return Command("add", (key,), writes=True)     # conflicts with everything


def test_dead_nodes_carry_no_edges_and_die_with_their_last_holder():
    total = 20_000
    replica = ParallelReplica(0, LinkedListService(), "lock-free", workers=4,
                              max_graph_size=MAX_SIZE)
    kernel = replica._cos.algorithm
    held = []                 # every node, as an old handle somewhere would

    def keeping(get):
        def wrapper():
            handle = get()
            if handle is not None:
                held.append(handle)
            return handle
        return wrapper

    replica._cos.get = keeping(replica._cos.get)
    replica._cos.try_get = keeping(replica._cos.try_get)
    replica.start()
    try:
        for instance, lo in enumerate(range(0, total, 16)):
            replica.on_deliver(instance, [
                _write(key) for key in range(lo, min(lo + 16, total))])
        _quiescent(replica, total)
        # One more traversal unlinks whatever the last inserts left linked.
        replica.on_deliver(total, [_write(total)])
        _quiescent(replica, total + 1)

        linked, node = set(), kernel._head.value
        while node is not None:
            linked.add(node)
            node = node.nxt.value
        assert len(held) == total + 1 and len(linked) <= MAX_SIZE
        for node in held:
            assert node.st.value == REMOVED
            if node not in linked:
                assert node.dep_me.value == () and node.dep_on.value == (), \
                    f"{node!r} is removed and unlinked but keeps its edges"
        assert sum(1 for node in held if node.dep_me.value
                   or node.dep_on.value) <= 2 * MAX_SIZE

        # Workers sit idle in get(): once the old handles are dropped,
        # nothing else may hold a removed node.
        early = weakref.ref(held[10].cmd)
        del held[:], linked, node
        gc.collect()
        assert early() is None
    finally:
        replica.stop()


def test_idle_worker_pins_no_node():
    """Worker A executes c1 and goes back to ``get()``; B, waiting longer,
    is woken for c2 (the semaphore's waiters are FIFO).  A must not keep
    c1's node — through ``nxt`` it would pin every later one."""
    replica = ParallelReplica(0, LinkedListService(), "lock-free", workers=2,
                              max_graph_size=MAX_SIZE)
    replica.start()
    try:
        time.sleep(0.05)                           # both workers in get()
        c1 = _write(1)
        gone = weakref.ref(c1)
        replica.on_deliver(0, [c1])
        del c1
        _quiescent(replica, 1)
        time.sleep(0.05)                           # A is back in get()
        replica.on_deliver(1, [_write(2)])         # unlinks c1's node
        _quiescent(replica, 2)
        gc.collect()
        assert gone() is None
    finally:
        replica.stop()


_FREE_LIST_SCRIPT = textwrap.dedent("""
    import sys, time
    from repro.apps import LinkedListService
    from repro.smr.replica import ParallelReplica
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(15.0, key_space=1000, seed=1)
    replica = ParallelReplica(0, LinkedListService(initial_size=100),
                              "lock-free", workers=4)
    replica.start()
    for instance in range(2000):
        replica.on_deliver(instance, generator.commands(16))
    while replica.executed < 32000:
        time.sleep(0.01)
    replica.stop()
    sys._debugmallocstats()
""")


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="tuple free lists are a CPython detail")
def test_pruning_does_not_ratchet_the_tuple_free_lists():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _FREE_LIST_SCRIPT], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True)
    held = {int(size): int(total.replace(",", ""))
            for size, total in re.findall(
                r"free (\d+)-sized PyTupleObjects \* \d+ bytes each =\s+([\d,]+)",
                result.stderr)}
    if not held:
        pytest.skip("this CPython does not report per-size tuple free lists")
    # CPython 3.11 pushes freed 20-tuples but only pops sizes below 20, so
    # that one list fills to its cap (0.37 MB) in any program; the ratchet
    # this guards against fills *every* size (parent: 4.1 MB in all).
    held.pop(max(held))
    assert sum(held.values()) < 500_000, f"tuple free lists hold {held}"
