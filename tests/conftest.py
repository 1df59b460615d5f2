"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import re
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core import ThreadedCOS, ThreadedRuntime, make_cos
from repro.core.command import Command, ConflictRelation

ALL_ALGORITHMS = ("coarse-grained", "fine-grained", "lock-free", "indexed",
                  "sequential", "early")
#: Schedulers exposing the paper's full DAG scheduling freedom (reads of a
#: class commute; independent commands are simultaneously gettable).  The
#: conservative backends — sequential, class-based, early — are excluded:
#: they satisfy the shared contract (test_scheduler_conformance.py) but
#: deliberately serialize more than the pairwise relation requires.
GRAPH_ALGORITHMS = ("coarse-grained", "fine-grained", "lock-free", "indexed")


#: What a replica stack starts: ordering nodes, workers, the TCP reactor,
#: and the mp engine's collector thread and shard processes.
STACK_THREAD = re.compile(
    r"(node-|net-node-|replica-\d+-worker-|tcp-|repro-par-)")

#: How long a test's stack threads and shard processes may take to end
#: after the test returns.
LEAK_GRACE = 2.0


def stack_threads() -> set:
    """The live stack threads and shard processes (:data:`STACK_THREAD`)."""
    return {unit for unit in (threading.enumerate()
                              + multiprocessing.active_children())
            if STACK_THREAD.match(unit.name)}


@pytest.fixture(autouse=True)
def no_leaked_stack_threads():
    """Fail a test that leaves a stack thread or shard process running."""
    before = stack_threads()
    yield
    deadline = time.monotonic() + LEAK_GRACE
    while (leaked := stack_threads() - before) and (
            time.monotonic() < deadline):
        time.sleep(0.05)
    if leaked:
        pytest.fail(f"the test left {sorted(u.name for u in leaked)} "
                    f"running {LEAK_GRACE} s after it ended")


@pytest.fixture
def threaded_runtime() -> ThreadedRuntime:
    return ThreadedRuntime()


def make_threaded_cos(algorithm: str, conflicts: ConflictRelation,
                      max_size: int = 150) -> ThreadedCOS:
    runtime = ThreadedRuntime()
    return ThreadedCOS(
        make_cos(algorithm, runtime, conflicts, max_size=max_size), runtime)


class ExecutionLog:
    """Thread-safe record of command execution intervals.

    ``start`` is stamped after ``get`` returns (before execution), ``finish``
    just before ``remove`` is invoked — so for any conflicting pair delivered
    as i before j, COS correctness requires finish(i) < start(j).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.start: Dict[int, int] = {}
        self.finish: Dict[int, int] = {}
        self.order: List[int] = []

    def record_start(self, uid: int) -> None:
        with self._lock:
            self.start[uid] = time.monotonic_ns()
            self.order.append(uid)

    def record_finish(self, uid: int) -> None:
        with self._lock:
            self.finish[uid] = time.monotonic_ns()

    def assert_conflicts_ordered(
        self, commands: Sequence[Command], conflicts: ConflictRelation
    ) -> None:
        """Check every conflicting pair executed in delivery order."""
        for i, first in enumerate(commands):
            for second in commands[i + 1:]:
                if not conflicts.conflicts(first, second):
                    continue
                assert self.finish[first.uid] <= self.start[second.uid], (
                    f"conflicting {first} and {second} overlapped"
                )


def run_threaded_workload(
    cos: ThreadedCOS,
    commands: Sequence[Command],
    n_workers: int,
    execute_ns: int = 0,
    stop_op: str = "__stop__",
) -> ExecutionLog:
    """Drive Algorithm 1 on real threads; returns the execution log.

    The scheduler inserts ``commands`` in order, then one poison pill per
    worker.  Pills are writes, so they conflict with everything under the
    read/write relation and drain last.
    """
    log = ExecutionLog()

    def worker() -> None:
        while True:
            handle = cos.get()
            command = cos.command_of(handle)
            if command.op == stop_op:
                cos.remove(handle)
                return
            log.record_start(command.uid)
            if execute_ns:
                deadline = time.monotonic_ns() + execute_ns
                while time.monotonic_ns() < deadline:
                    pass
            log.record_finish(command.uid)
            cos.remove(handle)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(n_workers)]
    for thread in threads:
        thread.start()
    for command in commands:
        cos.insert(command)
    for _ in range(n_workers):
        cos.insert(Command(op=stop_op, writes=True))
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker stuck — scheduler lost a command"
    return log


def make_mixed_commands(count: int, write_every: int,
                        key_space: int = 50) -> List[Command]:
    """Deterministic read/write mix: every ``write_every``-th is a write."""
    commands = []
    for index in range(count):
        is_write = write_every > 0 and index % write_every == 0
        commands.append(Command(
            op="add" if is_write else "contains",
            args=(index % key_space,),
            writes=is_write,
        ))
    return commands
