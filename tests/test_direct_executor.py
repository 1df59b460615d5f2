"""The two threaded executors of one kernel source must agree.

:class:`ThreadedRuntime.run` interprets a kernel's effect generators;
:class:`ThreadedCOS` runs plain methods derived from the same source
(``repro.core.threaded.direct_class``).  These tests hold them equal, show
that everything registered translates (and that what cannot, fails loudly),
and that the exactly-once oracle still has teeth on the direct path.
"""

import inspect
import linecache
import random
import threading
import time
import traceback
from collections import deque

import pytest

from repro.check.mutants import MUTANTS, SkipCasRetryCOS
from repro.core import (COS_ALGORITHMS, ReadWriteConflicts, ThreadedCOS,
                        ThreadedRuntime, make_cos)
from repro.core.command import Command
from repro.core.effects import Load, Store
from repro.core.lock_free import LockFreeCOS
from repro.core.node import WAITING
from repro.core.threaded import _ThreadedAtomic, direct_class

MAX_SIZE = 12
COMMANDS = 400


def _ready(kernel):
    """How many ``get()`` calls would return without blocking."""
    ready = getattr(kernel, "_ready", None)
    if ready is not None:
        return ready.sem._value
    return sum(1 for node in kernel._nodes.values()          # coarse-grained
               if node.status == WAITING and not node.deps_in)


def _canon(value, seen):
    """``value`` as plain comparable data: nodes become their command's uid
    (their own fields are dumped once, under that uid, into ``seen``)."""
    if hasattr(value, "cmd"):                                # a graph node
        uid = value.cmd.uid if value.cmd is not None else repr(value)
        if uid not in seen:
            seen[uid] = None
            fields = list(getattr(type(value), "__slots__", ())) or sorted(
                vars(value))
            seen[uid] = {name: _canon(getattr(value, name), seen)
                         for name in fields if name not in ("cmd", "mutex")}
        return ("node", uid)
    if hasattr(value, "compare_and_set"):                    # atomic cell
        return _canon(value.value, seen)
    if hasattr(value, "sem"):                                # semaphore
        return ("sem", value.sem._value)
    if hasattr(value, "qnext"):                              # ready sentinel
        return ("sentinel", _canon(value.qnext, seen))
    if isinstance(value, dict):
        return {repr(_canon(key, seen)): _canon(item, seen)
                for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_canon(item, seen)) for item in value)
    if isinstance(value, (list, tuple, deque)):
        return [_canon(item, seen) for item in value]
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return type(value).__name__      # runtime, relation, costs, metrics, ...


def _snapshot(kernel):
    seen = {}
    return _canon(vars(kernel), seen), seen


def _drive(algorithm, seed, direct):
    """One seeded insert/get/remove walk; returns its trace and end state."""
    runtime = ThreadedRuntime()
    kernel = make_cos(algorithm, runtime, ReadWriteConflicts(),
                      max_size=MAX_SIZE)
    if direct:
        cos = ThreadedCOS(kernel, runtime)
        insert, get, remove = cos.insert, cos.get, cos.remove
    else:
        def insert(cmd): runtime.run(kernel.insert(cmd))
        def get(): return runtime.run(kernel.get())
        def remove(handle): runtime.run(kernel.remove(handle))
    rng = random.Random(seed)
    writes = [rng.random() < 0.3 for _ in range(COMMANDS)]
    pending = deque(Command("add" if write else "contains",
                            (rng.randrange(6),), uid=uid, writes=write)
                    for uid, write in enumerate(writes))
    live, held, trace = 0, [], []
    while pending or live:
        moves = []
        if pending and live < MAX_SIZE:
            moves.append("insert")
        if _ready(kernel):
            moves.append("get")
        if held:
            moves.append("remove")
        move = rng.choice(moves)
        if move == "insert":
            command = pending.popleft()
            insert(command)
            live += 1
            trace.append(("insert", command.uid))
        elif move == "get":
            handle = get()
            held.append(handle)
            trace.append(("get", kernel.command_of(handle).uid))
        else:
            handle = held.pop(rng.randrange(len(held)))
            remove(handle)
            live -= 1
            trace.append(("remove", kernel.command_of(handle).uid))
        trace.append(("ready", _ready(kernel)))
        if len(trace) % 200 == 0:
            trace.append(("state", _snapshot(kernel)))
    stats = getattr(kernel, "chain_stats_unsafe", lambda: None)()
    return trace, _snapshot(kernel), stats


@pytest.mark.parametrize("algorithm", COS_ALGORITHMS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_interpreter_and_direct_executor_agree(algorithm, seed):
    ref_trace, ref_state, ref_stats = _drive(algorithm, seed, direct=False)
    trace, state, stats = _drive(algorithm, seed, direct=True)
    assert [e for e in trace if e[0] == "get"] == \
        [e for e in ref_trace if e[0] == "get"]
    assert trace == ref_trace
    assert state == ref_state
    assert stats == ref_stats
    assert sum(1 for e in trace if e[0] == "get") == COMMANDS


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_mutant_translates(name):
    direct = direct_class(MUTANTS[name])
    assert issubclass(direct, MUTANTS[name])
    for method in ("insert", "get", "try_get", "remove"):
        assert not inspect.isgeneratorfunction(getattr(direct, method))
    assert direct_class(MUTANTS[name]) is direct     # once per class


class TestLoudFailure:
    """No fallback: a kernel the rewrite cannot handle is an error."""

    def _build(self, kernel_class):
        runtime = ThreadedRuntime()
        return ThreadedCOS(kernel_class(runtime, ReadWriteConflicts()),
                           runtime)

    def test_yield_of_a_non_effect(self):
        class Odd(LockFreeCOS):
            def _lf_get(self):
                yield "not an effect"

        with pytest.raises(TypeError, match="cannot run .*_lf_get directly"):
            self._build(Odd)

    def test_yield_from_outside_self(self):
        class Delegating(LockFreeCOS):
            def remove(self, handle):
                yield from LockFreeCOS.remove(self, handle)

        with pytest.raises(TypeError, match="yield from"):
            self._build(Delegating)

    def test_zero_argument_super(self):
        class Super(LockFreeCOS):
            def remove(self, handle):
                yield from super().remove(handle)

        with pytest.raises(TypeError, match="closures"):
            self._build(Super)

    def test_store_used_as_a_value(self):
        class StoreValue(LockFreeCOS):
            def _lf_remove(self, node):
                return (yield Store(node.st, "rmd"))

        with pytest.raises(TypeError, match="Store"):
            self._build(StoreValue)

    def test_non_generator_operation(self):
        class Plain(LockFreeCOS):
            def insert(self, cmd):
                return LockFreeCOS.insert(self, cmd)

        with pytest.raises(TypeError, match="insert is not"):
            self._build(Plain)


def test_tracebacks_show_the_generated_source():
    class Exploding(LockFreeCOS):
        def _lf_get(self):
            head = yield Load(self._head)
            raise RuntimeError(f"boom at {head!r}")

    runtime = ThreadedRuntime()
    cos = ThreadedCOS(Exploding(runtime, ReadWriteConflicts()), runtime)
    cos.insert(Command("contains", (1,), writes=False))
    with pytest.raises(RuntimeError) as info:
        cos.get()
    frames = traceback.extract_tb(info.value.__traceback__)
    assert frames[-1].filename.startswith("<direct ")
    assert frames[-1].line == "raise RuntimeError(f'boom at {head!r}')"
    assert "head = self._head.value" in "".join(
        linecache.getlines(frames[-1].filename))


def _gets_under_stress(kernel_class, monkeypatch, count=2_000):
    """Uids handed out to 8 racing workers, with every CAS preceded by a
    GIL hand-off so a ``Load`` .. ``Cas`` window is as wide as the
    scheduler can make it (cf. ``test_slow_execution``)."""
    cas = _ThreadedAtomic.compare_and_set

    def yielding_cas(cell, expected, new):
        time.sleep(0)
        return cas(cell, expected, new)

    monkeypatch.setattr(_ThreadedAtomic, "compare_and_set", yielding_cas)
    runtime = ThreadedRuntime()
    cos = ThreadedCOS(kernel_class(runtime, ReadWriteConflicts(), 64),
                      runtime)
    gets, lock, done = [], threading.Lock(), threading.Event()

    def worker():
        while not done.is_set():
            handle = cos.get()
            with lock:
                gets.append(cos.command_of(handle).uid)
            cos.remove(handle)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(8)]
    for thread in threads:
        thread.start()
    for index in range(count):
        cos.insert(Command("contains", (index,), uid=index, writes=False))
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with lock:      # all out — or a duplicate, which may strand one
            if len(gets) >= count:
                break
        time.sleep(0.01)
    done.set()
    # A double-get burns a ready credit, which can strand a worker in
    # get(); feed reads (uids past ``count``) until all have seen ``done``.
    for extra in range(count, count + 1000):
        if not any(thread.is_alive() for thread in threads):
            break
        cos.insert(Command("contains", (0,), uid=extra, writes=False))
        threads[0].join(0.001)
    assert not any(thread.is_alive() for thread in threads)
    return [uid for uid in gets if uid < count]


def test_exactly_once_holds_on_the_direct_path(monkeypatch):
    gets = _gets_under_stress(LockFreeCOS, monkeypatch)
    assert sorted(gets) == list(range(2_000))


def test_skip_cas_retry_still_double_gets_on_the_direct_path(monkeypatch):
    """The exactly-once oracle is not vacuous under direct execution: the
    mutant whose ``lfGet`` ignores a failed ``rdy -> exe`` CAS hands one
    command to two workers under the same load."""
    gets = _gets_under_stress(SkipCasRetryCOS, monkeypatch)
    assert len(set(gets)) < len(gets), "no double-get in 2 000 commands"
