"""Tests for effect tracing and worker-pool reconfiguration."""

import threading
import time

import pytest

from repro.apps import KVStoreService
from repro.core import LockFreeCOS, ReadWriteConflicts, ThreadedRuntime
from repro.core.command import Command
from repro.errors import ShutdownError
from repro.sim import SimRuntime, Simulator
from repro.sim.trace import Tracer, traced
from repro.smr.replica import ParallelReplica


def read(key):
    return Command("contains", (key,), writes=False)


class TestTracer:
    def test_records_effects_and_return(self):
        runtime = ThreadedRuntime()
        cos = LockFreeCOS(runtime, ReadWriteConflicts())
        tracer = Tracer()
        runtime.run(traced(cos.insert(read(1)), tracer, "insert"))
        assert tracer.count("Down") == 1   # space semaphore
        assert tracer.count("Store") >= 2  # dep_on publish + head link
        assert tracer.count("return") == 1

    def test_passthrough_preserves_results(self):
        runtime = ThreadedRuntime()
        cos = LockFreeCOS(runtime, ReadWriteConflicts())
        tracer = Tracer()
        runtime.run(traced(cos.insert(read(1)), tracer))
        handle = runtime.run(traced(cos.get(), tracer, "get"))
        assert handle.cmd.args == (1,)

    def test_clock_timestamps(self):
        sim = Simulator()
        runtime = SimRuntime(sim)
        tracer = Tracer(clock=lambda: sim.now)
        from repro.core.effects import Work

        def proc():
            yield Work(1.0)
            yield Work(2.0)

        runtime.spawn(traced(proc(), tracer, "p"))
        sim.run()
        times = [entry[0] for entry in tracer.entries]
        assert times[0] <= times[-1]
        assert tracer.count("Work") == 2

    def test_bounded_capacity(self):
        tracer = Tracer(capacity=5)
        for index in range(20):
            tracer.record("x", "Work")
        assert len(tracer.entries) == 5
        assert tracer.count("Work") == 20  # counters are not bounded

    def test_summary_and_clear(self):
        tracer = Tracer()
        tracer.record("a", "Load")
        tracer.record("a", "Load")
        tracer.record("a", "Cas")
        assert "Load" in tracer.summary()
        tracer.clear()
        assert tracer.count("Load") == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestResizeWorkers:
    def _drain(self, replica, count, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline and replica.executed < count:
            time.sleep(0.005)
        return replica.executed >= count

    def test_grow_pool(self):
        replica = ParallelReplica(0, KVStoreService(), workers=1)
        replica.start()
        try:
            replica.resize_workers(4)
            assert replica.workers == 4
            commands = tuple(Command("get", (i,), writes=False)
                             for i in range(50))
            replica.on_deliver(0, commands)
            assert self._drain(replica, 50)
        finally:
            replica.stop()

    def test_shrink_pool_still_executes(self):
        replica = ParallelReplica(0, KVStoreService(), workers=4)
        replica.start()
        try:
            replica.resize_workers(1)
            assert replica.workers == 1
            commands = tuple(Command("put", (f"k{i}", i), writes=True)
                             for i in range(30))
            replica.on_deliver(0, commands)
            assert self._drain(replica, 30)
        finally:
            replica.stop()

    def test_shrink_during_delivery_keeps_insert_single_writer(self):
        """Regression: ``resize_workers`` (shrink) and ``stop`` inserted
        their stop pills without ``_deliver_lock``, racing the delivery
        thread's insert although lfInsert is single-writer (§6.2.1)."""

        class OwnedLock:
            """``threading.Lock`` that knows which thread holds it."""

            def __init__(self):
                self._lock = threading.Lock()
                self.owner = None

            def __enter__(self):
                self._lock.acquire()
                self.owner = threading.get_ident()

            def __exit__(self, *exc):
                self.owner = None
                self._lock.release()

        executions = []
        service = KVStoreService()
        execute = service.execute
        service.execute = lambda cmd: (executions.append(cmd.uid),
                                       execute(cmd))[1]
        replica = ParallelReplica(0, service, workers=4)
        lock = replica._deliver_lock = OwnedLock()
        insert = replica._cos.insert
        unowned, mid_delivery, go_on = [], threading.Event(), threading.Event()
        commands = tuple(Command("put", (f"k{i}", i), writes=True)
                         for i in range(40))

        def spying_insert(cmd):
            if lock.owner != threading.get_ident():
                unowned.append(cmd)
            if cmd is commands[20]:      # park the delivery mid-batch
                mid_delivery.set()
                go_on.wait(5.0)
            insert(cmd)

        replica._cos.insert = spying_insert
        replica.start()
        deliverer = threading.Thread(
            target=replica.on_deliver, args=(0, commands), daemon=True)
        resizer = threading.Thread(
            target=replica.resize_workers, args=(1,), daemon=True)
        try:
            deliverer.start()
            assert mid_delivery.wait(5.0)
            resizer.start()
            resizer.join(0.3)            # parent: the pills went in here
            go_on.set()
            deliverer.join(5.0)
            resizer.join(5.0)
            assert not deliverer.is_alive() and not resizer.is_alive()
            assert self._drain(replica, 40)
            assert unowned == []
            assert sorted(executions) == sorted(c.uid for c in commands)
            assert replica.workers == 1
        finally:
            go_on.set()
            replica.stop()
        assert unowned == []             # stop's pills took the lock too

    def test_resize_before_start_rejected(self):
        replica = ParallelReplica(0, KVStoreService(), workers=2)
        with pytest.raises(ShutdownError):
            replica.resize_workers(4)

    def test_invalid_size_rejected(self):
        replica = ParallelReplica(0, KVStoreService(), workers=2)
        replica.start()
        try:
            with pytest.raises(ValueError):
                replica.resize_workers(0)
        finally:
            replica.stop()
