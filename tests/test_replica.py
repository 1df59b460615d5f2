"""Tests for the replica execution engines (parallel + sequential)."""

import threading
import time

import pytest

from repro.apps import KVStoreService, LinkedListService
from repro.core.command import Command
from repro.smr.replica import ParallelReplica


def read(key):
    return Command("contains", (key,), writes=False)


def write(key):
    return Command("add", (key,), writes=True)


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.fixture
def responses():
    collected = []
    lock = threading.Lock()

    def callback(command, response, replica_id):
        with lock:
            collected.append((command, response, replica_id))

    callback.collected = collected
    return callback


class TestParallelReplica:
    def test_delivers_and_executes(self, responses):
        replica = ParallelReplica(
            0, LinkedListService(initial_size=10), workers=3,
            on_response=responses)
        replica.start()
        try:
            replica.on_deliver(0, (read(3), write(50), read(50)))
            assert wait_for(lambda: replica.executed == 3)
            assert replica.executed == 3
        finally:
            replica.stop()

    def test_nested_batches_flattened(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=2, on_response=responses)
        replica.start()
        try:
            replica.on_deliver(0, ((read(1), read(2)), (read(3),)))
            assert wait_for(lambda: replica.executed == 3)
        finally:
            replica.stop()

    def test_single_command_payload(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=1, on_response=responses)
        replica.start()
        try:
            replica.on_deliver(0, read(1))
            assert wait_for(lambda: replica.executed == 1)
        finally:
            replica.stop()

    def test_dedup_skips_duplicate_request(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=2, on_response=responses)
        replica.start()
        try:
            command = Command("add", (7,), client_id="c1", request_id=1,
                              writes=True)
            replica.on_deliver(0, (command,))
            assert wait_for(lambda: replica.executed == 1)
            replica.on_deliver(1, (command,))
            time.sleep(0.1)
            assert replica.executed == 1  # not re-executed
            # But the cached response was resent.
            resent = [r for c, r, _ in responses.collected
                      if c.client_id == "c1"]
            assert len(resent) == 2
            assert resent[0] == resent[1] is True
        finally:
            replica.stop()

    def test_dedup_is_per_client(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=2, on_response=responses)
        replica.start()
        try:
            a = Command("add", (1,), client_id="a", request_id=1, writes=True)
            b = Command("add", (2,), client_id="b", request_id=1, writes=True)
            replica.on_deliver(0, (a, b))
            assert wait_for(lambda: replica.executed == 2)
        finally:
            replica.stop()

    def test_cached_response_api(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=1, on_response=responses)
        replica.start()
        try:
            command = Command("contains", (1,), client_id="c", request_id=3,
                              writes=False)
            replica.on_deliver(0, (command,))
            assert wait_for(
                lambda: replica.cached_response("c") is not None)
            assert replica.cached_response("c") == (3, True)
            assert replica.cached_response("nobody") is None
        finally:
            replica.stop()

    def test_stop_drains_workers(self):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=4)
        replica.start()
        replica.stop()
        assert all(not t.is_alive() for t in replica._threads)

    def test_stop_idempotent(self):
        replica = ParallelReplica(0, LinkedListService(), workers=2)
        replica.start()
        replica.stop()
        replica.stop()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelReplica(0, LinkedListService(), workers=0)

    def test_keyed_service_parallel_consistency(self, responses):
        replica = ParallelReplica(0, KVStoreService(), workers=4,
                                  on_response=responses)
        replica.start()
        try:
            commands = []
            for index in range(200):
                key = f"k{index % 5}"
                commands.append(Command("put", (key, index), writes=True))
            replica.on_deliver(0, tuple(commands))
            assert wait_for(lambda: replica.executed == 200)
            # Per-key writes are ordered, so the final value per key is the
            # last delivered write for that key.
            snapshot = replica.service.snapshot()
            assert snapshot == {f"k{i}": 195 + i for i in range(5)}
        finally:
            replica.stop()


class TestSequentialCos:
    """Classic SMR is ``ParallelReplica(cos_algorithm="sequential")``."""

    def test_executes_in_delivery_order(self, responses):
        replica = ParallelReplica(0, KVStoreService(),
                                  cos_algorithm="sequential",
                                  on_response=responses)
        replica.start()
        try:
            commands = tuple(
                Command("put", ("k", index), writes=True)
                for index in range(50)
            )
            replica.on_deliver(0, commands)
            assert wait_for(lambda: replica.executed == 50)
            assert replica.service.snapshot() == {"k": 49}
            order = [response for _, response, _ in responses.collected]
            # put returns the previous value: strict sequence 0..48.
            assert order == [None] + list(range(49))
        finally:
            replica.stop()

    def test_has_single_worker(self):
        # Derived from the algorithm, whatever the caller asked for.
        replica = ParallelReplica(0, KVStoreService(),
                                  cos_algorithm="sequential", workers=4)
        assert replica.workers == 1


class _GatedWriteService(LinkedListService):
    """Writes block on an event so tests can hold the pipeline busy."""

    def __init__(self):
        super().__init__(initial_size=5)
        self.release = threading.Event()

    def execute(self, command):
        if command.writes:
            assert self.release.wait(5.0), "gated write never released"
        return super().execute(command)


class TestLocalReads:
    def test_idle_pipeline_executes_read_inline(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=2, on_response=responses)
        replica.start()
        try:
            replica.on_local_read((read(1), read(99)))
            # Inline execution is synchronous: responses are already
            # delivered when the call returns, no worker handoff happened.
            assert [r for _, r, _ in responses.collected] == [True, False]
            assert replica.executed == 2
            # A local read has no position in the total order.
            assert replica.last_instance == -1
        finally:
            replica.stop()

    def test_busy_pipeline_orders_read_after_conflicting_write(
            self, responses):
        service = _GatedWriteService()
        replica = ParallelReplica(0, service, workers=2,
                                  on_response=responses)
        replica.start()
        try:
            replica.on_deliver(0, (write(50),))
            assert wait_for(lambda: replica._scheduled == 1)
            # The write is parked in a worker: the read must take the COS
            # path and wait behind it (contains/add conflict).
            replica.on_local_read((read(50),))
            time.sleep(0.05)
            assert responses.collected == []
            service.release.set()
            assert wait_for(lambda: len(responses.collected) == 2)
            # The read executed after the write it conflicts with.
            assert responses.collected[1][1] is True
        finally:
            service.release.set()
            replica.stop()

    def test_inline_read_fills_dedup_cache(self, responses):
        replica = ParallelReplica(0, LinkedListService(initial_size=5),
                                  workers=1, on_response=responses)
        replica.start()
        try:
            command = Command("contains", (2,), client_id="c", request_id=7,
                              writes=False)
            replica.on_local_read((command,))
            assert replica.cached_response("c") == (7, True)
            # Retransmission is answered from the cache, not re-executed.
            replica.on_local_read((command,))
            assert replica.executed == 1
            assert len(responses.collected) == 2
        finally:
            replica.stop()
