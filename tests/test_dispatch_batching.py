"""Batched dispatch: COS draining, dispatcher batches, engine batches.

The batching pipeline has three layers, tested bottom-up:

- :meth:`ThreadedCOS.try_get` — draining the ready set without blocking
  (simultaneously-ready commands are pairwise non-conflicting, so a
  drained batch is safe to hand to any engine in one call);
- :meth:`MpDispatcher.submit_many` / :meth:`request_many` — a whole
  same-shard batch crosses the process boundary in one pickle and one
  queue wakeup;
- :meth:`MpService.execute_many` — shard grouping, input-order responses,
  per-command error isolation — and the end-to-end
  :class:`ParallelReplica` path that drives it.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.kvstore import KVStoreService
from repro.core import COS_ALGORITHMS, ReadWriteConflicts, make_cos
from repro.core.command import Command
from repro.core.threaded import ThreadedCOS, ThreadedRuntime
from repro.errors import ShardError
from repro.obs.registry import MetricsRegistry
from repro.par import MpService
from repro.par.dispatcher import MpDispatcher
from repro.smr.replica import ParallelReplica

PROBEABLE = ("sequential", "class-based", "fine-grained", "lock-free",
             "indexed", "early", "early-batched")
MUTEX_FIRST = ("coarse-grained",)
#: Probeable algorithms whose ready set can hold several commands at once.
#: "sequential" is probeable but admits exactly one command at a time, and
#: "class-based" serializes same-class commands (all reads share the single
#: default class), so both drain in batches of one on this workload.
CONCURRENT = tuple(name for name in PROBEABLE
                   if name not in ("sequential", "class-based"))


def read(key):
    return Command("contains", (key,), writes=False)


def write(key):
    return Command("add", (key,), writes=True)


def make_threaded_cos(algorithm: str) -> ThreadedCOS:
    runtime = ThreadedRuntime()
    return ThreadedCOS(
        make_cos(algorithm, runtime, ReadWriteConflicts()), runtime)


def drain(cos: ThreadedCOS, max_size: int) -> list:
    """One blocking ``get`` plus up to ``max_size - 1`` ready handles
    probed with ``try_get`` — how a replica worker fills a batch."""
    handles = [cos.get()]
    while len(handles) < max_size:
        handle = cos.try_get()
        if handle is None:
            break
        handles.append(handle)
    return handles


class TestTryGet:

    def test_algorithm_lists_cover_the_registry(self):
        assert sorted(PROBEABLE + MUTEX_FIRST) == sorted(COS_ALGORITHMS)

    @pytest.mark.parametrize("algorithm", PROBEABLE)
    def test_empty_graph_probe_returns_none(self, algorithm):
        cos = make_threaded_cos(algorithm)
        assert cos.try_get() is None

    @pytest.mark.parametrize("algorithm", PROBEABLE)
    def test_ready_command_is_probeable(self, algorithm):
        cos = make_threaded_cos(algorithm)
        cos.insert(read(1))
        handle = cos.try_get()
        assert handle is not None
        assert cos.command_of(handle).args == (1,)
        cos.remove(handle)
        assert cos.try_get() is None

    @pytest.mark.parametrize("algorithm", PROBEABLE)
    def test_blocked_command_is_not_returned(self, algorithm):
        # Two conflicting writes: only the head of the dependency chain is
        # ready; the probe must not surface (or skip to) the second one.
        cos = make_threaded_cos(algorithm)
        cos.insert(write(1))
        cos.insert(write(1))
        first = cos.try_get()
        assert first is not None
        assert cos.try_get() is None
        cos.remove(first)
        second = cos.try_get()
        assert second is not None
        cos.remove(second)

    @pytest.mark.parametrize("algorithm", MUTEX_FIRST)
    def test_mutex_first_algorithms_degrade_to_none(self, algorithm):
        # coarse/fine open get() by taking the graph mutex, which try_get
        # must not gamble on (it could block while *holding* it).  The
        # probe declines — callers fall back to batches of one — and the
        # untouched generator leaves the graph fully functional.
        cos = make_threaded_cos(algorithm)
        cos.insert(read(1))
        assert cos.try_get() is None
        handle = cos.get()          # blocking path still works
        assert cos.command_of(handle).args == (1,)
        cos.remove(handle)


class TestGetBatch:

    @pytest.mark.parametrize("algorithm", CONCURRENT)
    def test_drains_ready_set_up_to_max(self, algorithm):
        # Non-conflicting reads: a DAG scheduler has all 5 simultaneously
        # ready; the early (static-lane) schedulers may serialize two keys
        # that hash to one lane, but must still drain several per call.
        cos = make_threaded_cos(algorithm)
        for key in range(5):
            cos.insert(read(key))
        sizes = []
        keys = []
        while sum(sizes) < 5:
            batch = drain(cos, 8)
            sizes.append(len(batch))
            keys.extend(cos.command_of(h).args[0] for h in batch)
            for handle in batch:
                cos.remove(handle)
        assert sizes[0] >= 2, f"first drain got only {sizes[0]} of 5 ready"
        assert sorted(keys) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("algorithm", CONCURRENT)
    def test_max_size_caps_the_drain(self, algorithm):
        cos = make_threaded_cos(algorithm)
        for key in range(5):
            cos.insert(read(key))
        batch = drain(cos, 3)
        assert len(batch) == 3      # at least 4 of 5 are ready in any lane map
        retrieved = len(batch)
        while retrieved < 5:
            for handle in batch:
                cos.remove(handle)
            batch = drain(cos, 8)
            assert 1 <= len(batch) <= 5 - retrieved
            retrieved += len(batch)
        for handle in batch:
            cos.remove(handle)

    @pytest.mark.parametrize(
        "algorithm", MUTEX_FIRST + ("sequential", "class-based"))
    def test_one_at_a_time_schedulers_yield_batches_of_one(self, algorithm):
        cos = make_threaded_cos(algorithm)
        for key in range(4):
            cos.insert(read(key))
        sizes = []
        for _ in range(4):
            batch = drain(cos, 8)
            sizes.append(len(batch))
            for handle in batch:
                cos.remove(handle)
        assert sizes == [1, 1, 1, 1]


class TestDispatcherBatches:

    def test_submit_many_rejects_empty_batch(self):
        dispatcher = MpDispatcher("kv", {}, 1)
        dispatcher._started = True
        with pytest.raises(ShardError):
            dispatcher.submit_many(0, [])

    def test_request_many_roundtrip_and_order(self):
        registry = MetricsRegistry()
        dispatcher = MpDispatcher("kv", {}, 1, registry)
        dispatcher.start()
        try:
            commands = [KVStoreService.put(f"k{i}", i) for i in range(6)]
            outcomes, busy = dispatcher.request_many(0, commands)
            assert [status for status, _ in outcomes] == ["ok"] * 6
            assert busy >= 0.0
            outcomes, _ = dispatcher.request_many(
                0, [KVStoreService.get(f"k{i}") for i in range(6)])
            assert [payload for _, payload in outcomes] == list(range(6))
        finally:
            dispatcher.stop()
        histogram = registry.histogram("mp_batch_size")
        assert histogram.count == 2
        assert histogram.sum == 12

    def test_request_many_isolates_per_command_errors(self):
        dispatcher = MpDispatcher("kv", {}, 1)
        dispatcher.start()
        try:
            outcomes, _ = dispatcher.request_many(0, [
                KVStoreService.put("a", 1),
                Command("explode", (), writes=True),
                KVStoreService.get("a"),
            ])
            statuses = [status for status, _ in outcomes]
            assert statuses == ["ok", "err", "ok"]
            error_type, message, trace = outcomes[1][1]
            assert error_type == "ValueError"
            assert "explode" in message
            # The command after the failure still executed.
            assert outcomes[2][1] == 1
        finally:
            dispatcher.stop()


class TestEngineExecuteMany:

    def test_groups_by_shard_and_preserves_input_order(self):
        registry = MetricsRegistry()
        with MpService("kv", workers=3, registry=registry) as engine:
            puts = [KVStoreService.put(f"key-{i}", i * 11) for i in range(20)]
            assert engine.execute_many(puts) == [None] * 20
            gets = [KVStoreService.get(f"key-{i}") for i in range(20)]
            assert engine.execute_many(gets) == [i * 11 for i in range(20)]
            assert engine.execute_many([]) == []
        # 20 commands over 3 shards cross in at most 3 hops per call.
        histogram = registry.histogram("mp_batch_size")
        assert histogram.count <= 6
        assert histogram.sum == 40

    def test_single_command_error_raises_shard_error(self):
        with MpService("kv", workers=2) as engine:
            engine.execute_many([KVStoreService.put("a", 1)])
            with pytest.raises(ShardError):
                engine.execute_many([
                    KVStoreService.put("b", 2),
                    Command("explode", ("b",), writes=True),
                ])
            # Workers survive a per-command failure: the engine keeps
            # executing and the non-failing batch member landed.
            assert engine.execute_many([KVStoreService.get("a"),
                                        KVStoreService.get("b")]) == [1, 2]

    def test_matches_unbatched_execution(self):
        reference = KVStoreService()
        commands = [KVStoreService.put(f"key-{i}", i) for i in range(24)]
        for command in commands:
            reference.execute(command)
        with MpService("kv", workers=4) as engine:
            engine.execute_many(commands)
            assert engine.snapshot() == reference.snapshot()


class TestBatchedReplica:

    def _run_replica(self):
        registry = MetricsRegistry()
        engine = MpService("kv", workers=2, registry=registry)
        engine.start()
        replica = ParallelReplica(0, engine, workers=2, registry=registry)
        replica.start()
        try:
            commands = [KVStoreService.put(f"key-{i}", i) for i in range(48)]
            for offset in range(0, len(commands), 8):
                replica.on_deliver(offset, commands[offset:offset + 8])
            deadline = time.monotonic() + 30
            while replica.executed < len(commands):
                assert time.monotonic() < deadline, (
                    f"only {replica.executed}/{len(commands)} executed")
                time.sleep(0.01)
            snapshot = engine.snapshot()
        finally:
            replica.stop()
            engine.stop()
        return snapshot, registry

    def test_batched_replica_executes_everything(self):
        snapshot, registry = self._run_replica()
        assert snapshot == {f"key-{i}": i for i in range(48)}
        histogram = registry.histogram("mp_batch_size")
        assert histogram.count >= 1
        assert histogram.sum >= 48

    def test_default_dispatch_batch_resolution(self):
        engine_like = MpService("kv", workers=2)     # has execute_many
        replica = ParallelReplica(0, engine_like, workers=2)
        assert replica.dispatch_batch == 16
        replica_plain = ParallelReplica(0, KVStoreService(), workers=2)
        assert replica_plain.dispatch_batch == 1
        with pytest.raises(TypeError):
            ParallelReplica(0, engine_like, workers=2, dispatch_batch=4)

    def test_sequential_replica_never_batches(self):
        # FIFO-queued commands may conflict, so the sequential COS must
        # pin the drain to one command per dispatch even though its
        # service supports execute_many.
        engine_like = MpService("kv", workers=2)     # has execute_many
        replica = ParallelReplica(0, engine_like, cos_algorithm="sequential")
        assert replica.dispatch_batch == 1
        assert replica.workers == 1
