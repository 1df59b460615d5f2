"""Multiprocess execution engine (repro.par) end-to-end tests.

Covers the engine facade (dispatch, barriers, snapshots, crash handling),
its integration with :class:`~repro.smr.replica.ParallelReplica`, the full
mp-engine :class:`~repro.smr.cluster.ThreadedCluster`, and the ``"mp"``
benchmark backend.  Everything here runs on one CPU — parallel *speedup*
is benchmarked, not unit-tested (benchmarks/bench_mp_scaling.py).
"""

import os
import signal
import time

import pytest

from repro.apps.bank import BankService
from repro.apps.kvstore import KVStoreService
from repro.core.command import Command
from repro.errors import ConfigurationError, ShardCrashed, ShardError
from repro.obs.registry import MetricsRegistry
from repro.par import MpEngineConfig, MpService
from repro.par.bench import MpBenchConfig, run_mp_bench
from repro.smr.cluster import ClusterConfig, ThreadedCluster
from repro.smr.replica import ParallelReplica
from repro.workload import READ_OP, WRITE_OP


class TestEngineBasics:
    def test_single_shard_dispatch_and_snapshot(self):
        registry = MetricsRegistry()
        with MpService("kv", workers=3, registry=registry) as engine:
            for i in range(24):
                assert engine.execute(KVStoreService.put(f"k{i}", i)) is None
            for i in range(24):
                assert engine.execute(KVStoreService.get(f"k{i}")) == i
            snapshot = engine.snapshot()
        assert snapshot == {f"k{i}": i for i in range(24)}
        assert registry.histogram("mp_dispatch_seconds").count == 48
        per_shard = sum(
            registry.counter("mp_shard_commands_total", shard=str(s)).value
            for s in range(3))
        assert per_shard == 48

    def test_snapshot_equals_unsharded_execution(self):
        reference = KVStoreService()
        commands = [KVStoreService.put(f"key-{i}", i * i) for i in range(30)]
        for command in commands:
            reference.execute(command)
        with MpService("kv", workers=4) as engine:
            for command in commands:
                engine.execute(command)
            assert engine.snapshot() == reference.snapshot()

    def test_restore_before_start_is_installed_on_start(self):
        engine = MpService("kv", workers=2)
        engine.restore({"x": 1, "y": 2})
        assert engine.snapshot() == {"x": 1, "y": 2}  # cold read
        with engine:
            assert engine.execute(KVStoreService.get("y")) == 2
            assert engine.snapshot() == {"x": 1, "y": 2}

    def test_restore_while_running(self):
        with MpService("kv", workers=2) as engine:
            engine.execute(KVStoreService.put("stale", 0))
            engine.restore({"fresh": 7})
            assert engine.execute(KVStoreService.get("stale")) is None
            assert engine.execute(KVStoreService.get("fresh")) == 7

    def test_linked_list_workload(self):
        with MpService("linked-list", {"initial_size": 20},
                       workers=2) as engine:
            assert engine.execute(Command(READ_OP, (5,), writes=False))
            assert engine.execute(Command(WRITE_OP, (999,))) is True
            assert engine.execute(Command(WRITE_OP, (999,))) is False
            snapshot = engine.snapshot()
        assert snapshot == sorted(set(range(20)) | {999})

    def test_dispatch_parallelism_hint(self):
        engine = MpService("kv", workers=3)
        assert engine.dispatch_parallelism == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MpService("kv", workers=0)
        with pytest.raises(ConfigurationError):
            MpService("no-such-service")
        with pytest.raises(ConfigurationError):
            MpEngineConfig(start_method="bogus").validate()


class TestBarriers:
    def test_cross_shard_transfer_conserves_money(self):
        registry = MetricsRegistry()
        with MpService("bank", workers=4, registry=registry) as engine:
            for account in ("alice", "bob", "carol", "dave"):
                engine.execute(BankService.deposit(account, 100))
            for _ in range(6):
                assert engine.execute(
                    BankService.transfer("alice", "bob", 5)) is True
            # Insufficient funds refuse without corrupting either shard.
            assert engine.execute(
                BankService.transfer("alice", "bob", 10_000)) is False
            snapshot = engine.snapshot()
        assert sum(snapshot.values()) == 400
        assert snapshot["alice"] == 70 and snapshot["bob"] == 130
        assert registry.counter("mp_barrier_rounds_total").value >= 6

    def test_barrier_interleaved_with_single_shard_traffic(self):
        with MpService("bank", workers=2) as engine:
            for i in range(8):
                engine.execute(BankService.deposit(f"acct-{i}", 10))
            for i in range(0, 8, 2):
                engine.execute(
                    BankService.transfer(f"acct-{i}", f"acct-{i + 1}", 1))
            for i in range(8):
                engine.execute(BankService.deposit(f"acct-{i}", 1))
            snapshot = engine.snapshot()
        assert sum(snapshot.values()) == 8 * 10 + 8


class TestFailures:
    def test_application_error_is_forwarded_not_fatal(self):
        with MpService("kv", workers=2) as engine:
            with pytest.raises(ShardError, match="unknown kv operation"):
                engine.execute(Command("bogus-op", ("k",)))
            # The worker survives an application-level error.
            assert engine.execute(KVStoreService.put("k", 1)) is None
            assert engine.running

    def test_killed_worker_poisons_engine(self):
        config = MpEngineConfig(dispatch_timeout=5.0)
        engine = MpService("kv", workers=2, config=config)
        engine.start()
        try:
            engine.execute(KVStoreService.put("a", 1))
            victim = engine._dispatcher._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            with pytest.raises(ShardCrashed):
                while time.monotonic() < deadline:
                    for i in range(20):
                        engine.execute(KVStoreService.put(f"x{i}", i))
                raise AssertionError("crash never surfaced")
            assert not engine.running
            # Poisoned: every further dispatch refuses immediately.
            with pytest.raises(ShardCrashed):
                engine.execute(KVStoreService.put("y", 2))
        finally:
            engine.stop()

    def test_stop_is_idempotent(self):
        engine = MpService("kv", workers=2)
        engine.start()
        engine.stop()
        engine.stop()
        assert not engine.running


class TestReplicaIntegration:
    def test_replica_thread_pool_respects_engine_hint(self):
        with MpService("kv", workers=2) as engine:
            replica = ParallelReplica(0, engine, workers=1)
            assert replica.workers == engine.dispatch_parallelism

    def test_replica_executes_through_engine(self):
        with MpService("kv", workers=2) as engine:
            replica = ParallelReplica(0, engine, workers=4)
            replica.start()
            try:
                commands = [KVStoreService.put(f"k{i}", i) for i in range(40)]
                replica.on_deliver(0, commands)
                deadline = time.monotonic() + 10.0
                while replica.executed < 40:
                    assert time.monotonic() < deadline, "replica stalled"
                    time.sleep(0.005)
                checkpoint = replica.take_checkpoint()
            finally:
                replica.stop()
        assert len(checkpoint.state) == 40


@pytest.mark.slow
class TestClusterIntegration:
    def test_mp_cluster_replicas_agree(self):
        config = ClusterConfig(engine="mp", service="kv", mp_workers=2,
                               n_replicas=3)
        with ThreadedCluster(config) as cluster:
            client = cluster.client()
            for i in range(20):
                client.execute(KVStoreService.put(f"k{i}", i))
            assert client.execute(KVStoreService.get("k7")) == 7
            # The first reply only proves one replica executed a command;
            # followers may still be catching up (the read is lease-served
            # at the leader alone, so 20 is the common floor).
            assert cluster.wait_converged(20, timeout=10.0), (
                cluster.total_executed())
            snapshots = [service.snapshot()
                         for service in cluster.services()]
        assert snapshots[0] == snapshots[1] == snapshots[2]
        assert len(snapshots[0]) == 20

    def test_mp_cluster_crash_recovery(self):
        config = ClusterConfig(engine="mp", service="bank", mp_workers=2,
                               n_replicas=3)
        with ThreadedCluster(config) as cluster:
            client = cluster.client()
            for account in ("a", "b", "c"):
                client.execute(BankService.deposit(account, 100))
            cluster.crash(2)
            for _ in range(4):
                client.execute(BankService.transfer("a", "b", 10))
            cluster.restart_replica(2)
            client.execute(BankService.deposit("c", 1))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                snapshots = [service.snapshot()
                             for service in cluster.services()]
                if snapshots[0] == snapshots[1] == snapshots[2]:
                    break
                time.sleep(0.05)
        assert snapshots[0] == snapshots[1] == snapshots[2]
        assert sum(snapshots[0].values()) == 301

    def test_mp_requires_service_spec(self):
        with pytest.raises(ConfigurationError, match="service name"):
            ClusterConfig(engine="mp",
                          service_factory=KVStoreService).validate()


class TestBenchBackend:
    def test_mp_bench_smoke(self):
        result = run_mp_bench(MpBenchConfig(
            engine="mp", mp_workers=2, key_space=200,
            warm_ops=20, measure_ops=120))
        assert result.executed == 120
        assert result.throughput > 0
        assert len(result.shard_busy) == 2
        payload = result.to_json()
        assert payload["config"]["engine"] == "mp"

    def test_threaded_baseline_smoke(self):
        result = run_mp_bench(MpBenchConfig(
            engine="threaded", workers=2, key_space=200,
            warm_ops=20, measure_ops=120))
        assert result.executed == 120
        assert result.shard_busy == []

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MpBenchConfig(engine="gpu").validate()
