"""Tests for checkpointing, stable storage, and replica recovery."""

import threading
import time

import pytest

from repro.apps import KVStoreService, LinkedListService
from repro.broadcast.storage import InMemoryStableStore
from repro.broadcast import MultiPaxos, Accept, Prepare
from repro.core.command import Command
from repro.smr import ClusterConfig, ThreadedCluster
from repro.smr.checkpoint import Checkpoint
from repro.smr.replica import ParallelReplica


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestStableStore:
    def test_round_trip(self):
        store = InMemoryStableStore()
        store.put("promised", (3, 1))
        store.put(("accepted", 4), ((3, 1), "v"))
        assert store.get("promised") == (3, 1)
        assert store.get("missing", "dflt") == "dflt"
        assert dict(store.items())[("accepted", 4)] == ((3, 1), "v")

    def test_backing_dict_shared(self):
        backing = {}
        InMemoryStableStore(backing).put("k", 1)
        assert InMemoryStableStore(backing).get("k") == 1


class TestPaxosPersistence:
    def test_promise_survives_restart(self):
        backing = {}
        node = MultiPaxos(1, 3, stable_store=InMemoryStableStore(backing))
        node.on_message(2, Prepare((5, 2)))
        rebuilt = MultiPaxos(1, 3, stable_store=InMemoryStableStore(backing))
        assert rebuilt.promised == (5, 2)
        # The reborn acceptor must still reject older ballots.
        actions = rebuilt.on_message(0, Prepare((1, 0)))
        from repro.broadcast import Nack, Send
        nacks = [a for a in actions if isinstance(a, Send)
                 and isinstance(a.msg, Nack)]
        assert nacks and nacks[0].msg.promised == (5, 2)

    def test_accepted_values_survive_restart(self):
        backing = {}
        node = MultiPaxos(1, 3, stable_store=InMemoryStableStore(backing))
        node.on_message(0, Accept((0, 0), 3, ("v",)))
        rebuilt = MultiPaxos(1, 3, stable_store=InMemoryStableStore(backing))
        assert rebuilt.accepted[3] == ((0, 0), ("v",))

    def test_restored_node_is_not_leader(self):
        backing = {}
        MultiPaxos(0, 3, stable_store=InMemoryStableStore(backing))
        rebuilt = MultiPaxos(0, 3, first_instance=0,
                             stable_store=InMemoryStableStore(backing))
        # A fresh store leaves node 0 leading; with *any* persisted promise
        # above its ballot it must not resume leadership blindly.
        store = InMemoryStableStore(backing)
        store.put("promised", (2, 1))
        rebuilt = MultiPaxos(0, 3, stable_store=store)
        assert not rebuilt.is_leader

    def test_first_instance_skips_prefix(self):
        node = MultiPaxos(1, 3, first_instance=10)
        assert node.next_deliver == 10
        from repro.broadcast import Decide
        actions = node.on_message(0, Decide(10, ("v",)))
        from repro.broadcast import Deliver
        delivered = [a for a in actions if isinstance(a, Deliver)]
        assert [(d.instance, d.payload) for d in delivered] == [(10, ("v",))]


class TestReplicaCheckpoint:
    def test_checkpoint_reflects_delivered_prefix(self):
        replica = ParallelReplica(0, KVStoreService(), workers=3)
        replica.start()
        try:
            commands = tuple(Command("put", (f"k{i}", i), writes=True)
                             for i in range(20))
            replica.on_deliver(7, commands)
            checkpoint = replica.take_checkpoint()
            assert checkpoint.instance == 7
            assert checkpoint.state == {f"k{i}": i for i in range(20)}
        finally:
            replica.stop()

    def test_checkpoint_includes_dedup(self):
        replica = ParallelReplica(0, KVStoreService(), workers=1)
        replica.start()
        try:
            command = Command("put", ("k", 1), client_id="c", request_id=4,
                              writes=True)
            replica.on_deliver(0, (command,))
            checkpoint = replica.take_checkpoint()
            assert checkpoint.dedup["c"] == (4, None)
        finally:
            replica.stop()

    def test_empty_checkpoint(self):
        replica = ParallelReplica(0, KVStoreService(), workers=1)
        replica.start()
        try:
            checkpoint = replica.take_checkpoint()
            assert checkpoint.instance == -1
            assert checkpoint.state == {}
        finally:
            replica.stop()

    def test_install_checkpoint_before_start(self):
        replica = ParallelReplica(0, KVStoreService(), workers=1)
        replica.install_checkpoint(Checkpoint(5, {"a": 1}, {"c": (2, "r")}))
        assert replica.last_instance == 5
        assert replica.service.snapshot() == {"a": 1}
        replica.start()
        try:
            # A duplicate of the checkpointed request must be skipped.
            duplicate = Command("put", ("a", 9), client_id="c", request_id=2,
                                writes=True)
            replica.on_deliver(6, (duplicate,))
            time.sleep(0.1)
            assert replica.service.snapshot() == {"a": 1}
        finally:
            replica.stop()

    def test_install_while_running_quiesces_and_restores(self):
        answered = []
        replica = ParallelReplica(
            0, KVStoreService(), workers=3,
            on_response=lambda cmd, resp, rid: answered.append(
                (cmd.client_id, cmd.request_id, resp)))
        replica.start()
        try:
            replica.on_deliver(0, tuple(
                Command("put", (f"k{i}", i), client_id=f"c{i}", request_id=1,
                        writes=True) for i in range(30)))
            # No wait: the install itself must drain the 30 puts first, or
            # a straggler would write into the restored state.
            replica.install_checkpoint(
                Checkpoint(9, {"a": 1}, {"c": (4, "cached")}))
            assert replica.executed == 30
            assert replica.service.snapshot() == {"a": 1}
            assert replica.last_instance == 9
            answered.clear()
            # Covered by the snapshot: the latest request is re-answered
            # from its dedup table, an older one dropped; neither runs.
            replica.on_deliver(10, (
                Command("put", ("a", 2), client_id="c", request_id=4,
                        writes=True),
                Command("put", ("a", 3), client_id="c", request_id=3,
                        writes=True)))
            assert answered == [("c", 4, "cached")]
            # Delivery goes on from the installed cut.
            replica.on_deliver(11, (Command(
                "put", ("b", 2), client_id="c", request_id=5, writes=True),))
            assert wait_for(lambda: replica.executed == 31)
            assert replica.service.snapshot() == {"a": 1, "b": 2}
        finally:
            replica.stop()

    def test_stale_checkpoint_is_ignored_while_running(self):
        replica = ParallelReplica(0, KVStoreService(), workers=1)
        replica.start()
        try:
            replica.on_deliver(
                5, (Command("put", ("k", 1), writes=True),))
            replica.install_checkpoint(Checkpoint(3, {"old": 0}))
            assert replica.last_instance == 5
            assert wait_for(lambda: replica.service.snapshot() == {"k": 1})
        finally:
            replica.stop()


class TestClusterRecovery:
    def _config(self):
        return ClusterConfig(
            service_factory=lambda: LinkedListService(initial_size=20),
            cos_algorithm="lock-free",
            workers=3,
            stable_storage=True,
            heartbeat_interval=0.03,
            leader_timeout=0.12,
        )

    def test_crashed_follower_rejoins_and_catches_up(self):
        with ThreadedCluster(self._config()) as cluster:
            client = cluster.client()
            client.execute(Command("add", (100,), writes=True))
            cluster.crash(2)
            for key in range(101, 111):
                client.execute(Command("add", (key,), writes=True))
            cluster.restart_replica(2)
            # New traffic plus heartbeat anti-entropy bring replica 2 level.
            client.execute(Command("add", (200,), writes=True))
            assert wait_for(
                lambda: sorted(cluster.stacks[2].service.snapshot())
                == sorted(cluster.stacks[0].service.snapshot()),
                timeout=10,
            )

    def test_recovered_replica_serves_reads(self):
        with ThreadedCluster(self._config()) as cluster:
            client = cluster.client()
            client.execute(Command("add", (55,), writes=True))
            cluster.crash(1)
            cluster.restart_replica(1)
            assert wait_for(lambda: cluster.stacks[1].nodes[0].running)
            assert client.execute(
                Command("contains", (55,), writes=False)) is True

    def test_restart_right_after_crash_finds_the_node_stopped(self):
        """``crash`` lands while replica 1's node thread is mid-step (held
        there by a delay); it must return only once that thread is gone,
        so the restart straight after it is not refused as "still
        running"."""
        with ThreadedCluster(self._config()) as cluster:
            client = cluster.client()
            client.execute(Command("add", (55,), writes=True))
            node = cluster.stacks[1].nodes[0]
            fire_due_timers = node._fire_due_timers
            firing = threading.Event()

            def late_fire():
                firing.set()
                time.sleep(0.3)  # crash() runs inside this window
                fire_due_timers()

            node._fire_due_timers = late_fire
            assert firing.wait(timeout=5)
            cluster.crash(1)
            assert not node.running
            cluster.restart_replica(1)
            assert client.execute(
                Command("contains", (55,), writes=False)) is True

    def test_restart_running_replica_rejected(self):
        from repro.errors import ConfigurationError
        with ThreadedCluster(self._config()) as cluster:
            with pytest.raises(ConfigurationError):
                cluster.restart_replica(0)

    def test_crash_leader_then_recover_it(self):
        with ThreadedCluster(self._config()) as cluster:
            client = cluster.client(contact=1)
            client.execute(Command("add", (300,), writes=True))
            cluster.crash(0)
            client.execute(Command("add", (301,), writes=True))
            cluster.restart_replica(0)
            client.execute(Command("add", (302,), writes=True))
            assert wait_for(
                lambda: sorted(cluster.stacks[0].service.snapshot())
                == sorted(cluster.stacks[1].service.snapshot()),
                timeout=10,
            )
