"""Loopback TCP cluster tests.

The crash-and-recover scenarios that run against
:class:`~repro.smr.cluster.ThreadedCluster` run here over real localhost
sockets: every replica is a :class:`~repro.net.replica.ReplicaServer` with
its own TCP endpoint, and clients speak the wire protocol.  One process,
so the suite stays fast; the genuinely multi-process path is covered by
``tests/test_net_process.py``.

Convergence is asserted on *snapshot equality*, not executed counters: a
recovered replica restarts its counter at zero after installing a peer
checkpoint, so counters diverge across recoveries while state must not.
"""

import threading
import time

import pytest

from repro.broadcast import paxos
from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.net.cluster import TcpCluster
from repro.net.messages import ClientRequest
from repro.net.replica import ReplicaServer
from repro.net.transport import INBOX_LIMIT


def write(key):
    return Command("add", (key,), writes=True)


def read(key):
    return Command("contains", (key,), writes=False)


def wait_snapshots_equal(cluster, required_key=None, timeout=15.0):
    """Block until every replica's service snapshot is identical."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        if all(server.running for server in cluster.servers):
            last = [server.service.snapshot() for server in cluster.servers]
            if (all(snap == last[0] for snap in last)
                    and (required_key is None or required_key in last[0])):
                return last[0]
        time.sleep(0.05)
    raise AssertionError(f"replica snapshots did not converge: {last}")


@pytest.fixture(params=["paxos", "sequencer"])
def cluster(request):
    with TcpCluster(n_replicas=3, protocol=request.param) as running:
        yield running


class TestBasicOperation:
    def test_write_then_read(self, cluster):
        client = cluster.client()
        assert client.execute(write(500)) is True   # 500 not pre-populated
        assert client.execute(read(500)) is True
        assert client.execute(read(499)) is False

    def test_batch_preserves_order(self, cluster):
        client = cluster.client()
        responses = client.execute_batch(
            [write(600), read(600), write(600), read(1), read(601)])
        # second add of 600 is a no-op; key 1 is in the seed population.
        assert responses == [True, True, False, True, False]

    def test_two_clients_different_contacts(self, cluster):
        first = cluster.client(contact=0)
        second = cluster.client(contact=1)
        assert first.execute(write(700)) is True
        assert second.execute(write(701)) is True
        assert first.execute(read(701)) is True
        assert second.execute(read(700)) is True

    def test_all_replicas_converge(self, cluster):
        client = cluster.client()
        client.execute_batch([write(800 + key) for key in range(10)])
        snapshot = wait_snapshots_equal(cluster, required_key=809)
        assert all(800 + key in snapshot for key in range(10))

    def test_start_twice_rejected(self, cluster):
        with pytest.raises(ShutdownError):
            cluster.start()


class TestFaults:
    def test_follower_crash_keeps_serving(self, cluster):
        client = cluster.client()
        assert client.execute(write(900)) is True
        cluster.crash(2)  # not the paxos leader, not the sequencer
        responses = client.execute_batch(
            [write(901), read(900), read(901)])
        assert responses == [True, True, True]

    def test_contact_crash_client_fails_over(self, cluster):
        # The client's contact replica dies with the request mapping; the
        # retransmission (after one attempt timeout) goes through another
        # contact, and replica-side dedup keeps it safe.
        client = cluster.client(contact=2, timeout=0.5)
        assert client.execute(write(910)) is True
        cluster.crash(2)
        assert client.execute(write(911)) is True
        assert client.execute(read(910)) is True

    def test_restart_running_replica_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.restart_replica(0)


class TestRecovery:
    def test_crash_and_recover_follower(self):
        with TcpCluster(n_replicas=3, protocol="paxos") as cluster:
            client = cluster.client()
            client.execute_batch([write(100 + key) for key in range(6)])
            cluster.crash(1)
            client.execute_batch([write(200 + key) for key in range(6)])
            cluster.restart_replica(1)
            # A post-recovery write must reach the rebuilt replica too.
            assert client.execute(write(300)) is True
            snapshot = wait_snapshots_equal(cluster, required_key=300)
            assert 105 in snapshot      # pre-crash write
            assert 205 in snapshot      # write decided while 1 was down
        assert not cluster.servers[0].running  # teardown really stopped it

    def test_recover_without_live_peer_rejected(self):
        with TcpCluster(n_replicas=3, protocol="paxos") as cluster:
            for replica_id in range(3):
                cluster.crash(replica_id)
            with pytest.raises(ShutdownError):
                cluster.restart_replica(1)


@pytest.fixture
def small_log(monkeypatch):
    """Compact after 8 instances, so a short run outgrows the log."""
    monkeypatch.setattr(paxos, "LOG_RETAIN", 8)
    return 8


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestLogCompaction:
    @pytest.mark.parametrize("engine", ("threaded", "mp"))
    def test_blank_restart_past_the_log_converges_by_snapshot(
            self, small_log, engine):
        # (Under "mp" the install restores live shard worker processes.)
        with TcpCluster(n_replicas=3, protocol="paxos",
                        engine=engine) as cluster:
            client = cluster.client()
            assert client.execute(write(1000)) is True
            cluster.crash(2)
            # Lossy links: what the peers queue for the dead replica keeps
            # only its newest frames, so no backlog carries the history
            # back to instance 0 (a full one replays it without a snapshot).
            for server in cluster.servers[:2]:
                server.transport._queue_limit = 16
            for key in range(30):  # one instance each: far past the log
                client.execute(write(2000 + key))
            # Blank: no checkpoint handed over, as Supervisor.restart does.
            reborn = ReplicaServer(2, cluster.config)
            cluster.servers[2] = reborn
            reborn.start()
            assert client.execute(write(3000)) is True
            snapshot = wait_snapshots_equal(cluster, required_key=3000)
            assert 1000 in snapshot and 2029 in snapshot
            # State transfer stood in for history: nothing was replayed.
            # The counter is published after the restored state is.
            assert wait_for(
                lambda: reborn.node.protocol.snapshots_installed >= 1)
            assert reborn.replica.executed < 10
            assert cluster.servers[0].replica.executed >= 32

    def test_contact_that_jumped_a_request_still_answers_it(self, small_log):
        """Replica 2 is asked a write, forwards it, then misses its
        decision and everything after (a partition).  It catches up by
        snapshot — never executing the write — yet it is the only replica
        that knows where the client listens."""
        with TcpCluster(n_replicas=3, protocol="paxos", leader_timeout=5.0,
                        heartbeat_interval=0.03) as cluster:
            steady = cluster.client(contact=0)
            assert steady.execute(write(1000)) is True
            wait_snapshots_equal(cluster, required_key=1000)
            lagging = cluster.servers[2]
            deaf = threading.Event()
            deaf.set()
            intercept = lagging.transport._interceptor
            lagging.transport._interceptor = lambda src, msg: (
                True if deaf.is_set() and not isinstance(msg, ClientRequest)
                else intercept(src, msg))
            asker = cluster.client(contact=2, timeout=20.0)
            answers = []
            thread = threading.Thread(
                target=lambda: answers.append(asker.execute(write(4242))))
            thread.start()
            assert wait_for(
                lambda: 4242 in cluster.servers[0].service.snapshot())
            for key in range(20):
                steady.execute(write(2000 + key))
            behind = lagging.node.protocol.next_deliver
            assert cluster.servers[0].node.protocol.log_floor > behind
            executed = lagging.replica.executed
            deaf.clear()
            thread.join(timeout=15)
            assert answers == [True]
            assert wait_for(
                lambda: lagging.node.protocol.snapshots_installed >= 1)
            wait_snapshots_equal(cluster, required_key=2019)
            # Caught up without running what the snapshot covers.
            assert lagging.replica.executed - executed < 20

    def test_log_and_inboxes_stay_bounded_as_the_run_grows(self, small_log):
        with TcpCluster(n_replicas=3, protocol="paxos") as cluster:
            client = cluster.client()
            deepest = [0]
            done = threading.Event()

            def sample():
                while not done.wait(0.002):
                    deepest[0] = max(deepest[0], *(
                        server.transport.inbox_depth()
                        for server in cluster.servers))

            sampler = threading.Thread(target=sample)
            sampler.start()
            try:
                written = 0
                for batch in (60, 240):  # N, then 4N more
                    for _ in range(batch):
                        client.execute(write(5000 + written))
                        written += 1
                    wait_snapshots_equal(
                        cluster, required_key=5000 + written - 1)
                    for server in cluster.servers:
                        protocol = server.node.protocol
                        assert protocol.next_deliver >= written
                        assert len(protocol.decided) <= (
                            small_log + protocol.pipeline)
                        assert protocol.log_floor >= written - small_log
            finally:
                done.set()
                sampler.join(timeout=5)
            assert deepest[0] <= INBOX_LIMIT


class TestShutdown:
    def test_a_timer_step_in_flight_at_stop_does_not_kill_the_node(
            self, monkeypatch):
        """``stop()`` lands while the leader's node thread is about to fire
        its due timers (held open by a delay).  The node must neither fire
        them after stopping nor send into a closed transport: before the
        fix the heartbeat went to ``transport.send`` after ``close()`` and
        the node thread died with ``ShutdownError``."""
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        with TcpCluster(n_replicas=3, protocol="paxos") as cluster:
            assert cluster.client().execute(write(700)) is True
            leader = next(server for server in cluster.servers
                          if server.node.protocol.is_leader)
            node = leader.node
            fire_due_timers = node._fire_due_timers
            firing = threading.Event()

            def late_fire():
                firing.set()
                time.sleep(0.3)  # stop() runs inside this window
                fire_due_timers()

            node._fire_due_timers = late_fire
            assert firing.wait(timeout=5)
            leader.stop()
            node.join(timeout=5)
            assert not node.running
        assert not died, [hook.exc_value for hook in died]
