"""Tests for the threaded event-loop node and the timeout tracker."""

import queue
import time

import pytest

from repro.broadcast import (
    Deliver,
    FaultPlan,
    SequencerBroadcast,
    ThreadedNode,
    ThreadedTransport,
    TimeoutTracker,
)
from repro.broadcast.messages import InstallSnapshot, SendSnapshot, Snapshot
from repro.errors import ReproError, ShutdownError


class TestTimeoutTracker:
    def test_first_check_never_suspects(self):
        tracker = TimeoutTracker()
        assert tracker.expired() is False

    def test_quiet_period_suspects(self):
        tracker = TimeoutTracker()
        tracker.expired()
        assert tracker.expired() is True

    def test_activity_clears_suspicion(self):
        tracker = TimeoutTracker()
        tracker.expired()
        tracker.record_activity()
        assert tracker.expired() is False

    def test_activity_consumed_per_period(self):
        tracker = TimeoutTracker()
        tracker.expired()
        tracker.record_activity()
        tracker.expired()
        assert tracker.expired() is True  # no new activity since

    def test_reset_restores_grace(self):
        tracker = TimeoutTracker()
        tracker.expired()
        tracker.reset()
        assert tracker.expired() is False


class TestThreadedNode:
    def _cluster(self, n=2):
        transport = ThreadedTransport(n, FaultPlan(min_delay=0, max_delay=0))
        delivered = [[] for _ in range(n)]
        nodes = [
            ThreadedNode(
                i, SequencerBroadcast(i, n), transport,
                lambda inst, payload, log=delivered[i]: log.append(payload),
            )
            for i in range(n)
        ]
        for node in nodes:
            node.start()
        return transport, nodes, delivered

    def test_submit_round_trip(self):
        transport, nodes, delivered = self._cluster()
        try:
            nodes[1].submit("hello")
            deadline = time.time() + 5
            while time.time() < deadline and len(delivered[1]) < 1:
                time.sleep(0.01)
            assert delivered[0] == ["hello"]
            assert delivered[1] == ["hello"]
        finally:
            for node in nodes:
                node.stop()
            transport.close()

    def test_stop_is_idempotent(self):
        transport, nodes, _ = self._cluster()
        nodes[0].stop()
        nodes[0].stop()
        nodes[0].join(timeout=5)
        assert not nodes[0].running
        nodes[1].stop()
        transport.close()

    def test_submit_after_stop_raises(self):
        transport, nodes, _ = self._cluster()
        nodes[0].stop()
        with pytest.raises(ShutdownError):
            nodes[0].submit("x")
        nodes[1].stop()
        transport.close()


class _StubProtocol:
    """Just what the snapshot paths of the adapter touch."""

    def __init__(self, next_deliver):
        self.next_deliver = next_deliver
        self.installed = []

    def on_snapshot_installed(self, instance):
        self.installed.append(instance)
        return [Deliver(instance + 1, "held")]


class _StubTransport:
    def __init__(self):
        self.sent = []
        self.fail_with = None

    def inbox(self, node_id):
        return queue.Queue()

    def send(self, src, dst, msg):
        if self.fail_with is not None:
            raise self.fail_with
        self.sent.append((dst, msg))


class TestSnapshotTransfer:
    def _node(self, next_deliver=101, app_instance=100, **hooks):
        self.takes = 0

        def take():
            self.takes += 1
            return Snapshot(app_instance, ["state"], {"c": (1, True)})

        self.delivered = []
        self.transport = _StubTransport()
        self.protocol = _StubProtocol(next_deliver)
        hooks.setdefault("take_snapshot", take)
        return ThreadedNode(
            0, self.protocol, self.transport,
            lambda inst, payload: self.delivered.append((inst, payload)),
            **hooks)

    def test_one_quiesce_serves_many_requests(self):
        node = self._node()
        # Three requests the cached cut is fresh enough for: one take.
        node._perform([SendSnapshot(1, 90), SendSnapshot(2, 95),
                       SendSnapshot(1, 100)])
        assert self.takes == 1
        assert [dst for dst, _ in self.transport.sent] == [1, 2, 1]
        assert all(msg.instance == 100 for _, msg in self.transport.sent)
        # The protocol moved on and asks for a newer one: a second take.
        self.protocol.next_deliver = 301
        node._perform([SendSnapshot(2, 172)])
        assert self.takes == 2

    def test_snapshot_is_stamped_with_the_protocol_frontier(self):
        # Instances 98..100 were no-ops: the application last saw 97, but
        # its state is the state after instance 100.
        node = self._node(next_deliver=101, app_instance=97)
        node._perform([SendSnapshot(1, 99)])
        (_, sent), = self.transport.sent
        assert (sent.instance, sent.state) == (100, ["state"])
        node._perform([SendSnapshot(1, 99)])
        assert self.takes == 1

    def test_unsendable_snapshot_warns_and_the_node_goes_on(self):
        node = self._node()
        self.transport.fail_with = ReproError(
            "frame of 20000000 bytes exceeds 16777216")
        with pytest.warns(RuntimeWarning, match="exceeds 16777216"):
            node._perform([SendSnapshot(1, 90)])
        self.transport.fail_with = None
        node._perform([SendSnapshot(1, 90)])
        assert len(self.transport.sent) == 1 and self.takes == 1

    def test_without_hooks_the_actions_are_dropped(self):
        node = self._node(take_snapshot=None)
        node._perform([SendSnapshot(1, 90),
                       InstallSnapshot(Snapshot(5, ["s"]))])
        assert self.transport.sent == [] and self.protocol.installed == []

    def test_protocol_skips_ahead_only_after_the_install(self):
        order = []
        node = self._node(
            install_snapshot=lambda snap: order.append(("install", snap)))
        snapshot = Snapshot(200, ["state"])
        self.protocol.on_snapshot_installed = lambda instance: (
            order.append(("installed", instance)) or [Deliver(201, "held")])
        node._perform([InstallSnapshot(snapshot)])
        assert order == [("install", snapshot), ("installed", 200)]
        assert self.delivered == [(201, "held")]

    def test_failed_install_leaves_the_protocol_where_it_was(self):
        def refuse(snapshot):
            raise ReproError("did not quiesce within 5.0s")

        node = self._node(install_snapshot=refuse)
        with pytest.warns(RuntimeWarning, match="not installed"):
            node._perform([InstallSnapshot(Snapshot(200, ["state"]))])
        assert self.protocol.installed == [] and self.delivered == []
