"""Unit tests of the Multi-Paxos state machine (no network)."""

import pytest

from repro.broadcast import (
    Accept,
    Accepted,
    CatchupReply,
    CatchupRequest,
    Decide,
    Deliver,
    Forward,
    Heartbeat,
    InMemoryStableStore,
    MultiPaxos,
    Nack,
    Prepare,
    Promise,
    Send,
    SetTimer,
)
from repro.broadcast.messages import InstallSnapshot, SendSnapshot, Snapshot
from repro.broadcast.paxos import (
    CATCHUP_CHUNK,
    HEARTBEAT_TIMER,
    LEADER_TIMER,
    NOOP,
)
from repro.errors import ConfigurationError


def sends(actions, msg_type=None):
    picked = [a for a in actions if isinstance(a, Send)]
    if msg_type is not None:
        picked = [a for a in picked if isinstance(a.msg, msg_type)]
    return picked


def delivers(actions):
    return [(a.instance, a.payload) for a in actions if isinstance(a, Deliver)]


def timers(actions):
    return [a.name for a in actions if isinstance(a, SetTimer)]


def make_trio():
    return [MultiPaxos(i, 3) for i in range(3)]


class TestBasics:
    def test_node_zero_starts_leader(self):
        nodes = make_trio()
        assert nodes[0].is_leader
        assert not nodes[1].is_leader

    def test_start_arms_timers(self):
        nodes = make_trio()
        assert set(timers(nodes[0].start())) == {LEADER_TIMER, HEARTBEAT_TIMER}
        assert timers(nodes[1].start()) == [LEADER_TIMER]

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            MultiPaxos(0, 2)  # even n
        with pytest.raises(ConfigurationError):
            MultiPaxos(5, 3)  # id out of range
        with pytest.raises(ConfigurationError):
            MultiPaxos(0, 3, batch_size=0)

    def test_single_node_decides_immediately(self):
        node = MultiPaxos(0, 1)
        actions = node.submit("v")
        assert delivers(actions) == [(0, ("v",))]


class TestNormalCase:
    def test_leader_proposes_accept(self):
        leader = make_trio()[0]
        actions = leader.submit("payload")
        accepts = sends(actions, Accept)
        assert {a.dst for a in accepts} == {1, 2}
        assert accepts[0].msg.value == ("payload",)
        assert accepts[0].msg.instance == 0

    def test_acceptor_accepts_and_replies(self):
        follower = make_trio()[1]
        actions = follower.on_message(0, Accept((0, 0), 0, ("v",)))
        (reply,) = sends(actions, Accepted)
        assert reply.dst == 0
        assert reply.msg.instance == 0

    def test_quorum_decides_and_delivers(self):
        leader = make_trio()[0]
        leader.submit("v")
        actions = leader.on_message(1, Accepted((0, 0), 0))
        assert delivers(actions) == [(0, ("v",))]
        # Cumulative-ack mode (the default) replaces the Decide round with
        # the commit_up_to frontier piggybacked on later Accepts/heartbeats.
        assert sends(actions, Decide) == []

    def test_per_instance_mode_broadcasts_decide(self):
        leader = MultiPaxos(0, 3, cumulative_acks=False)
        leader.submit("v")
        actions = leader.on_message(1, Accepted((0, 0), 0))
        assert delivers(actions) == [(0, ("v",))]
        decides = sends(actions, Decide)
        assert {d.dst for d in decides} == {1, 2}

    def test_duplicate_accepted_ignored(self):
        leader = make_trio()[0]
        leader.submit("v")
        leader.on_message(1, Accepted((0, 0), 0))
        again = leader.on_message(2, Accepted((0, 0), 0))
        assert delivers(again) == []

    def test_follower_learns_from_decide(self):
        follower = make_trio()[1]
        actions = follower.on_message(0, Decide(0, ("v",)))
        assert delivers(actions) == [(0, ("v",))]

    def test_in_order_delivery_with_gap(self):
        follower = make_trio()[1]
        actions = follower.on_message(0, Decide(1, ("b",)))
        assert delivers(actions) == []  # instance 0 missing
        assert sends(actions, CatchupRequest)  # asks for the gap
        actions = follower.on_message(0, Decide(0, ("a",)))
        assert delivers(actions) == [(0, ("a",)), (1, ("b",))]

    def test_batching(self):
        leader = MultiPaxos(0, 3, batch_size=3, pipeline=1)
        leader.submit("a")
        # pipeline=1: b and c stay pending until instance 0 decides
        leader.submit("b")
        leader.submit("c")
        actions = leader.on_message(1, Accepted((0, 0), 0))
        accepts = sends(actions, Accept)
        assert accepts and accepts[0].msg.value == ("b", "c")

    def test_forward_reaches_leader(self):
        leader, follower, _ = make_trio()
        actions = follower.submit("v")
        (fwd,) = sends(actions, Forward)
        assert fwd.dst == 0
        actions = leader.on_message(1, fwd.msg)
        assert sends(actions, Accept)


class TestLeaderChange:
    def _campaign(self, node):
        """Force a campaign via two quiet leader-timer periods."""
        node.start()
        node.on_timer(LEADER_TIMER)  # grace period
        return node.on_timer(LEADER_TIMER)

    def test_campaign_sends_prepare(self):
        follower = make_trio()[1]
        actions = self._campaign(follower)
        prepares = sends(actions, Prepare)
        assert {p.dst for p in prepares} == {0, 2}
        assert follower.preparing == (1, 1)

    def test_heartbeat_suppresses_campaign(self):
        follower = make_trio()[1]
        follower.start()
        follower.on_timer(LEADER_TIMER)
        follower.on_message(0, Heartbeat((0, 0)))
        actions = follower.on_timer(LEADER_TIMER)
        assert not sends(actions, Prepare)

    def test_promise_quorum_elects(self):
        follower = make_trio()[1]
        self._campaign(follower)
        actions = follower.on_message(0, Promise((1, 1), {}))
        assert follower.is_leader
        assert HEARTBEAT_TIMER in timers(actions)

    def test_new_leader_reproposes_accepted_values(self):
        nodes = make_trio()
        # Old leader got instance 0 accepted at node 2 only.
        nodes[2].on_message(0, Accept((0, 0), 0, ("old",)))
        self._campaign(nodes[1])
        promise_from_2 = sends(nodes[2].on_message(1, Prepare((1, 1))), Promise)
        actions = nodes[1].on_message(2, promise_from_2[0].msg)
        accepts = sends(actions, Accept)
        assert any(a.msg.instance == 0 and a.msg.value == ("old",)
                   for a in accepts)

    def test_promise_reports_decided_suffix(self):
        """Regression: a decided instance known only to one promiser (its
        accepted entry is pruned on learn) must still constrain the new
        leader, or it would re-propose a fresh value at a decided slot."""
        nodes = make_trio()
        nodes[1].on_message(0, Accept((0, 0), 0, ("w",)))
        nodes[1].on_message(0, Decide(0, ("w",)))  # pruned from accepted
        assert 0 not in nodes[1].accepted
        self._campaign(nodes[2])
        reply = sends(nodes[1].on_message(2, Prepare((1, 2), 0)), Promise)
        assert reply[0].msg.accepted[0] == ((1, 2), ("w",))
        actions = nodes[2].on_message(1, reply[0].msg)
        accepts = sends(actions, Accept)
        assert any(a.msg.instance == 0 and a.msg.value == ("w",)
                   for a in accepts)

    def test_gap_filled_with_noop(self):
        nodes = make_trio()
        # Node 2 accepted instance 1 but nobody saw instance 0.
        nodes[2].on_message(0, Accept((0, 0), 1, ("later",)))
        self._campaign(nodes[1])
        promise = sends(nodes[2].on_message(1, Prepare((1, 1))), Promise)[0].msg
        actions = nodes[1].on_message(2, promise)
        accepts = sends(actions, Accept)
        noop_accepts = [a for a in accepts if a.msg.value == NOOP]
        assert any(a.msg.instance == 0 for a in noop_accepts)

    def test_noop_never_delivered(self):
        follower = make_trio()[1]
        actions = []
        actions.extend(follower.on_message(0, Decide(0, NOOP)))
        actions.extend(follower.on_message(0, Decide(1, ("real",))))
        assert delivers(actions) == [(1, ("real",))]

    def test_old_ballot_prepare_nacked(self):
        follower = make_trio()[1]
        follower.on_message(2, Prepare((5, 2)))
        actions = follower.on_message(0, Prepare((1, 0)))
        nacks = sends(actions, Nack)
        assert nacks and nacks[0].msg.promised == (5, 2)

    def test_nack_steps_leader_down(self):
        leader = make_trio()[0]
        leader.submit("v")
        leader.on_message(1, Nack((0, 0), (3, 1)))
        assert not leader.is_leader
        assert leader.ballot == (3, 1)

    def test_higher_accept_steps_down(self):
        leader = make_trio()[0]
        leader.on_message(1, Accept((2, 1), 0, ("x",)))
        assert not leader.is_leader
        assert leader.leader_hint() == 1

    def test_stale_heartbeat_ignored(self):
        follower = make_trio()[1]
        follower.on_message(2, Prepare((5, 2)))  # promised (5, 2)
        follower._leader_tracker.record_activity()
        follower._leader_tracker.expired()  # reset window
        follower.on_message(0, Heartbeat((0, 0)))
        # Old leader's heartbeat must not count as activity for ballot (5,2).
        assert follower._leader_tracker.expired()


class TestCatchup:
    def test_catchup_round_trip(self):
        leader, follower, _ = make_trio()
        leader.submit("a")
        leader.on_message(1, Accepted((0, 0), 0))
        request = CatchupRequest(0)
        (reply,) = sends(leader.on_message(1, request), CatchupReply)
        actions = follower.on_message(0, reply.msg)
        assert delivers(actions) == [(0, ("a",))]

    def test_catchup_with_nothing_known(self):
        follower = make_trio()[1]
        assert follower.on_message(2, CatchupRequest(5)) == []


class TestRetransmission:
    def test_heartbeat_retransmits_in_flight_accepts(self):
        """Regression: a lost Accept must not wedge its instance — the
        leader re-sends in-flight proposals with its heartbeats."""
        leader = make_trio()[0]
        leader.submit("v")  # instance 0 in flight, no Accepted yet
        actions = leader.on_timer(HEARTBEAT_TIMER)
        repeats = [a for a in sends(actions, Accept)]
        assert {a.dst for a in repeats} == {1, 2}
        assert all(a.msg.instance == 0 and a.msg.value == ("v",)
                   for a in repeats)

    def test_retransmit_skips_acked_peers(self):
        leader = make_trio()[0]
        leader.submit("v")
        leader.on_message(1, Accepted((0, 0), 0))  # decided (quorum of 2)
        actions = leader.on_timer(HEARTBEAT_TIMER)
        assert not sends(actions, Accept)  # nothing left in flight

    def test_acceptor_idempotent_on_repeat(self):
        follower = make_trio()[1]
        first = follower.on_message(0, Accept((0, 0), 0, ("v",)))
        second = follower.on_message(0, Accept((0, 0), 0, ("v",)))
        assert sends(first, Accepted) and sends(second, Accepted)
        assert follower.accepted[0] == ((0, 0), ("v",))


def learner(retain, decided=0, node_id=1, **kwargs):
    """A follower that learned (and delivered) instances 0..decided-1."""
    node = MultiPaxos(node_id, 3, log_retain=retain, **kwargs)
    for inst in range(decided):
        node.on_message(0, Decide(inst, (f"v{inst}",)))
    return node


def picked(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


class TestLogCompaction:
    def test_retains_only_the_last_delivered_instances(self):
        backing = {}
        node = learner(4, decided=10,
                       stable_store=InMemoryStableStore(backing))
        assert sorted(node.decided) == [6, 7, 8, 9]
        assert (node.log_floor, node.next_deliver) == (6, 10)
        # The stable store shrinks with the log and remembers the floor.
        assert sorted(key[1] for key in backing
                      if isinstance(key, tuple)) == [6, 7, 8, 9]
        assert backing["log_floor"] == 6

    def test_bare_protocol_keeps_everything(self):
        node = learner(None, decided=10)
        assert len(node.decided) == 10 and node.log_floor == 0

    def test_undelivered_tail_is_never_dropped(self):
        node = learner(2, decided=3)
        for inst in (5, 6, 7, 8):  # instance 3 is missing: nothing delivers
            node.on_message(0, Decide(inst, (f"v{inst}",)))
        assert sorted(node.decided) == [1, 2, 5, 6, 7, 8]

    def test_relearn_below_floor_is_ignored(self):
        node = learner(2, decided=6)
        assert node.on_message(0, Decide(1, ("v1",))) == []
        assert node.on_message(0, CatchupReply({0: ("v0",), 2: ("v2",)})) == []
        assert sorted(node.decided) == [4, 5]

    def test_late_accept_of_delivered_instance_is_acked_not_stored(self):
        backing = {}
        node = learner(2, decided=6,
                       stable_store=InMemoryStableStore(backing))
        actions = node.on_message(0, Accept((0, 0), 1, ("v1",)))
        assert sends(actions, Accepted)
        assert node.accepted == {} and ("accepted", 1) not in backing

    def test_catchup_below_floor_emits_the_snapshot_action(self):
        node = learner(4, decided=10)
        actions = node.on_message(2, CatchupRequest(5))
        # Floor 6: a cached checkpoint is good from the newer half of the
        # retained window on (instance 9 - 4 // 2).
        assert actions == [SendSnapshot(2, 7)]
        assert node.snapshots_sent == 1

    def test_catchup_at_the_floor_replays_instances(self):
        node = learner(4, decided=10)
        (reply,) = sends(node.on_message(2, CatchupRequest(6)), CatchupReply)
        assert reply.msg == CatchupReply(
            {inst: (f"v{inst}",) for inst in (6, 7, 8, 9)}, more=False)

    def test_catchup_is_a_range_plus_the_sparse_tail(self):
        node = learner(None, decided=CATCHUP_CHUNK + 10)
        tail = CATCHUP_CHUNK + 12  # decided above a gap, not delivered
        node.on_message(0, Decide(tail, ("tail",)))
        (first,) = sends(node.on_message(2, CatchupRequest(0)), CatchupReply)
        assert sorted(first.msg.decided) == list(range(CATCHUP_CHUNK))
        assert first.msg.more
        (rest,) = sends(node.on_message(2, CatchupRequest(CATCHUP_CHUNK)),
                        CatchupReply)
        assert sorted(rest.msg.decided) == [
            *range(CATCHUP_CHUNK, CATCHUP_CHUNK + 10), tail]
        assert not rest.msg.more
        # A requester already past the prefix gets the tail alone.
        (above,) = sends(node.on_message(2, CatchupRequest(tail - 1)),
                         CatchupReply)
        assert sorted(above.msg.decided) == [tail]

    def test_install_fast_forwards_then_delivers_the_held_suffix(self):
        backing = {}
        node = learner(4, decided=2,
                       stable_store=InMemoryStableStore(backing))
        node.on_message(0, Accept((0, 0), 3, ("v3",)))       # skipped below
        node.on_message(0, Decide(7, ("v7",)))               # held suffix
        node.on_message(0, Decide(8, ("v8",)))
        snapshot = Snapshot(6, ["state"], {"c": (1, True)})
        actions = node.on_message(0, snapshot)
        # Nothing moves until the adapter has restored the application.
        assert actions == [InstallSnapshot(snapshot)]
        assert node.next_deliver == 2
        actions = node.on_snapshot_installed(6)
        assert delivers(actions) == [(7, ("v7",)), (8, ("v8",))]
        assert (node.log_floor, node.next_deliver) == (7, 9)
        assert sorted(node.decided) == [7, 8] and node.accepted == {}
        assert backing["log_floor"] == 7
        assert not any(isinstance(key, tuple) and key[1] < 7
                       for key in backing)
        assert node.snapshots_installed == 1

    def test_stale_snapshot_is_ignored(self):
        node = learner(4, decided=5)
        assert node.on_message(0, Snapshot(4, ["old"])) == []
        assert node.on_message(0, Snapshot(2, ["older"])) == []
        assert node.on_snapshot_installed(3) == []
        assert node.next_deliver == 5

    def test_leader_ignores_snapshots(self):
        leader = MultiPaxos(0, 3, log_retain=4)
        assert leader.on_message(1, Snapshot(9, ["state"])) == []

    def test_install_abandons_a_campaign_from_the_old_frontier(self):
        node = learner(4, decided=1)
        node.start()
        node.on_timer(LEADER_TIMER)
        node.on_timer(LEADER_TIMER)
        assert node.preparing is not None
        node.on_snapshot_installed(20)
        assert node.preparing is None and not node.is_leader
        # A straggling promise for the abandoned ballot elects nobody.
        assert node.on_message(0, Promise((1, 1), {})) == []
        assert not node.is_leader

    def test_prepare_below_floor_is_refused_with_a_snapshot(self):
        node = learner(4, decided=10, lease_duration=0)
        actions = node.on_message(2, Prepare((1, 2), from_instance=3))
        assert picked(actions, SendSnapshot) and not sends(actions)
        assert node.promised == (-1, -1)  # no trace of the refused ballot
        # From the floor on the promise can report every decided value.
        actions = node.on_message(2, Prepare((1, 2), from_instance=6))
        (promise,) = sends(actions, Promise)
        assert sorted(promise.msg.accepted) == [6, 7, 8, 9]

    def test_checkpoint_restart_cannot_vouch_for_the_skipped_prefix(self):
        node = MultiPaxos(1, 3, first_instance=10, lease_duration=0)
        actions = node.on_message(2, Prepare((1, 2), from_instance=4))
        assert actions == [SendSnapshot(2, 9)]


class TestFloorSurvivesRestart:
    def _crashed(self):
        """A compacting follower's stable store after ten instances."""
        backing = {}
        node = learner(4, decided=10, lease_duration=0,
                       stable_store=InMemoryStableStore(backing))
        node.on_message(0, Accept((0, 0), 10, ("v10",)))  # in flight
        return backing

    def _rebuilt(self, backing, first_instance=0):
        return MultiPaxos(1, 3, log_retain=4, first_instance=first_instance,
                          stable_store=InMemoryStableStore(backing),
                          lease_duration=0)

    def test_restore_does_not_resurrect_the_pruned_prefix(self):
        backing = self._crashed()
        backing[("decided", 2)] = ("torn-delete",)
        node = self._rebuilt(backing)
        assert node.log_floor == 6 and sorted(node.decided) == [6, 7, 8, 9]
        assert ("decided", 2) not in backing
        # It still cannot vouch below the floor it compacted to.
        actions = node.on_message(2, Prepare((1, 2), from_instance=3))
        assert not sends(actions, Promise)

    def test_newer_checkpoint_raises_the_floor(self):
        backing = self._crashed()
        node = self._rebuilt(backing, first_instance=8)
        assert (node.log_floor, node.next_deliver) == (8, 8)
        assert sorted(node.decided) == [8, 9]
        assert backing["log_floor"] == 8 and ("decided", 7) not in backing

    def test_blank_application_under_its_own_floor(self):
        """Rebuilt with an application older than the persisted floor
        (here: blank), the node re-fetches [0, floor) from a peer that
        still has it — and until then neither campaigns nor offers a
        snapshot, since its own state is the stale one."""
        node = self._rebuilt(self._crashed())
        assert (node.next_deliver, node.log_floor) == (0, 6)
        node.start()
        node.on_timer(LEADER_TIMER)
        assert not sends(node.on_timer(LEADER_TIMER), Prepare)
        assert node.on_message(2, CatchupRequest(3)) == []
        actions = node.on_message(0, CatchupReply(
            {inst: (f"v{inst}",) for inst in range(6)}))
        # Delivered through the restored suffix, and the re-fetched prefix
        # is not kept: the floor stands.
        assert [inst for inst, _ in delivers(actions)] == list(range(10))
        assert sorted(node.decided) == [6, 7, 8, 9] and node.log_floor == 6
