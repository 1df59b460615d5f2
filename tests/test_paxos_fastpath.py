"""Tests of the Multi-Paxos fast path: cumulative acks, leases, linger.

Covers the three mechanisms of the ordering-layer overhaul
(docs/ordering.md):

- **cumulative acks**: ``Accepted.accepted_up_to`` and the ``commit_up_to``
  frontier replace the per-instance Decide round;
- **leader leases**: heartbeat-ack grants let the leader serve read-only
  payloads locally (``submit_read`` -> ``DeliverRead``), with recovery-debt
  and expiry guards;
- **batch linger**: a Nagle-style timer holds sub-full batches open while
  earlier instances are in flight.

Plus a seeded differential check that cumulative and per-instance modes
deliver identical histories under message loss/duplication/reordering, and
a clean sweep of the lease model-checking harness (repro.check.paxos_lease).
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.broadcast import (
    Accept,
    Accepted,
    Decide,
    Deliver,
    DeliverRead,
    Forward,
    Heartbeat,
    HeartbeatAck,
    MultiPaxos,
    Send,
    SetTimer,
)
from repro.broadcast.paxos import HEARTBEAT_TIMER, LINGER_TIMER
from repro.check import LeaseCheckConfig, run_walk


def sends(actions, msg_type=None):
    picked = [a for a in actions if isinstance(a, Send)]
    if msg_type is not None:
        picked = [a for a in picked if isinstance(a.msg, msg_type)]
    return picked


def delivers(actions):
    return [(a.instance, a.payload) for a in actions if isinstance(a, Deliver)]


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def leased_pair() -> Tuple[MultiPaxos, MultiPaxos, ManualClock]:
    """Leader 0 + follower 1 of a trio sharing one manual clock."""
    clock = ManualClock()
    leader = MultiPaxos(0, 3, lease_duration=1.0, lease_margin=0.1,
                        clock=clock)
    follower = MultiPaxos(1, 3, lease_duration=1.0, lease_margin=0.1,
                          clock=clock)
    return leader, follower, clock


def grant_lease(leader: MultiPaxos, follower: MultiPaxos) -> None:
    """One heartbeat round-trip: follower grants, leader records."""
    (beat,) = [a for a in sends(leader.on_timer(HEARTBEAT_TIMER), Heartbeat)
               if a.dst == follower.node_id]
    (ack,) = sends(follower.on_message(leader.node_id, beat.msg),
                   HeartbeatAck)
    leader.on_message(follower.node_id, ack.msg)


class TestCumulativeAcks:
    def test_follower_learns_from_accept_commit_frontier(self):
        leader = MultiPaxos(0, 3, batch_size=1)
        follower = MultiPaxos(1, 3)
        first = sends(leader.submit("a"), Accept)[0].msg
        follower.on_message(0, first)
        leader.on_message(1, Accepted((0, 0), 0, 0))   # decides instance 0
        second = sends(leader.submit("b"), Accept)[0].msg
        assert second.commit_up_to == 0                # frontier piggybacked
        actions = follower.on_message(0, second)
        assert delivers(actions) == [(0, ("a",))]      # learned, no Decide

    def test_heartbeat_frontier_replaces_decide(self):
        leader = MultiPaxos(0, 3, batch_size=1)
        follower = MultiPaxos(1, 3)
        accept = sends(leader.submit("a"), Accept)[0].msg
        follower.on_message(0, accept)
        decide_actions = leader.on_message(1, Accepted((0, 0), 0, 0))
        assert sends(decide_actions, Decide) == []     # no Decide round
        (beat,) = [a for a in
                   sends(leader.on_timer(HEARTBEAT_TIMER), Heartbeat)
                   if a.dst == 1]
        assert beat.msg.decided_up_to == 1
        actions = follower.on_message(0, beat.msg)
        assert delivers(actions) == [(0, ("a",))]

    def test_one_ack_covers_a_prefix_of_instances(self):
        leader = MultiPaxos(0, 3, batch_size=1, pipeline=8)
        for token in "abcd":
            leader.submit(token)
        # A single cumulative ack from one follower decides all four.
        actions = leader.on_message(1, Accepted((0, 0), 3, 3))
        assert [inst for inst, _ in delivers(actions)] == [0, 1, 2, 3]

    def test_heartbeat_ack_doubles_as_cumulative_ack(self):
        # The Accepted reply was lost; the next heartbeat ack's
        # accepted_up_to must still decide the in-flight instance.
        leader, follower, _ = leased_pair()
        accept = sends(leader.submit("v"), Accept)[0].msg
        follower.on_message(0, accept)                 # reply dropped
        (beat,) = [a for a in
                   sends(leader.on_timer(HEARTBEAT_TIMER), Heartbeat)
                   if a.dst == 1]
        hb_actions = follower.on_message(0, beat.msg)
        (ack,) = sends(hb_actions, HeartbeatAck)
        assert ack.msg.accepted_up_to == 0
        actions = leader.on_message(1, ack.msg)
        assert delivers(actions) == [(0, ("v",))]

    def test_heartbeat_ack_does_not_vouch_for_a_deposed_leaders_values(self):
        """Regression (found by the lease harness at 10x the CI budget): a
        heartbeat does not raise the promise, so the follower's frontier
        was counted over entries accepted from the *old* leader while the
        ack was stamped with the new ballot — the new leader then decided
        its own, different proposals for those instances with no quorum."""
        follower = MultiPaxos(1, 3, lease_duration=0.16, lease_margin=0.02)
        for inst in range(3):
            follower.on_message(0, Accept((0, 0), inst, (f"old{inst}",)))
        new_leader = MultiPaxos(2, 3, batch_size=1, pipeline=8)
        new_leader.is_leader, new_leader.ballot = True, (1, 2)
        for token in "xyz":
            new_leader.submit(token)
        (ack,) = sends(follower.on_message(2, Heartbeat((1, 2), 0, 0.0)),
                       HeartbeatAck)
        assert ack.msg.accepted_up_to == -1
        assert delivers(new_leader.on_message(1, ack.msg)) == []


class TestLeaseReads:
    def test_read_served_locally_under_valid_lease(self):
        leader, follower, _ = leased_pair()
        grant_lease(leader, follower)
        actions = leader.submit_read("r")
        assert actions == [DeliverRead("r")]
        assert leader.lease_reads_served == 1

    def test_read_falls_back_without_quorum_of_grants(self):
        leader, _, _ = leased_pair()
        actions = leader.submit_read("r")              # no acks yet
        assert not any(isinstance(a, DeliverRead) for a in actions)
        assert sends(actions, Accept)                  # ordered path

    def test_read_falls_back_after_expiry(self):
        leader, follower, clock = leased_pair()
        grant_lease(leader, follower)
        clock.advance(5.0)                             # duration is 1.0
        actions = leader.submit_read("r")
        assert not any(isinstance(a, DeliverRead) for a in actions)

    def test_read_falls_back_on_follower(self):
        _, follower, _ = leased_pair()
        actions = follower.submit_read("r")
        assert sends(actions, Forward)                 # ordered path

    def test_recovery_debt_blocks_reads_until_delivered(self):
        # A freshly elected leader re-proposes a constrained value; until
        # that instance is delivered locally, an instance decided under the
        # old ballot may have executed elsewhere — reads must wait.
        clock = ManualClock()
        nodes = [MultiPaxos(i, 3, lease_duration=1.0, lease_margin=0.1,
                            clock=clock) for i in range(3)]
        nodes[2].on_message(0, Accept((0, 0), 0, ("old",)))
        candidate = nodes[1]
        candidate.start()
        candidate.on_timer("leader_check")             # grace
        campaign = candidate.on_timer("leader_check")
        prepare = [a for a in sends(campaign) if a.dst == 2][0].msg
        promise = sends(nodes[2].on_message(1, prepare))[0].msg
        actions = candidate.on_message(2, promise)
        assert candidate.is_leader
        assert candidate._recover_floor == 1
        # Grant the new leader a quorum lease; reads must STILL fall back.
        for action in sends(actions, Accept):
            if action.dst != 2:
                continue
            reply = sends(nodes[2].on_message(1, action.msg), Accepted)
        grant_lease(candidate, nodes[2])
        assert candidate._lease_valid()
        read = candidate.submit_read("r")
        served = any(isinstance(a, DeliverRead) for a in read)
        if candidate.next_deliver < candidate._recover_floor:
            assert not served, "read served with recovery debt outstanding"
        # Clear the debt: deliver the re-proposed instance, then serve.
        candidate.on_message(2, reply[0].msg)
        assert candidate.next_deliver >= candidate._recover_floor
        assert candidate.submit_read("r2") == [DeliverRead("r2")]

    def test_granted_follower_suppresses_campaign(self):
        leader, follower, clock = leased_pair()
        follower.start()
        grant_lease(leader, follower)                  # grant held
        follower.on_timer("leader_check")              # grace
        actions = follower.on_timer("leader_check")
        assert sends(actions) == [], "campaigned against an active grant"
        clock.advance(5.0)                             # grant expires
        follower.on_timer("leader_check")
        actions = follower.on_timer("leader_check")
        assert any(sends(actions)), "expiry must re-enable campaigning"


class TestBatchLinger:
    def _fills(self, node: MultiPaxos, actions) -> List[int]:
        return [len(a.msg.value) for a in sends(actions, Accept)
                if a.dst == 1]

    def test_linger_holds_subfull_batches_while_in_flight(self):
        clock = ManualClock()
        node = MultiPaxos(0, 3, batch_size=8, propose_linger=0.02,
                          lease_duration=0.0, clock=clock)
        fills = self._fills(node, node.submit("a"))    # idle: goes out now
        assert fills == [1]
        armed = []
        for token in "bcde":
            actions = node.submit(token)
            assert self._fills(node, actions) == []    # lingering
            armed += [a for a in actions if isinstance(a, SetTimer)
                      and a.name == LINGER_TIMER]
        assert len(armed) == 1, "linger timer must be armed exactly once"
        fills = self._fills(node, node.on_timer(LINGER_TIMER))
        assert fills == [4], "linger expiry must flush the held batch"

    def test_without_linger_every_submit_proposes(self):
        node = MultiPaxos(0, 3, batch_size=8, propose_linger=0.0,
                          lease_duration=0.0)
        fills = []
        for token in "abcde":
            fills += self._fills(node, node.submit(token))
        assert fills == [1, 1, 1, 1, 1]

    def test_full_batch_overrides_linger(self):
        node = MultiPaxos(0, 3, batch_size=2, propose_linger=0.02,
                          lease_duration=0.0)
        node.submit("a")
        node.submit("b")                               # 1 pending < batch
        fills = self._fills(node, node.submit("c"))    # 2 pending = batch
        assert fills == [2], "a full batch must not wait for the linger"


class _DiffDriver:
    """Seeded lossy-network driver for the mode-differential test."""

    def __init__(self, cumulative: bool, seed: int):
        self.nodes = [MultiPaxos(i, 3, batch_size=2, pipeline=4,
                                 lease_duration=0.0,
                                 cumulative_acks=cumulative)
                      for i in range(3)]
        self.rng = random.Random(seed)
        self.network: List[Tuple[int, int, Any]] = []
        self.delivered: List[List[Any]] = [[], [], []]
        self.submitted: List[str] = []
        for node_id, node in enumerate(self.nodes):
            self._absorb(node_id, node.start())

    def _absorb(self, node_id: int, actions) -> None:
        for action in actions:
            if isinstance(action, Send):
                self.network.append((node_id, action.dst, action.msg))
            elif isinstance(action, Deliver):
                self.delivered[node_id].extend(action.payload)

    def run(self, steps: int = 400) -> None:
        # Decisions are drawn from the rng *without* peeking at network
        # state, so both ack modes see the exact same decision stream (a
        # deliver/drop/dup against an empty queue is a no-op); they must
        # then produce identical delivered histories.
        for _ in range(steps):
            roll = self.rng.random()
            index = self.rng.randrange(512)
            if roll < 0.50:
                if self.network:
                    src, dst, msg = self.network.pop(
                        index % len(self.network))
                    self._absorb(dst, self.nodes[dst].on_message(src, msg))
            elif roll < 0.60:
                if self.network:
                    self.network.pop(index % len(self.network))
            elif roll < 0.65:
                if self.network and len(self.network) < 512:
                    self.network.append(
                        self.network[index % len(self.network)])
            elif roll < 0.80:
                self._absorb(0, self.nodes[0].on_timer(HEARTBEAT_TIMER))
            else:
                token = f"w{len(self.submitted)}"
                self.submitted.append(token)
                self._absorb(0, self.nodes[0].submit(token))

    def drain(self) -> None:
        """Heartbeat retransmission + full delivery until quiescent."""
        for _ in range(200):
            self._absorb(0, self.nodes[0].on_timer(HEARTBEAT_TIMER))
            while self.network:
                src, dst, msg = self.network.pop(0)
                self._absorb(dst, self.nodes[dst].on_message(src, msg))
            if all(len(seq) == len(self.submitted)
                   for seq in self.delivered):
                return
        raise AssertionError(
            f"drain did not converge: delivered "
            f"{[len(s) for s in self.delivered]} of {len(self.submitted)}")


class TestCumulativeDifferential:
    def test_modes_deliver_identical_histories_under_loss(self):
        for seed in range(8):
            histories = {}
            for cumulative in (True, False):
                driver = _DiffDriver(cumulative, seed)
                driver.run()
                driver.drain()
                for seq in driver.delivered[1:]:
                    assert seq == driver.delivered[0], (
                        f"replicas diverged (cumulative={cumulative}, "
                        f"seed={seed})")
                assert driver.delivered[0] == driver.submitted, (
                    f"history != submission order (cumulative={cumulative},"
                    f" seed={seed})")
                histories[cumulative] = driver.delivered[0]
            assert histories[True] == histories[False]

    def test_cumulative_mode_sends_fewer_messages(self):
        # Lossless sequential run: the Decide round is pure overhead.
        totals = {}
        for cumulative in (True, False):
            driver = _DiffDriver(cumulative, seed=99)
            for index in range(50):
                token = f"w{index}"
                driver.submitted.append(token)
                driver._absorb(0, driver.nodes[0].submit(token))
                while driver.network:
                    src, dst, msg = driver.network.pop(0)
                    driver._absorb(dst, driver.nodes[dst].on_message(src, msg))
            driver.drain()
            totals[cumulative] = sum(n.msgs_sent for n in driver.nodes)
        assert totals[True] < totals[False]


class TestLeaseHarnessCleanSweep:
    def test_no_violation_across_seeded_random_walks(self):
        # The lease-overlap / stale-read / divergence oracles must stay
        # silent on the real implementation (the lease-ignore-expiry
        # mutant run lives in tests/test_check_lease.py).
        report = run_walk(LeaseCheckConfig(), max_schedules=150,
                          seed=11, shrink_counterexamples=False)
        assert report.ok, report.describe()

    def test_no_violation_with_linger_and_per_instance_acks(self):
        config = LeaseCheckConfig(propose_linger=0.005,
                                  cumulative_acks=False,
                                  schedule_length=200)
        report = run_walk(config, max_schedules=100, seed=12,
                          shrink_counterexamples=False)
        assert report.ok, report.describe()
