"""Multi-Paxos atomic broadcast as a pure state machine.

This is the ordering substrate standing in for BFT-SMaRt configured for
crash faults (paper §7.1): ``n = 2f + 1`` replicas, a stable leader that
batches client payloads into consensus instances, and delivery of decided
instances in instance order at every replica.

Design notes:

- **Pure state machine.**  Every input (``submit``, ``submit_read``,
  ``on_message``, ``on_timer``) returns a list of actions (:class:`Send`,
  :class:`Deliver`, :class:`DeliverRead`, :class:`SetTimer`); the protocol
  never touches the network or the clock directly — time is read through an
  injectable ``clock`` callable so simulated and model-checked runs stay
  deterministic.
- **Ballots** are ``(round, node_id)`` pairs; any node may campaign by
  picking a round above everything it has seen.  Node 0 starts as leader of
  ballot ``(0, 0)`` without a prepare phase, which is safe because every
  acceptor starts with ``promised < (0, 0)``.
- **Batching** (paper §7.1): the leader packs up to ``batch_size`` pending
  payloads into one instance, keeps at most ``pipeline`` instances in
  flight, and — when ``propose_linger > 0`` — lets a Nagle-style linger
  timer hold a sub-full batch open while earlier instances are in flight,
  so batches form from the arrival rate instead of only from backlog.
- **Cumulative acks** (``cumulative_acks``, on by default): ``Accepted``
  carries ``accepted_up_to`` so one ack covers a prefix of instances, and
  the ``Decide`` round is replaced by a ``commit_up_to`` frontier
  piggybacked on ``Accept`` and the heartbeat's ``decided_up_to`` —
  steady-state messages per decided batch drop from ~3(n-1) to ~2(n-1).
- **Leader leases** (``lease_duration``, on by default): followers grant
  the leader a lease with every heartbeat ack; while a quorum of grants is
  unexpired the leader serves read-only payloads locally via
  ``submit_read`` without a consensus round, and granters refuse to elect
  anyone else.  Safety needs only bounded clock-*rate* drift over one lease
  window (``lease_margin``); see docs/ordering.md for the argument.
- **Gaps** left by a leader change are filled with a no-op value that is
  never delivered to the application.
- **Catch-up**: a replica that sees a decision beyond its contiguous prefix
  asks the decider for the missing instances; replies are chunked to at
  most ``CATCHUP_CHUNK`` instances per frame.
- **Log compaction** (``log_retain``; the live stack passes
  :data:`LOG_RETAIN`, a bare ``MultiPaxos(...)`` keeps everything): a
  delivered instance is dropped from ``decided`` and the stable store once
  ``log_retain`` newer ones were delivered.  ``log_floor`` is the lowest
  instance still held; a :class:`CatchupRequest` or :class:`Prepare` under
  it is answered with the application's snapshot (``SendSnapshot`` →
  :class:`Snapshot` → ``InstallSnapshot`` → ``on_snapshot_installed``)
  instead of the prefix.  docs/ordering.md has the safety argument.

Safety (agreement + total order) holds under message loss, duplication and
reordering and any number of suspicions; liveness additionally needs a
correct majority and eventually-timely leader communication, as usual.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.broadcast.failure_detector import (
    UNKNOWN_HOLDER,
    LeaseGrant,
    QuorumLease,
    TimeoutTracker,
)
from repro.broadcast.messages import (
    Accept,
    Accepted,
    Ballot,
    CatchupReply,
    CatchupRequest,
    Decide,
    Deliver,
    DeliverRead,
    Forward,
    Heartbeat,
    HeartbeatAck,
    InstallSnapshot,
    Nack,
    Prepare,
    Promise,
    Send,
    SendSnapshot,
    SetTimer,
    Snapshot,
)
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

__all__ = ["MultiPaxos", "NOOP", "FORWARD_HOP_LIMIT", "CATCHUP_CHUNK",
           "LOG_RETAIN"]

#: Filler value proposed for gap instances after a leader change.  Never
#: delivered to the application.
NOOP = "__paxos_noop__"

#: Relays one Forward may take before the carrying node queues the payload
#: locally instead of chasing another stale leader hint.  Any value >= the
#: cluster size terminates a circular-hint cycle; generous slack keeps
#: legitimate multi-hop chases (hint chains during a leader change) alive.
FORWARD_HOP_LIMIT = 8

#: Max decided instances per CatchupReply: bounds the frame a recovering
#: replica pulls (one giant reply could blow transport frame limits or be
#: dropped whole by the drop-oldest outbound queues).  The requester
#: re-requests from its advanced ``next_deliver`` while ``more`` is set.
CATCHUP_CHUNK = 256

#: Delivered instances a compacting replica keeps behind its frontier — the
#: catch-up window: a follower less than this far behind pulls the
#: instances, one further behind gets a snapshot.  One chunk's worth;
#: 1024 was measured and buys nothing (1024 x 12 commands is 6.7 MB).
LOG_RETAIN = 256

#: Timer names used with SetTimer.
HEARTBEAT_TIMER = "heartbeat"
LEADER_TIMER = "leader_check"
LINGER_TIMER = "propose_linger"

Action = Any


class _InFlight:
    """Leader-side bookkeeping for one undecided instance."""

    __slots__ = ("value", "acks")

    def __init__(self, value: Any, acks: Set[int]):
        self.value = value
        self.acks = acks


class MultiPaxos:
    """One replica's Multi-Paxos protocol state."""

    def __init__(
        self,
        node_id: int,
        n: int,
        batch_size: int = 64,
        pipeline: int = 32,
        heartbeat_interval: float = 0.05,
        leader_timeout: float = 0.2,
        first_instance: int = 0,
        stable_store=None,
        propose_linger: float = 0.0,
        cumulative_acks: bool = True,
        lease_duration: Optional[float] = None,
        lease_margin: Optional[float] = None,
        lease_reads: bool = True,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        log_retain: Optional[int] = None,
    ):
        if n < 1 or n % 2 == 0:
            raise ConfigurationError(f"n must be odd and positive, got {n}")
        if not 0 <= node_id < n:
            raise ConfigurationError(f"node_id {node_id} out of range for n={n}")
        if batch_size < 1 or pipeline < 1:
            raise ConfigurationError("batch_size and pipeline must be >= 1")
        if propose_linger < 0:
            raise ConfigurationError("propose_linger must be >= 0")
        if log_retain is not None and log_retain < 1:
            raise ConfigurationError("log_retain must be >= 1 (or None)")
        self.node_id = node_id
        self.n = n
        self.quorum = n // 2 + 1
        self.batch_size = batch_size
        self.pipeline = pipeline
        self.heartbeat_interval = heartbeat_interval
        self.leader_timeout = leader_timeout
        self.propose_linger = propose_linger
        self.cumulative_acks = cumulative_acks
        # Lease defaults: shorter than the leader timeout so a crashed
        # leader's lease expires before anyone could be elected anyway, and
        # a margin generous against clock-rate drift over one window.
        if lease_duration is None:
            lease_duration = 0.8 * leader_timeout
        if lease_duration < 0:
            raise ConfigurationError("lease_duration must be >= 0")
        if lease_margin is None:
            lease_margin = lease_duration / 8
        if not 0 <= lease_margin <= lease_duration or (
                lease_duration > 0 and lease_margin >= lease_duration):
            raise ConfigurationError(
                "lease_margin must satisfy 0 <= margin < duration")
        self.lease_duration = lease_duration
        self.lease_margin = lease_margin
        self.lease_reads = lease_reads
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic)

        # Acceptor state (restored from stable storage when provided, so a
        # recovered replica never forgets a promise — see broadcast/storage).
        self._store = stable_store
        self.promised: Ballot = (-1, -1)
        self.accepted: Dict[int, Tuple[Ballot, Any]] = {}

        # Learner state.  ``first_instance`` lets a replica recovering from
        # a checkpoint resume delivery just past the checkpointed prefix.
        self.decided: Dict[int, Any] = {}
        self.next_deliver = first_instance
        # Decided values below the floor are gone (compacted, skipped by a
        # snapshot, or covered by the checkpoint this node started from):
        # this node can neither serve them nor report them in a Promise.
        # ``[log_floor, next_deliver)`` is always fully held.
        self.log_floor = first_instance
        self._retain = log_retain

        # Proposer / leader state.
        self.ballot: Ballot = (0, 0)
        self.is_leader = node_id == 0 and first_instance == 0
        self.preparing: Optional[Ballot] = None
        self._promises: Dict[int, Dict[int, Tuple[Ballot, Any]]] = {}
        self.next_instance = first_instance

        # Lease state.  The follower side (_lease_grant) is the promise not
        # to elect anyone but the holder; the leader side (_quorum_lease)
        # aggregates heartbeat-ack grants.  _recover_floor guards lease
        # reads after an election: instances below it may have been decided
        # under an earlier ballot and executed elsewhere, so reads wait
        # until the local delivery frontier clears the recovery horizon.
        self._lease_grant = LeaseGrant()
        self._quorum_lease = QuorumLease(
            self.quorum, lease_duration, lease_margin)
        self._recover_floor = 0

        rejoining = first_instance > 0
        if stable_store is not None:
            rejoining = self._restore(stable_store, first_instance) or rejoining
        if rejoining and lease_duration > 0:
            # A rejoining replica cannot remember whom it granted a lease
            # before crashing (local clocks do not survive restarts), so it
            # sits out one full lease window before voting for anyone.
            self._lease_grant.grant(
                UNKNOWN_HOLDER, self._clock(), lease_duration)

        self.pending: Deque[Any] = deque()
        # Remaining Forward hop budget per pending payload, parallel to
        # ``pending`` (kept separate so ``pending`` stays a plain payload
        # queue for proposing and for introspection).
        self._pending_hops: Deque[int] = deque()
        self._in_flight: Dict[int, _InFlight] = {}
        self._linger_armed = False

        self._leader_tracker = TimeoutTracker()

        # Plain counters usable without obs wiring (benchmarks read them);
        # mirrored into the registry when one is attached.
        self.msgs_sent = 0
        self.instances_decided = 0
        self.lease_reads_served = 0
        self.snapshots_sent = 0
        self.snapshots_installed = 0
        obs = registry if registry is not None else NULL_REGISTRY
        self._obs_on = obs.enabled
        self._m_msgs = obs.counter("paxos_msgs_total")
        self._m_decided = obs.counter("paxos_decided_total")
        self._m_lease_reads = obs.counter("paxos_lease_reads_total")
        self._m_batch_fill = obs.histogram("paxos_batch_fill")
        self._g_msgs_per_decide = obs.gauge("paxos_msgs_per_decide")
        self._m_snapshots_sent = obs.counter("paxos_snapshots_sent_total")
        self._m_snapshots_installed = obs.counter(
            "paxos_snapshots_installed_total")
        self._g_log_floor = obs.gauge("paxos_log_floor")
        self._g_log_len = obs.gauge("paxos_log_len")

    def _restore(self, store, first_instance: int) -> bool:
        """Reload acceptor/learner state persisted by a previous life.

        Returns True when prior state existed (i.e. this is a rejoin).
        """
        persisted = store.get("promised")
        if persisted is None:
            return False  # fresh store: first boot, nothing to restore
        self.promised = persisted
        # The previous life's floor stands: what it compacted (or skipped
        # by a snapshot) stays unreportable, even if this life's
        # application was rebuilt from an older cut (first_instance below
        # it — then [first_instance, log_floor) is re-fetched from peers).
        self.log_floor = max(first_instance, store.get("log_floor", 0))
        self._persist_floor()
        for key, value in store.items():
            if not isinstance(key, tuple):
                continue
            kind, instance = key
            if instance < self.log_floor:
                store.delete(key)
                continue
            if kind == "accepted":
                self.accepted[instance] = value
            elif kind == "decided":
                self.decided[instance] = value
        self.ballot = max(self.ballot, self.promised)
        self.is_leader = False  # never resume leadership blindly
        return True

    def _persist_promised(self) -> None:
        if self._store is not None:
            self._store.put("promised", self.promised)

    def _persist_accepted(self, instance: int) -> None:
        if self._store is not None:
            self._store.put(("accepted", instance), self.accepted[instance])

    def _persist_decided(self, instance: int, value) -> None:
        if self._store is not None:
            self._store.put(("decided", instance), value)

    def _persist_floor(self) -> None:
        if self._store is not None:
            self._store.put("log_floor", self.log_floor)

    def _forget(self, instance: int) -> None:
        """Drop one instance's learner and acceptor state, here and in
        the stable store."""
        self.decided.pop(instance, None)
        self.accepted.pop(instance, None)
        if self._store is not None:
            self._store.delete(("decided", instance))
            self._store.delete(("accepted", instance))

    # ------------------------------------------------------------ lifecycle

    def start(self) -> List[Action]:
        """Arm the initial timers.  Call once before feeding events."""
        actions: List[Action] = [SetTimer(LEADER_TIMER, self.leader_timeout)]
        if self.is_leader:
            actions.append(SetTimer(HEARTBEAT_TIMER, self.heartbeat_interval))
        return actions

    # ---------------------------------------------------------------- client

    def submit(self, payload: Any) -> List[Action]:
        """A client payload arrived at this replica."""
        if self.is_leader:
            self.pending.append(payload)
            self._pending_hops.append(0)
            return self._count(self._propose_batches())
        return self._count([Send(self.leader_hint(), Forward(payload))])

    def submit_read(self, payload: Any) -> List[Action]:
        """A read-only payload arrived: serve locally under the lease.

        While this node leads, holds a valid quorum lease, and has no
        recovery debt (every instance that might have been decided under an
        earlier ballot is delivered locally), the payload is handed straight
        to the application via :class:`DeliverRead` — no consensus round.
        Otherwise it falls back to the ordered path, which is always
        linearizable for reads too.
        """
        if (self.is_leader
                and self.lease_reads
                and self.lease_duration > 0
                and self.next_deliver >= self._recover_floor
                and self._lease_valid()):
            self.lease_reads_served += 1
            if self._obs_on:
                self._m_lease_reads.inc()
            return [DeliverRead(payload)]
        return self.submit(payload)

    def _lease_valid(self) -> bool:
        """Leader-side lease check (overridden by checker mutants)."""
        return self._quorum_lease.valid(self._clock())

    def leader_hint(self) -> int:
        """The node this replica currently believes to be leader."""
        return self.ballot[1]

    # --------------------------------------------------------------- events

    def on_message(self, src: int, msg: Any) -> List[Action]:
        """Feed one received protocol message; returns resulting actions."""
        handler = self._HANDLERS[type(msg)]
        return self._count(handler(self, src, msg))

    def on_timer(self, name: str) -> List[Action]:
        """A timer armed via :class:`SetTimer` fired."""
        if name == HEARTBEAT_TIMER:
            return self._count(self._on_heartbeat_timer())
        if name == LEADER_TIMER:
            return self._count(self._on_leader_timer())
        if name == LINGER_TIMER:
            return self._count(self._on_linger_timer())
        raise ConfigurationError(f"unknown timer {name!r}")

    def _count(self, actions: List[Action]) -> List[Action]:
        """Tally outgoing messages (plain counters + obs mirrors)."""
        sent = 0
        for action in actions:
            if type(action) is Send:
                sent += 1
        if sent:
            self.msgs_sent += sent
            if self._obs_on:
                self._m_msgs.inc(sent)
                if self.instances_decided:
                    self._g_msgs_per_decide.set(
                        self.msgs_sent / self.instances_decided)
        return actions

    # ------------------------------------------------------------ proposing

    def _propose_batches(self, force: bool = False) -> List[Action]:
        """Pack pending payloads into instances, up to the pipeline limit.

        With ``propose_linger > 0`` a Nagle-style rule applies: a sub-full
        batch is held back while earlier instances are in flight, and a
        linger timer proposes whatever accumulated when it fires.  When
        nothing is in flight the batch goes out immediately, so the linger
        never adds latency to an idle pipeline.
        """
        actions: List[Action] = []
        while self.pending and len(self._in_flight) < self.pipeline:
            if (not force
                    and self.propose_linger > 0
                    and self._in_flight
                    and len(self.pending) < self.batch_size):
                if not self._linger_armed:
                    self._linger_armed = True
                    actions.append(SetTimer(LINGER_TIMER, self.propose_linger))
                break
            batch = []
            while self.pending and len(batch) < self.batch_size:
                batch.append(self.pending.popleft())
                self._pending_hops.popleft()
            if self._obs_on:
                self._m_batch_fill.observe(len(batch))
            actions.extend(self._propose(self.next_instance, tuple(batch)))
            self.next_instance += 1
        return actions

    def _propose(self, instance: int, value: Any) -> List[Action]:
        """Phase 2a for one instance at the current ballot."""
        self._in_flight[instance] = _InFlight(value, {self.node_id})
        # The leader is also an acceptor; accept locally.
        self.promised = max(self.promised, self.ballot)
        self.accepted[instance] = (self.ballot, value)
        self._persist_promised()
        self._persist_accepted(instance)
        msg = Accept(self.ballot, instance, value, self._commit_up_to())
        actions: List[Action] = [
            Send(peer, msg) for peer in range(self.n) if peer != self.node_id
        ]
        if self.quorum == 1:  # n == 1: decided immediately
            actions.extend(self._decide(instance, value))
        return actions

    def _commit_up_to(self) -> int:
        """The decided frontier piggybacked on Accepts (cumulative mode)."""
        return self.next_deliver - 1 if self.cumulative_acks else -1

    def _decide(self, instance: int, value: Any) -> List[Action]:
        self._in_flight.pop(instance, None)
        self.instances_decided += 1
        if self._obs_on:
            self._m_decided.inc()
        actions: List[Action] = []
        if not self.cumulative_acks:
            # Per-instance learn round.  In cumulative mode followers learn
            # from commit_up_to on the next Accept or from the heartbeat
            # frontier instead — no dedicated Decide messages.
            msg = Decide(instance, value)
            actions.extend(
                Send(peer, msg) for peer in range(self.n)
                if peer != self.node_id
            )
        actions.extend(self._learn(instance, value))
        return actions

    # ------------------------------------------------------------- learning

    def _learn(self, instance: int, value: Any) -> List[Action]:
        """Record a decision and deliver the contiguous decided prefix."""
        if instance < self.next_deliver or instance in self.decided:
            # Already delivered (and possibly compacted away since): a late
            # re-learn must not resurrect the entry.
            return []
        self.decided[instance] = value
        self._persist_decided(instance, value)
        # The accepted entry (and its stable-store key) is subsumed by the
        # decision; pruning here keeps both maps bounded by the in-flight
        # window instead of growing with history.
        self.accepted.pop(instance, None)
        if self._store is not None:
            self._store.delete(("accepted", instance))
        return self._deliver_ready()

    def _deliver_ready(self) -> List[Action]:
        """Deliver the contiguous decided prefix, then compact behind it."""
        actions: List[Action] = []
        while self.next_deliver in self.decided:
            instance = self.next_deliver
            value = self.decided[instance]
            if value != NOOP:
                actions.append(Deliver(instance, value))
            self.next_deliver += 1
            if instance < self.log_floor:
                # Re-fetched under a floor restored from stable storage
                # (see _restore): delivered, but the floor stands.
                self._forget(instance)
        if self._retain is not None:
            floor = self.next_deliver - self._retain
            if floor > self.log_floor:
                for instance in range(self.log_floor, floor):
                    self._forget(instance)
                self.log_floor = floor
                self._persist_floor()
        if self._obs_on:
            self._g_log_floor.set(self.log_floor)
            self._g_log_len.set(len(self.decided))
        return actions

    def _accepted_up_to(self, ballot: Ballot) -> int:
        """Largest j with [next_deliver, j] all decided or accepted at
        ``ballot`` — the cumulative-ack frontier reported to its leader.

        ``ballot`` is the one the ack is stamped with, which need not be
        the promised one: a heartbeat does not raise the promise, and
        entries accepted from a deposed leader must not acknowledge the
        new leader's different proposals for the same instances.
        """
        j = self.next_deliver
        while True:
            if j in self.decided:
                j += 1
                continue
            acc = self.accepted.get(j)
            if acc is not None and acc[0] == ballot:
                j += 1
                continue
            return j - 1

    def _learn_up_to(self, ballot: Ballot, up_to: int) -> List[Action]:
        """Learn locally-accepted instances the leader reports committed.

        Only instances accepted at exactly ``ballot`` qualify: the ballot's
        unique leader proposed one value per instance, and for instances it
        re-proposed constrained it proposed the previously decided value —
        so the locally accepted value equals the decided value.
        """
        if up_to < self.next_deliver:
            return []
        learnable = []
        for inst in range(self.next_deliver, up_to + 1):
            if inst in self.decided:
                continue
            acc = self.accepted.get(inst)
            if acc is not None and acc[0] == ballot:
                learnable.append((inst, acc[1]))
        actions: List[Action] = []
        for inst, value in learnable:
            actions.extend(self._learn(inst, value))
        return actions

    # ----------------------------------------------------- message handlers

    def _on_forward(self, src: int, msg: Forward) -> List[Action]:
        if self.is_leader:
            self.pending.append(msg.payload)
            self._pending_hops.append(msg.hops)
            return self._propose_batches()
        # Not the leader either: pass it along to our current hint, unless
        # that would bounce it straight back — or the hop budget is spent
        # (stale circular hints across >= 3 non-leaders would otherwise
        # relay the same Forward forever).  An exhausted payload is queued
        # locally: it is proposed if this node ever leads, and re-forwarded
        # by drain_pending_forwards once the leader hint changes.
        hint = self.leader_hint()
        if (hint != src and hint != self.node_id
                and msg.hops < FORWARD_HOP_LIMIT):
            return [Send(hint, Forward(msg.payload, msg.hops + 1))]
        self.pending.append(msg.payload)
        self._pending_hops.append(msg.hops)
        return []

    def _on_prepare(self, src: int, msg: Prepare) -> List[Action]:
        candidate = msg.ballot[1]
        if self.lease_duration > 0:
            now = self._clock()
            # A granter refuses to elect anyone but the current leaseholder
            # until the grant expires — this is what makes lease reads safe:
            # no new leader can form a quorum inside the old lease window.
            if self._lease_grant.blocks(candidate, now):
                return [Send(src, Nack(msg.ballot, self.promised))]
            # The leader itself is part of every lease quorum; while its
            # lease is valid it likewise withholds promises, so any
            # promise quorum must intersect the lease quorum in a blocker.
            if (self.is_leader and candidate != self.node_id
                    and self._quorum_lease.valid(now)):
                return [Send(src, Nack(msg.ballot, self.promised))]
        if msg.ballot > self.promised:
            if msg.from_instance < self.log_floor:
                # The decided values in [from_instance, log_floor) are gone
                # and can no longer dominate the candidate's merge: no
                # promise.  A snapshot brings the candidate above the floor.
                return self._send_snapshot(src)
            self.promised = msg.ballot
            self._persist_promised()
            self._step_down(msg.ballot)
            report = {
                inst: acc
                for inst, acc in self.accepted.items()
                if inst not in self.decided
            }
            # Decided values at or above the candidate's frontier are
            # reported too, tagged with the promised ballot so they dominate
            # the constrained merge.  A decided instance may survive only
            # here (its accepted entry is pruned on learn) and be unknown to
            # every other quorum member; a candidate re-proposing a fresh
            # value at it would break agreement.
            for inst, value in self.decided.items():
                if inst >= msg.from_instance:
                    report[inst] = (msg.ballot, value)
            return [Send(src, Promise(msg.ballot, report))]
        return [Send(src, Nack(msg.ballot, self.promised))]

    def _on_promise(self, src: int, msg: Promise) -> List[Action]:
        if self.preparing is None or msg.ballot != self.preparing:
            return []
        self._promises[src] = msg.accepted
        if len(self._promises) < self.quorum:
            return []
        return self._become_leader()

    def _become_leader(self) -> List[Action]:
        """Phase 1 complete: re-propose constrained values, fill gaps."""
        ballot = self.preparing
        assert ballot is not None
        self.preparing = None
        self.ballot = ballot
        self.is_leader = True
        self._in_flight.clear()
        self._quorum_lease.reset()  # grants are per-ballot
        # Merge the quorum's accepted values (self included via _promises).
        constrained: Dict[int, Tuple[Ballot, Any]] = {}
        for accepted in self._promises.values():
            for inst, (acc_ballot, acc_value) in accepted.items():
                if inst not in constrained or acc_ballot > constrained[inst][0]:
                    constrained[inst] = (acc_ballot, acc_value)
        self._promises = {}
        horizon = max(
            [self.next_deliver] + [inst + 1 for inst in constrained]
            + [inst + 1 for inst in self.decided]
        )
        # Instances below the horizon may have been decided under an
        # earlier ballot and already executed at other replicas; lease
        # reads stay disabled until they are all delivered locally.
        self._recover_floor = horizon
        actions: List[Action] = []
        for inst in range(self.next_deliver, horizon):
            if inst in self.decided:
                continue
            if inst in constrained:
                actions.extend(self._propose(inst, constrained[inst][1]))
            else:
                actions.extend(self._propose(inst, NOOP))  # fill the gap
        self.next_instance = horizon
        actions.extend(self._propose_batches())
        actions.append(SetTimer(HEARTBEAT_TIMER, self.heartbeat_interval))
        return actions

    def _on_accept(self, src: int, msg: Accept) -> List[Action]:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            if msg.ballot != self.ballot:
                self._step_down(msg.ballot)
            self._leader_tracker.record_activity()
            self._persist_promised()
            if (msg.instance >= self.next_deliver
                    and msg.instance not in self.decided):
                # (An instance already decided here needs no acceptor
                # entry — nothing would ever prune it again.)
                self.accepted[msg.instance] = (msg.ballot, msg.value)
                self._persist_accepted(msg.instance)
            actions: List[Action] = [
                Send(src, Accepted(msg.ballot, msg.instance,
                                   self._accepted_up_to(msg.ballot)))
            ]
            if msg.commit_up_to >= self.next_deliver:
                actions.extend(self._learn_up_to(msg.ballot, msg.commit_up_to))
            return actions
        return [Send(src, Nack(msg.ballot, self.promised))]

    def _on_accepted(self, src: int, msg: Accepted) -> List[Action]:
        if not self.is_leader or msg.ballot != self.ballot:
            return []
        actions: List[Action] = []
        decided = self._record_acks(src, msg.instance, msg.accepted_up_to)
        for instance, value in decided:
            actions.extend(self._decide(instance, value))
        if decided:
            actions.extend(self._propose_batches())
        return actions

    def _record_acks(
        self, src: int, instance: int, accepted_up_to: int
    ) -> List[Tuple[int, Any]]:
        """Apply one (possibly cumulative) ack; return newly decided pairs."""
        covered = [instance] if instance in self._in_flight else []
        if self.cumulative_acks and accepted_up_to >= 0:
            covered.extend(
                inst for inst in self._in_flight
                if inst <= accepted_up_to and inst != instance
            )
        decided: List[Tuple[int, Any]] = []
        for inst in covered:
            entry = self._in_flight[inst]
            entry.acks.add(src)
            if len(entry.acks) >= self.quorum:
                decided.append((inst, entry.value))
        # Decide in instance order so delivery advances contiguously.
        return sorted(decided)

    def _on_decide(self, src: int, msg: Decide) -> List[Action]:
        self._leader_tracker.record_activity()
        actions = self._learn(msg.instance, msg.value)
        if msg.instance > self.next_deliver:
            # There is a gap below this decision: ask the decider for it.
            actions.append(Send(src, CatchupRequest(self.next_deliver)))
        return actions

    def _on_nack(self, src: int, msg: Nack) -> List[Action]:
        if msg.promised > self.ballot:
            # Someone with a higher ballot is around; stop leading/preparing.
            self._step_down(msg.promised)
        return []

    def _on_catchup_request(self, src: int, msg: CatchupRequest) -> List[Action]:
        start = msg.from_instance
        if start < self.log_floor:
            return self._send_snapshot(src)
        # [log_floor, next_deliver) is held gaplessly; only the decided
        # instances waiting above a gap need looking for.
        chunk = list(range(start, min(self.next_deliver,
                                      start + CATCHUP_CHUNK)))
        more = start + len(chunk) < self.next_deliver
        if not more and len(self.decided) > self.next_deliver - self.log_floor:
            tail = sorted(inst for inst in self.decided
                          if inst >= max(start, self.next_deliver))
            room = CATCHUP_CHUNK - len(chunk)
            more = len(tail) > room
            chunk.extend(tail[:room])
        if not chunk:
            return []
        reply = CatchupReply({inst: self.decided[inst] for inst in chunk},
                             more=more)
        return [Send(src, reply)]

    def _send_snapshot(self, dst: int) -> List[Action]:
        """Answer a peer that asked below the floor with a snapshot."""
        if self.next_deliver < self.log_floor:
            return []  # our own application is under the floor (_restore)
        # A cached checkpoint must at least land the receiver on the floor;
        # under compaction, keep it in the newer half of the retained
        # window so it is not stale again by the time it is installed.
        min_instance = self.log_floor - 1
        if self._retain is not None:
            min_instance = max(
                min_instance, self.next_deliver - 1 - self._retain // 2)
        self.snapshots_sent += 1
        if self._obs_on:
            self._m_snapshots_sent.inc()
        return [SendSnapshot(dst, min_instance)]

    def _on_snapshot(self, src: int, msg: Snapshot) -> List[Action]:
        if self.is_leader or msg.instance < self.next_deliver:
            return []  # stale, or nothing a leader waits for
        return [InstallSnapshot(msg)]

    def on_snapshot_installed(self, instance: int) -> List[Action]:
        """The adapter restored the application from a snapshot.

        The application now reflects every instance up to ``instance``:
        skip the log to just past it, then deliver whatever decided suffix
        is already held.
        """
        start = instance + 1
        if start <= self.next_deliver:
            return []
        for held in (self.decided, self.accepted):
            for inst in [inst for inst in held if inst < start]:
                self._forget(inst)
        self.next_deliver = start
        self.next_instance = max(self.next_instance, start)
        if start > self.log_floor:
            self.log_floor = start
            self._persist_floor()
        # A campaign begun from the old frontier is moot; the leader timer
        # starts the next one from the new frontier.
        self.preparing = None
        self._promises = {}
        self.snapshots_installed += 1
        if self._obs_on:
            self._m_snapshots_installed.inc()
        return self._deliver_ready()

    def _on_catchup_reply(self, src: int, msg: CatchupReply) -> List[Action]:
        before = self.next_deliver
        actions: List[Action] = []
        for inst in sorted(msg.decided):
            actions.extend(self._learn(inst, msg.decided[inst]))
        if msg.more and self.next_deliver > before:
            # The sender has further chunks and this one advanced our
            # frontier: pull the next slice.  (No progress means the gap is
            # below the sender's chunk — re-requesting the same range would
            # loop; the heartbeat anti-entropy path retries instead.)
            actions.append(Send(src, CatchupRequest(self.next_deliver)))
        return actions

    def _on_heartbeat(self, src: int, msg: Heartbeat) -> List[Action]:
        actions: List[Action] = []
        if msg.ballot >= self.ballot:
            if msg.ballot > self.ballot:
                self._step_down(msg.ballot)
            self._leader_tracker.record_activity()
            if self.lease_duration > 0:
                # Grant (or refresh) the leader's lease and echo its clock
                # reading back so it can anchor the grant on its own clock.
                self._lease_grant.grant(
                    msg.ballot[1], self._clock(), self.lease_duration)
                actions.append(Send(src, HeartbeatAck(
                    msg.ballot, msg.sent_at,
                    self._accepted_up_to(msg.ballot))))
            # Learn locally-accepted instances below the leader's frontier
            # (the cumulative replacement for Decide), then pull anything
            # still missing.
            actions.extend(self._learn_up_to(msg.ballot, msg.decided_up_to - 1))
            if msg.decided_up_to > self.next_deliver:
                # Anti-entropy: a lagging or freshly recovered follower
                # pulls the decided prefix it is missing.
                actions.append(Send(src, CatchupRequest(self.next_deliver)))
        return actions

    def _on_heartbeat_ack(self, src: int, msg: HeartbeatAck) -> List[Action]:
        if not self.is_leader or msg.ballot != self.ballot:
            return []
        if self.lease_duration > 0:
            self._quorum_lease.record_ack(src, msg.sent_at)
        # The ack doubles as a cumulative ack, catching Accepts whose
        # original Accepted reply was lost.
        actions: List[Action] = []
        decided = self._record_acks(src, -1, msg.accepted_up_to)
        for instance, value in decided:
            actions.extend(self._decide(instance, value))
        if decided:
            actions.extend(self._propose_batches())
        return actions

    _HANDLERS = {
        Forward: _on_forward,
        Prepare: _on_prepare,
        Promise: _on_promise,
        Accept: _on_accept,
        Accepted: _on_accepted,
        Decide: _on_decide,
        Nack: _on_nack,
        CatchupRequest: _on_catchup_request,
        CatchupReply: _on_catchup_reply,
        Snapshot: _on_snapshot,
        Heartbeat: _on_heartbeat,
        HeartbeatAck: _on_heartbeat_ack,
    }

    # --------------------------------------------------------------- timers

    def _on_heartbeat_timer(self) -> List[Action]:
        if not self.is_leader:
            return []  # stepped down; stop beating
        msg = Heartbeat(self.ballot, self.next_deliver, self._clock())
        actions: List[Action] = [
            Send(peer, msg) for peer in range(self.n) if peer != self.node_id
        ]
        # Retransmit in-flight proposals: a lost Accept/Accepted would
        # otherwise wedge its instance forever — later instances decide but
        # in-order delivery stalls at the gap.  Acceptors treat repeats
        # idempotently, so this is pure liveness.
        commit_up_to = self._commit_up_to()
        for instance, entry in self._in_flight.items():
            repeat = Accept(self.ballot, instance, entry.value, commit_up_to)
            actions.extend(
                Send(peer, repeat)
                for peer in range(self.n)
                if peer != self.node_id and peer not in entry.acks
            )
        actions.append(SetTimer(HEARTBEAT_TIMER, self.heartbeat_interval))
        return actions

    def _on_leader_timer(self) -> List[Action]:
        actions: List[Action] = [SetTimer(LEADER_TIMER, self.leader_timeout)]
        if self.is_leader:
            return actions
        if self._leader_tracker.expired():
            if (self.lease_duration > 0
                    and self._lease_grant.blocks(self.node_id, self._clock())):
                # An unexpired grant forbids campaigning: the granter would
                # refuse to elect us anyway, and spurious duels under load
                # are exactly what the lease suppresses.
                return actions
            if self.next_deliver < self.log_floor:
                # The floor rule applied to ourselves: we could not report
                # our own compacted values to our own candidacy.
                return actions
            actions.extend(self._campaign())
        return actions

    def _on_linger_timer(self) -> List[Action]:
        self._linger_armed = False
        if not self.is_leader:
            return []
        return self._propose_batches(force=True)

    def _campaign(self) -> List[Action]:
        """Start phase 1 with a ballot above everything seen so far."""
        round_ = max(self.ballot[0], self.promised[0]) + 1
        ballot: Ballot = (round_, self.node_id)
        self.preparing = ballot
        self._promises = {}
        self.promised = ballot
        self._persist_promised()
        undecided = {
            inst: acc
            for inst, acc in self.accepted.items()
            if inst not in self.decided
        }
        actions: List[Action] = [
            Send(peer, Prepare(ballot, self.next_deliver))
            for peer in range(self.n)
            if peer != self.node_id
        ]
        # Self-promise.
        actions.extend(self._on_promise(self.node_id, Promise(ballot, undecided)))
        return actions

    # ---------------------------------------------------------------- misc

    def _step_down(self, ballot: Ballot) -> None:
        """Adopt a higher ballot observed from someone else."""
        if ballot <= self.ballot and not self.is_leader:
            return
        was_leader = self.is_leader
        self.ballot = max(self.ballot, ballot)
        self.is_leader = False
        self._quorum_lease.reset()
        if self.preparing is not None and ballot > self.preparing:
            self.preparing = None
        if was_leader:
            # Client payloads not yet proposed stay pending; re-forward them
            # so they are not lost if this node never leads again.
            self._leader_tracker.reset()

    def drain_pending_forwards(self) -> List[Action]:
        """Forward payloads stranded in ``pending`` toward the current hint.

        Called by adapters on losing leadership *and* whenever the observed
        leader hint changes while following (a never-leader node can hold
        hop-exhausted payloads too).  Each payload keeps its consumed hop
        budget: a re-forward is one more hop of the same chase, not a fresh
        orbit — re-emitting with ``hops=0`` would defeat FORWARD_HOP_LIMIT
        under leader churn.
        """
        if self.is_leader or not self.pending:
            return []
        hint = self.leader_hint()
        if hint == self.node_id:
            return []
        actions = self._count([
            Send(hint, Forward(payload, hops))
            for payload, hops in zip(self.pending, self._pending_hops)
        ])
        self.pending.clear()
        self._pending_hops.clear()
        return actions
