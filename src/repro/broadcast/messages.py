"""Protocol messages and actions for the atomic-broadcast layer.

The broadcast protocols are *pure state machines*: handling an event returns
a list of :class:`Action` objects (messages to send, payloads to deliver,
timers to arm) and never touches a socket or a clock directly.  Adapters —
:class:`~repro.broadcast.node.ThreadedNode` for OS threads and the simulated
cluster in :mod:`repro.smr.sim_cluster` — perform the actions.  This style
keeps the protocol logic identical across execution environments and makes
it property-testable under adversarial schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

__all__ = [
    "Ballot",
    "Send",
    "Deliver",
    "DeliverRead",
    "SetTimer",
    "SendSnapshot",
    "InstallSnapshot",
    "Prepare",
    "Promise",
    "Accept",
    "Accepted",
    "Decide",
    "Nack",
    "CatchupRequest",
    "CatchupReply",
    "Snapshot",
    "Forward",
    "Heartbeat",
    "HeartbeatAck",
    "SequencerStamp",
    "DeliverOptimistic",
    "OptimisticAnnounce",
    "NewEpoch",
]

# A ballot is (round, node_id); tuple comparison gives the total order and
# ``round % n`` is irrelevant — the node_id component breaks ties, and any
# node can try to lead by picking a higher round.
Ballot = Tuple[int, int]


# --------------------------------------------------------------------- actions


@dataclass(frozen=True)
class Send:
    """Send ``msg`` to node ``dst`` (point-to-point)."""

    dst: int
    msg: Any


@dataclass(frozen=True)
class Deliver:
    """Deliver ``payload`` as the ``instance``-th atomic-broadcast message."""

    instance: int
    payload: Any


@dataclass(frozen=True)
class DeliverRead:
    """Serve ``payload`` as a leaseholder-local read, outside the total order.

    Emitted only by ``MultiPaxos.submit_read`` while the node holds a valid
    quorum lease: the payload is executed against the local state without a
    consensus round and is never assigned an instance number.
    """

    payload: Any


@dataclass(frozen=True)
class DeliverOptimistic:
    """Deliver ``payload`` optimistically, before its final order is known.

    Emitted by ordering protocols with an optimistic fast path
    (:class:`~repro.broadcast.sequencer.SequencerBroadcast` in optimistic
    mode): the payload will *also* be delivered conservatively via
    :class:`Deliver` later, in the authoritative order.  Consumers
    (:class:`~repro.spec.replica.SpeculativeReplica`) execute
    speculatively and withhold responses until the conservative delivery
    confirms or contradicts the guess.
    """

    payload: Any


@dataclass(frozen=True)
class SetTimer:
    """Ask the adapter to call ``on_timer(name)`` after ``delay`` seconds."""

    name: str
    delay: float


@dataclass(frozen=True)
class SendSnapshot:
    """Ask the adapter to ship the application's checkpoint to ``dst``.

    Emitted when ``dst`` asked for instances this node has compacted away
    (a :class:`CatchupRequest` or :class:`Prepare` under the log floor).
    The adapter answers with a :class:`Snapshot` message; it may reuse a
    cached checkpoint as long as that covers ``min_instance`` — an older
    one could leave the receiver under this node's floor again.
    """

    dst: int
    min_instance: int


@dataclass(frozen=True)
class InstallSnapshot:
    """Ask the adapter to restore the application from ``snapshot``.

    The adapter installs it and then calls
    ``MultiPaxos.on_snapshot_installed(snapshot.instance)``; only that call
    moves the protocol's delivery frontier, so a failed install leaves the
    protocol where the application still is.
    """

    snapshot: "Snapshot"


# -------------------------------------------------------------- paxos messages


@dataclass(frozen=True)
class Prepare:
    """Phase-1a: a would-be leader asks acceptors to promise ``ballot``.

    ``from_instance`` is the candidate's delivery frontier: acceptors
    report their decided values at or above it in the Promise, so the new
    leader cannot re-propose a fresh value at an instance that was already
    decided (and possibly executed) elsewhere.  An acceptor that has
    compacted its log past ``from_instance`` can no longer do that; it
    refuses and sends a :class:`Snapshot` instead (docs/ordering.md).
    """

    ballot: Ballot
    from_instance: int = 0


@dataclass(frozen=True)
class Promise:
    """Phase-1b: acceptor promises ``ballot``.

    ``accepted`` carries, per undecided instance, the highest-ballot value
    this acceptor has accepted, which the new leader must re-propose; plus,
    tagged with the promised ballot itself, the acceptor's *decided* values
    at or above the candidate's ``from_instance`` frontier (a decided
    instance may survive only in the ``decided`` map — the accepted entry
    is pruned on learn — and may be known to no other quorum member).
    """

    ballot: Ballot
    accepted: Dict[int, Tuple[Ballot, Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class Accept:
    """Phase-2a: the leader proposes ``value`` for ``instance`` at ``ballot``.

    ``commit_up_to`` piggybacks the leader's decided frontier (the largest
    instance below which everything is decided): a follower that accepted
    instances in that prefix at the same ballot learns them without a
    separate ``Decide`` round (cumulative-ack mode).  ``-1`` means "no
    frontier information".
    """

    ballot: Ballot
    instance: int
    value: Any
    commit_up_to: int = -1


@dataclass(frozen=True)
class Accepted:
    """Phase-2b: acceptor accepted ``value`` for ``instance`` at ``ballot``.

    ``accepted_up_to`` is cumulative: every instance up to and including it
    is decided or accepted at this ballot on the sender, so one ack can
    cover a whole batch window of instances.  ``-1`` means "no cumulative
    information" (pre-fastpath peers).
    """

    ballot: Ballot
    instance: int
    accepted_up_to: int = -1


@dataclass(frozen=True)
class Decide:
    """Learn message: ``instance`` is decided with ``value``."""

    instance: int
    value: Any


@dataclass(frozen=True)
class Nack:
    """Acceptor rejected a ballot; carries the ballot it promised instead."""

    ballot: Ballot
    promised: Ballot


@dataclass(frozen=True)
class CatchupRequest:
    """Ask a peer for decided instances starting at ``from_instance``.

    Answered with a :class:`CatchupReply`, or with a :class:`Snapshot` when
    ``from_instance`` is under the peer's log floor.
    """

    from_instance: int


@dataclass(frozen=True)
class CatchupReply:
    """Decided instances a peer was missing.

    Replies are chunked (``CATCHUP_CHUNK`` instances max) so a replica
    pulling a long prefix never receives one giant frame; ``more`` tells the
    requester to re-request from its new ``next_deliver``.
    """

    decided: Dict[int, Any]
    more: bool = False


@dataclass(frozen=True)
class Snapshot:
    """A consistent replica cut, sent to a peer that fell under the
    sender's log floor (and known to :mod:`repro.smr` as ``Checkpoint``).

    Attributes:
        instance: Highest atomic-broadcast instance whose commands are all
            reflected in ``state`` (-1 when nothing was delivered yet).
        state: The service snapshot.
        dedup: Per-client ``(request_id, response)`` cache, so the receiver
            keeps exactly-once semantics across the jump.

    One snapshot travels in one frame, so an application state past the
    codecs' ``MAX_FRAME`` cannot be transferred (the send fails with a
    ``CodecError`` naming the size).
    """

    instance: int
    state: Any
    dedup: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Forward:
    """A non-leader forwards a client payload to the current leader.

    ``hops`` counts relays so far: with three or more non-leaders holding
    stale circular leader hints, a Forward could otherwise orbit the
    cluster forever.  A relay re-sends with ``hops + 1``; a node whose
    budget is exhausted queues the payload locally instead (see
    ``MultiPaxos._on_forward``).
    """

    payload: Any
    hops: int = 0


@dataclass(frozen=True)
class Heartbeat:
    """Leader liveness beacon consumed by the failure detector.

    Also carries the leader's contiguous delivery frontier so lagging or
    freshly recovered followers can request a catch-up (anti-entropy).
    ``sent_at`` is the leader's local clock reading at send time; followers
    echo it in :class:`HeartbeatAck` so the leader can compute its lease
    expiry purely on its own clock (no cross-node clock comparison).
    """

    ballot: Ballot
    decided_up_to: int = 0
    sent_at: float = 0.0


@dataclass(frozen=True)
class HeartbeatAck:
    """Follower response to a :class:`Heartbeat`: lease grant + cumulative ack.

    ``sent_at`` echoes the heartbeat's leader-clock timestamp (the grant is
    anchored there on the leader's clock); ``accepted_up_to`` doubles as a
    cumulative acknowledgement so heartbeat-retransmitted ``Accept``s are
    acked even when the original ``Accepted`` was lost.
    """

    ballot: Ballot
    sent_at: float
    accepted_up_to: int = -1


# ---------------------------------------------------------- sequencer messages


@dataclass(frozen=True)
class SequencerStamp:
    """Sequencer-assigned total-order position for ``payload``.

    ``epoch`` identifies the sequencer regime that assigned ``seq``
    (incremented by every :class:`NewEpoch`).  A stamp from a deposed
    sequencer is accepted only for positions *below* the new epoch's base
    — the prefix both regimes agree on; at or above the base it is
    discarded, because the new sequencer re-stamps those payloads (see
    ``SequencerBroadcast._learn``).  Wire default 0 keeps pre-failover
    frames decodable.
    """

    seq: int
    payload: Any
    epoch: int = 0


@dataclass(frozen=True)
class OptimisticAnnounce:
    """Optimistic-order announcement of ``payload`` at submission time.

    Sent by the submitting node to every peer (and self-delivered) the
    moment a payload enters the system, one network hop before the
    sequencer's stamp can arrive: receivers treat arrival order as the
    *guessed* total order and may begin executing speculatively.  The
    guess is confirmed or corrected by the stamped (conservative)
    delivery of the same payload.
    """

    payload: Any


@dataclass(frozen=True)
class NewEpoch:
    """A node took over sequencing: ``epoch`` begins at position ``base``.

    ``sequencer`` is the node now stamping; ``base`` is its delivery
    frontier at promotion — every position below ``base`` is final under
    earlier epochs, every position at or above it will be (re-)stamped in
    ``epoch``.  Receivers drop pending old-epoch stamps at or above
    ``base`` (the deposed sequencer's stamps for those positions are
    void) and re-forward their own unconfirmed submissions to the new
    sequencer.
    """

    epoch: int
    sequencer: int
    base: int
