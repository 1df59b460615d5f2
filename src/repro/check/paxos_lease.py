"""Randomized lease-protocol checking for the Multi-Paxos fast read path.

The COS checker (:mod:`repro.check.harness`) enumerates thread schedules;
leases break differently — their hazards live in *time*: clock-rate drift,
expiry races, and stale leaders serving reads after a new leader was
elected.  This harness therefore drives ``n`` pure
:class:`~repro.broadcast.paxos.MultiPaxos` state machines under a seeded
random walk over an explicit decision vocabulary:

=============== ======================================================
``deliver:k``   deliver the ``k``-th queued network message
``drop:k``      drop it instead
``dup:k``       duplicate it (at-least-once transport)
``tick:T``      advance the global clock base by ``T`` seconds
``hb:N``        fire node ``N``'s heartbeat timer
``lt:N``        fire node ``N``'s leader-check timer
``lg:N``        fire node ``N``'s propose-linger timer
``write:N``     submit a fresh write payload at node ``N``
``read:N``      submit a fresh read-only payload at node ``N``
``iso:N``       isolate node ``N`` (drop all its traffic)
``heal``        end all isolation
=============== ======================================================

Each node reads time through its own skewed clock (``base * rate``, rates
spread over ``1 +- clock_skew``), exercising the bounded-rate-drift
assumption the ``lease_margin`` must absorb (docs/ordering.md).  Decisions
that cannot apply (e.g. ``deliver`` on an empty network) are deterministic
no-ops, so a recorded decision list replays bit-for-bit.

Three oracles run after every decision:

- **stale-read**: a lease read served at node ``X`` must reflect every
  write already delivered *anywhere* — the linearizability property the
  lease machinery exists to protect;
- **lease-overlap**: at most one node may be in a read-serving state
  (leader + valid quorum lease + no recovery debt) at any instant;
- **divergence**: all nodes deliver the same payload sequence (agreement),
  guarding the cumulative-ack and promise-merge machinery.

Every node compacts its log down to :data:`CHECK_RETAIN` delivered
instances, so the walks drive nodes under each other's log floor all the
time and the divergence oracle covers compaction, the below-floor
``Prepare`` refusal and snapshot catch-up.  A snapshot is modelled as the
sender's delivered sequence; installing one adopts it, and must extend
what the receiver had delivered itself.

Checker self-validation uses :data:`LEASE_MUTANTS` — seeded bugs the
random walk must catch within a bounded budget (tests/test_check_lease.py,
tests/test_check_harnesses.py).  The walk, the ddmin shrinker and the
replay files (``"harness": "paxos-lease"``) are the ones every
:class:`~repro.check.explorer.DecisionHarness` shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.broadcast.messages import (
    Deliver,
    DeliverRead,
    InstallSnapshot,
    Prepare,
    Send,
    SendSnapshot,
    Snapshot,
)
from repro.broadcast.paxos import (
    HEARTBEAT_TIMER,
    LEADER_TIMER,
    LINGER_TIMER,
    MultiPaxos,
)
from repro.check.explorer import DecisionHarness
from repro.check.mutants import mutant_class
from repro.check.oracle import Violation
from repro.errors import SimulationError

__all__ = [
    "HARNESS",
    "LEASE_MUTANTS",
    "LeaseCheckConfig",
    "LeaseHarness",
    "LeaseIgnoreExpiry",
    "PromiseBelowFloor",
    "generate_schedule",
]

#: Delivered instances each node retains: small enough that a node one
#: dropped batch behind is already under its peers' log floor.
CHECK_RETAIN = 2

#: Queued messages are capped so ``dup`` decisions cannot blow the walk up.
_NETWORK_CAP = 256


class LeaseIgnoreExpiry(MultiPaxos):
    """Seeded bug: the leader serves lease reads past its grants' expiry.

    ``_lease_valid`` is the one place the serving side consults its quorum
    lease; short-circuiting it to ``True`` reintroduces the classic lease
    bug — a deposed or partitioned leader keeps answering reads from state
    that stopped advancing, exactly what the expiry check prevents.
    """

    def _lease_valid(self) -> bool:
        return True


class PromiseBelowFloor(MultiPaxos):
    """Seeded bug: a compacted acceptor promises a candidate under its floor.

    The promise cannot report the decided values it no longer holds, so
    the candidate may fill a decided instance with a fresh value — the
    hazard the floor check in ``_on_prepare`` exists to close.
    """

    def _on_prepare(self, src: int, msg: Prepare) -> List[Any]:
        floor, self.log_floor = self.log_floor, 0
        try:
            return super()._on_prepare(src, msg)
        finally:
            self.log_floor = floor

    # Message dispatch goes through the table, not through ``self``.
    _HANDLERS = {**MultiPaxos._HANDLERS, Prepare: _on_prepare}


#: Lease-harness mutants (their names are disjoint from every other
#: registry's, so ``--mutant`` alone selects the harness).
LEASE_MUTANTS = {
    "lease-ignore-expiry": LeaseIgnoreExpiry,
    "promise-below-floor": PromiseBelowFloor,
}


@dataclass
class LeaseCheckConfig:
    """Parameters of one lease-harness run (fully determines the system)."""

    n_nodes: int = 3
    heartbeat_interval: float = 0.05
    leader_timeout: float = 0.2
    lease_duration: float = 0.16
    lease_margin: float = 0.02
    propose_linger: float = 0.0
    cumulative_acks: bool = True
    batch_size: int = 4
    #: Max relative clock-rate drift per node; rates are spread
    #: deterministically over ``[1 - skew, 1 + skew]``.
    clock_skew: float = 0.01
    schedule_length: int = 120
    mutant: Optional[str] = None

    def describe(self) -> str:
        return (f"nodes={self.n_nodes} lease={self.lease_duration}s "
                f"margin={self.lease_margin}s skew={self.clock_skew}")

    def rates(self) -> List[float]:
        """Per-node clock rates: a deterministic spread across the skew."""
        if self.n_nodes == 1:
            return [1.0]
        span = self.n_nodes - 1
        return [1.0 - self.clock_skew + 2 * self.clock_skew * i / span
                for i in range(self.n_nodes)]

    def make_node(self, node_id: int, clock) -> MultiPaxos:
        cls = mutant_class(LEASE_MUTANTS, self.mutant, MultiPaxos)
        return cls(
            node_id,
            self.n_nodes,
            batch_size=self.batch_size,
            heartbeat_interval=self.heartbeat_interval,
            leader_timeout=self.leader_timeout,
            propose_linger=self.propose_linger,
            cumulative_acks=self.cumulative_acks,
            lease_duration=self.lease_duration,
            lease_margin=self.lease_margin,
            clock=clock,
            log_retain=CHECK_RETAIN,
        )


def _is_write(token: Any) -> bool:
    """``write:N`` decisions submit ``w<k>`` tokens, reads ``r<k>``."""
    return isinstance(token, str) and token.startswith("w")


class LeaseHarness:
    """``n`` MultiPaxos nodes + a decision-driven network and clock."""

    def __init__(self, config: LeaseCheckConfig):
        self.config = config
        self.base = 0.0
        self._rates = config.rates()
        self.nodes = [
            config.make_node(i, self._make_clock(i))
            for i in range(config.n_nodes)
        ]
        #: In-flight messages as (src, dst, msg) in arrival order.
        self.network: List[Tuple[int, int, Any]] = []
        self.isolated: Set[int] = set()
        #: Flattened per-node delivered token sequences (the agreement
        #: history) and the longest sequence seen anywhere (the reference).
        self.delivered: List[List[Any]] = [[] for _ in self.nodes]
        self.delivered_writes: List[Set[Any]] = [set() for _ in self.nodes]
        self.completed_writes: Set[Any] = set()
        self.order: List[Any] = []
        self.write_count = 0
        self.read_count = 0
        for node_id, node in enumerate(self.nodes):
            self._absorb(node_id, node.start(), step=None)

    def _make_clock(self, node_id: int):
        rate = self._rates[node_id]
        return lambda: self.base * rate

    # ----------------------------------------------------------- mechanics

    def _absorb(self, node_id: int, actions: List[Any],
                step: Optional[int]) -> Optional[Violation]:
        """File a node's actions: queue sends, record deliveries."""
        for action in actions:
            if isinstance(action, Send):
                if node_id in self.isolated or action.dst in self.isolated:
                    continue
                if len(self.network) < _NETWORK_CAP:
                    self.network.append((node_id, action.dst, action.msg))
            elif isinstance(action, Deliver):
                violation = self._record_delivery(
                    node_id, action.payload, step)
                if violation is not None:
                    return violation
            elif isinstance(action, SendSnapshot):
                # The application state is the delivered sequence; every
                # Deliver of this node was recorded before this action.
                snapshot = Snapshot(self.nodes[node_id].next_deliver - 1,
                                    tuple(self.delivered[node_id]))
                violation = self._absorb(
                    node_id, [Send(action.dst, snapshot)], step)
            elif isinstance(action, InstallSnapshot):
                violation = self._install(node_id, action.snapshot, step)
                if violation is not None:
                    return violation
            # SetTimer is ignored: timers fire via explicit decisions.
            # DeliverRead is checked at the read decision itself.
        return None

    def _record_delivery(self, node_id: int, payload: Any,
                         step: Optional[int]) -> Optional[Violation]:
        tokens = payload if isinstance(payload, tuple) else (payload,)
        history = self.delivered[node_id]
        for token in tokens:
            position = len(history)
            history.append(token)
            if position < len(self.order):
                if self.order[position] != token:
                    return Violation(
                        "divergence",
                        f"node {node_id} delivered {token!r} at position "
                        f"{position} where {self.order[position]!r} was "
                        f"already delivered elsewhere",
                        step)
            else:
                self.order.append(token)
            if _is_write(token):
                self.delivered_writes[node_id].add(token)
                self.completed_writes.add(token)
        return None

    def _install(self, node_id: int, snapshot: Snapshot,
                 step: Optional[int]) -> Optional[Violation]:
        """Adopt the sender's delivered sequence, then let the protocol
        skip ahead and deliver what it already holds above it."""
        adopted = list(snapshot.state)
        own = self.delivered[node_id]
        if adopted[:len(own)] != own:
            return Violation(
                "divergence",
                f"node {node_id} delivered {own!r} but is sent a snapshot "
                f"of {adopted!r}",
                step)
        self.delivered[node_id] = adopted
        self.delivered_writes[node_id] = set(filter(_is_write, adopted))
        return self._absorb(
            node_id,
            self.nodes[node_id].on_snapshot_installed(snapshot.instance),
            step)

    def _serving(self, node: MultiPaxos) -> bool:
        """True when ``node`` would serve a lease read right now."""
        return (node.is_leader
                and node.lease_reads
                and node.lease_duration > 0
                and node.next_deliver >= node._recover_floor
                and node._lease_valid())

    def _check_overlap(self, step: int) -> Optional[Violation]:
        servers = [i for i, node in enumerate(self.nodes)
                   if self._serving(node)]
        if len(servers) > 1:
            return Violation(
                "lease-overlap",
                f"nodes {servers} can all serve lease reads at "
                f"base time {self.base:.3f}",
                step)
        return None

    # ------------------------------------------------------------ decisions

    def apply(self, decision: str, step: int) -> Optional[Violation]:
        """Apply one decision; returns the first violation observed."""
        op, _, arg = decision.partition(":")
        violation: Optional[Violation] = None
        if op == "deliver" and self.network:
            src, dst, msg = self.network.pop(int(arg) % len(self.network))
            if src not in self.isolated and dst not in self.isolated:
                violation = self._absorb(
                    dst, self.nodes[dst].on_message(src, msg), step)
        elif op == "drop" and self.network:
            self.network.pop(int(arg) % len(self.network))
        elif op == "dup" and self.network:
            if len(self.network) < _NETWORK_CAP:
                self.network.append(
                    self.network[int(arg) % len(self.network)])
        elif op == "tick":
            self.base += float(arg)
        elif op in ("hb", "lt", "lg"):
            node_id = int(arg) % len(self.nodes)
            timer = {"hb": HEARTBEAT_TIMER, "lt": LEADER_TIMER,
                     "lg": LINGER_TIMER}[op]
            violation = self._absorb(
                node_id, self.nodes[node_id].on_timer(timer), step)
        elif op == "write":
            node_id = int(arg) % len(self.nodes)
            token = f"w{self.write_count}"
            self.write_count += 1
            violation = self._absorb(
                node_id, self.nodes[node_id].submit(token), step)
        elif op == "read":
            violation = self._apply_read(int(arg) % len(self.nodes), step)
        elif op == "iso":
            self.isolated.add(int(arg) % len(self.nodes))
        elif op == "heal":
            self.isolated.clear()
        elif op in ("deliver", "drop", "dup"):
            pass  # empty network: deterministic no-op
        else:
            raise SimulationError(f"unknown decision {decision!r}")
        if violation is not None:
            return violation
        return self._check_overlap(step)

    def _apply_read(self, node_id: int, step: int) -> Optional[Violation]:
        # Snapshot the completed writes *before* the read is invoked: a
        # linearizable read must reflect every write whose delivery (and so
        # possibly its client response) preceded the read's invocation.
        completed = set(self.completed_writes)
        token = f"r{self.read_count}"
        self.read_count += 1
        actions = self.nodes[node_id].submit_read(token)
        for action in actions:
            if isinstance(action, DeliverRead):
                missing = completed - self.delivered_writes[node_id]
                if missing:
                    return Violation(
                        "stale-read",
                        f"lease read {token} served at node {node_id} "
                        f"misses completed writes {sorted(missing)}",
                        step)
        return self._absorb(node_id, actions, step)

    def finish(self, step: int) -> Optional[Violation]:
        """Every oracle ran after each decision: nothing is left to check."""
        return None


# ------------------------------------------------------------- exploration

_TICKS = ("0.01", "0.02", "0.05")


def generate_schedule(config: LeaseCheckConfig,
                      rng: random.Random) -> List[str]:
    """One seeded random-walk schedule over the decision vocabulary."""
    n = config.n_nodes
    decisions: List[str] = []
    for _ in range(config.schedule_length):
        roll = rng.random()
        if roll < 0.40:
            decisions.append(f"deliver:{rng.randrange(64)}")
        elif roll < 0.55:
            decisions.append(f"tick:{rng.choice(_TICKS)}")
        elif roll < 0.65:
            decisions.append(f"hb:{rng.randrange(n)}")
        elif roll < 0.75:
            decisions.append(f"lt:{rng.randrange(n)}")
        elif roll < 0.78:
            decisions.append(f"lg:{rng.randrange(n)}")
        elif roll < 0.84:
            decisions.append(f"write:{rng.randrange(n)}")
        elif roll < 0.92:
            decisions.append(f"read:{rng.randrange(n)}")
        elif roll < 0.95:
            decisions.append(f"drop:{rng.randrange(64)}")
        elif roll < 0.96:
            decisions.append(f"dup:{rng.randrange(64)}")
        elif roll < 0.99:
            decisions.append(f"iso:{rng.randrange(n)}")
        else:
            decisions.append("heal")
    return decisions


#: 2: every node compacts its log (CHECK_RETAIN); a version-1 schedule
#: would replay against a different system.
HARNESS = DecisionHarness(
    name="paxos-lease",
    version=2,
    mutants=LEASE_MUTANTS,
    config=LeaseCheckConfig,
    system=LeaseHarness,
    generate_schedule=generate_schedule,
)
