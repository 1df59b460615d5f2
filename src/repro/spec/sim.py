"""Deterministic DES of the optimistic execution pipeline.

Drives the *real* :class:`~repro.broadcast.sequencer.SequencerBroadcast`
state machines (``optimistic=True``) and a real
:class:`~repro.spec.engine.SpeculationEngine` per replica on the
discrete-event :class:`~repro.sim.Simulator`, so the protocol and the
commit/rollback rule under measurement are the shipped implementations —
only network latency and execution cost are virtual.

Model:

- every ``Send`` is delayed by a seeded uniform draw from
  ``[net_min, net_max]``; a :class:`SequencerStamp` additionally waits
  ``ordering_delay`` — the consensus round the optimistic delivery
  front-runs (conservative order = optimistic announce + D);
- each replica owns one execution lane (a busy-until cursor): a
  speculative execution occupies the lane for ``exec_cost`` starting when
  both the optimistic delivery has arrived and the lane is free; a
  conservative re-execution after a rollback charges
  ``undo_cost × rolled + exec_cost × misses``;
- forced mismatches: with probability ``mismatch_rate`` a replica's
  adapter swaps an optimistic arrival with the next one (a seeded
  per-replica adjacent transposition), modelling optimistic/atomic
  delivery races without touching the protocol;
- responses are *released* at commit time — a hit releases the instant
  the conservative order confirms it; a miss releases when its
  conservative re-execution completes.  In conservative mode
  (``speculative=False``) execution starts only at conservative
  delivery, so the latency gap between the modes is exactly the
  execution time speculation overlaps with the ordering delay.

Latency is measured at a *follower* replica (replica 1): the sequencer
delivers to itself instantly in both modes, so only a follower sees the
optimistic/conservative gap the pipeline exists to hide.  Each replica
executes on its own real service instance, so a
run doubles as a differential check: :func:`run_spec_sim` returns every
replica's final snapshot and the conservative reference order, and the
speculative suite (tests/test_spec_differential.py) asserts bit-identical
state against a sequential reference execution — with forced mismatches
dialled up, precisely the runs where rollback must save the day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.apps import build_service
from repro.broadcast.messages import SequencerStamp
from repro.broadcast.sequencer import SequencerBroadcast
from repro.core.command import Command
from repro.errors import ConfigurationError, SimulationError
from repro.groups.merge import command_key
from repro.sim import Simulator
from repro.sim.protocol import SimProtocolNode
from repro.smr.replica import _flatten_commands
from repro.spec.engine import SpeculationEngine

__all__ = ["SpecSimConfig", "SpecSimResult", "run_spec_sim"]

_MS = 1e-3

#: Seeded workload ops per service (write op, read op); values are drawn
#: from the key space.  Writes dominate by default because only writes
#: exercise undo records.
_APP_OPS = {
    "kv": ("put", "get"),
    "bank": ("deposit", "balance"),
    "linked-list": ("add", "contains"),
}


@dataclass(frozen=True)
class SpecSimConfig:
    """One simulated optimistic-vs-conservative run."""

    speculative: bool = True
    n_replicas: int = 3
    n_clients: int = 1                  # closed-loop clients
    total_commands: int = 200
    write_pct: float = 100.0
    service: str = "kv"
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    key_space: int = 64
    exec_cost: float = 3.0 * _MS        # execution-lane time per command
    undo_cost: float = 0.3 * _MS        # applying one undo record
    ordering_delay: float = 3.0 * _MS   # consensus round the stamp waits for
    net_min: float = 0.2 * _MS
    net_max: float = 0.3 * _MS
    mismatch_rate: float = 0.0          # adjacent-swap probability/replica
    seed: int = 1
    max_virtual_time: float = 600.0

    def validate(self) -> None:
        if self.service not in _APP_OPS:
            raise ConfigurationError(
                f"service must be one of {sorted(_APP_OPS)}, got "
                f"{self.service!r}")
        if not 0.0 <= self.mismatch_rate <= 1.0:
            raise ConfigurationError(
                f"mismatch_rate must be in [0, 1], got {self.mismatch_rate}")
        if self.n_clients < 1 or self.total_commands < 1:
            raise ConfigurationError("need at least one client and command")


@dataclass(frozen=True)
class SpecSimResult:
    """Outcome of one run (virtual-clock seconds throughout)."""

    config: SpecSimConfig
    latencies: Tuple[float, ...]        # submit -> release, command order
    virtual_time: float                 # last release
    committed: int
    match_rate: float                   # hits / committed (measure replica)
    rollbacks: int                      # rollback events (measure replica)
    executions: int                     # service executions (measure replica)
    snapshots: Tuple[Any, ...]          # per-replica final service state
    conservative_order: Tuple[Command, ...]
    events: int                         # simulator events processed

    @property
    def throughput(self) -> float:
        return self.committed / self.virtual_time if self.virtual_time else 0.0

    def latency_quantile(self, fraction: float) -> float:
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]


class _SpecSimNode:
    """One replica: protocol adapter + execution lane on the virtual clock."""

    def __init__(self, node_id: int, config: SpecSimConfig, sim: Simulator,
                 rng: random.Random,
                 on_release: Callable[[int, Command, float], None]):
        self.node_id = node_id
        self.config = config
        self.net = SimProtocolNode(
            node_id,
            SequencerBroadcast(
                node_id, config.n_replicas, optimistic=config.speculative),
            sim, self._link_delay,
            on_deliver=self._on_conservative,
            on_optimistic=self._on_optimistic)
        self.service = build_service(config.service, **config.service_kwargs)
        self.engine = SpeculationEngine(self.service)
        self._sim = sim
        self._rng = rng
        self._on_release = on_release
        #: Execution lane busy-until cursor (one sequential executor).
        self._lane_free = 0.0
        #: Commands whose speculative execution has been scheduled but has
        #: not completed yet, by key.
        self._inflight: Dict[Hashable, float] = {}
        #: Conservative batches confirmed by the protocol but waiting for
        #: in-flight speculative executions to land.
        self._confirm_queue: List[List[Command]] = []
        #: Pending adjacent swap (forced-mismatch injection).
        self._held_optimistic: Optional[Command] = None
        self.conservative_order: List[Command] = []
        self.executions = 0

    def _link_delay(self, msg: Any) -> float:
        delay = self._rng.uniform(self.config.net_min, self.config.net_max)
        if isinstance(msg, SequencerStamp):
            # The consensus round the optimistic path front-runs.
            delay += self.config.ordering_delay
        return delay

    # ----------------------------------------------------------- optimistic

    def _on_optimistic(self, payload: Any) -> None:
        for command in _flatten_commands(payload):
            if (self._held_optimistic is None
                    and self._rng.random() < self.config.mismatch_rate):
                # Hold this arrival; the next one overtakes it (a seeded
                # adjacent transposition of the optimistic order).
                self._held_optimistic = command
                continue
            self._speculate(command)
            if self._held_optimistic is not None:
                held, self._held_optimistic = self._held_optimistic, None
                self._speculate(held)

    def _speculate(self, command: Command) -> None:
        entry = self.engine.admit(command)
        if entry is None:
            return
        start = max(self._sim.now, self._lane_free)
        done = start + self.config.exec_cost
        self._lane_free = done
        self._inflight[entry.key] = done
        self._sim.schedule(done - self._sim.now,
                           lambda e=entry: self._execute_speculative(e))

    def _execute_speculative(self, entry: Any) -> None:
        undo = self.engine.undo.capture(self.service, entry.command)
        response = self.service.execute(entry.command)
        self.executions += 1
        self.engine.record(entry, undo, response)
        self._inflight.pop(entry.key, None)
        self._try_confirm()

    # --------------------------------------------------------- conservative

    def _on_conservative(self, payload: Any) -> None:
        commands = list(_flatten_commands(payload))
        self.conservative_order.extend(commands)
        if not self.config.speculative:
            start = max(self._sim.now, self._lane_free)
            for command in commands:
                start += self.config.exec_cost
                self._sim.schedule(
                    start - self._sim.now,
                    lambda c=command, t=start: self._execute_conservative(c, t))
            self._lane_free = start
            return
        self._confirm_queue.append(commands)
        self._try_confirm()

    def _execute_conservative(self, command: Command, release: float) -> None:
        self.service.execute(command)
        self.executions += 1
        self._on_release(self.node_id, command, release)

    def _try_confirm(self) -> None:
        while self._confirm_queue:
            if self.engine.unexecuted:
                return  # _execute_speculative will retry on completion
            commands = self._confirm_queue.pop(0)
            lane = [max(self._sim.now, self._lane_free)]

            def execute(command: Command) -> Any:
                response = self.service.execute(command)
                self.executions += 1
                lane[0] += self.config.exec_cost
                return response

            before = self.engine.stats.rolled_back
            result = self.engine.confirm(commands, execute=execute)
            lane[0] += self.config.undo_cost * (
                self.engine.stats.rolled_back - before)
            self._lane_free = max(self._lane_free, lane[0])
            for command, _response, hit in result.released:
                release = self._sim.now if hit else self._lane_free
                self._on_release(self.node_id, command, release)
            for command in result.respeculate:
                # Re-speculated commands admit ahead of any optimistic
                # arrival still in the event queue, matching the threaded
                # replica's deliver-lock ordering.
                self._speculate(command)

    def flush_holds(self) -> None:
        """Release a trailing held arrival (end-of-stream swap partner)."""
        if self._held_optimistic is not None:
            held, self._held_optimistic = self._held_optimistic, None
            self._speculate(held)


def run_spec_sim(config: SpecSimConfig) -> SpecSimResult:
    """Simulate one configuration; see the module docstring for the model."""
    config.validate()
    sim = Simulator()
    rng = random.Random(config.seed * 9176 + 11)

    # -------------------------------------------------------------- replicas
    released: Dict[Hashable, float] = {}
    submit_times: Dict[Hashable, float] = {}
    latencies: List[float] = []
    release_order: List[Hashable] = []

    # The sequencer (node 0) delivers to itself instantly; followers see
    # the announce-vs-stamp gap, which is the phenomenon under test.
    measure_replica = 1 if config.n_replicas > 1 else 0

    def on_release(node_id: int, command: Command, when: float) -> None:
        if node_id != measure_replica:
            return
        key = command_key(command)
        if key in released:
            raise SimulationError(f"command {key} released twice")
        released[key] = when
        release_order.append(key)
        latencies.append(when - submit_times[key])
        next_submit = client_next.get(command.client_id)
        if next_submit is not None:
            sim.schedule(max(when - sim.now, 0.0)
                         + rng.uniform(config.net_min, config.net_max),
                         next_submit)

    nodes = [
        _SpecSimNode(node_id, config,
                     sim, random.Random(config.seed * 7907 + node_id),
                     on_release)
        for node_id in range(config.n_replicas)
    ]
    for node in nodes:
        node.net.peers = [peer.net for peer in nodes]

    # --------------------------------------------------------------- clients
    sequencer = nodes[0].net
    per_client = config.total_commands // config.n_clients
    remainder = config.total_commands % config.n_clients
    client_next: Dict[str, Callable[[], None]] = {}

    def make_client(index: int, quota: int) -> Callable[[], None]:
        client_id = f"spec-client-{index}"
        workload = random.Random(config.seed * 104_729 + index)
        write_op, read_op = _APP_OPS[config.service]
        issued = [0]

        def submit_next() -> None:
            if issued[0] >= quota:
                return
            issued[0] += 1
            writes = workload.random() < config.write_pct / 100.0
            key = workload.randrange(config.key_space)
            if config.service == "kv":
                args = (f"k{key}", issued[0]) if writes else (f"k{key}",)
            elif config.service == "bank":
                args = (f"acct{key}", 1) if writes else (f"acct{key}",)
            else:
                args = (key,)
            command = Command(
                op=write_op if writes else read_op,
                args=args,
                client_id=client_id,
                request_id=issued[0],
                writes=writes,
            )
            submit_times[command_key(command)] = sim.now
            sequencer.submit(command)

        client_next[client_id] = submit_next
        return submit_next

    for index in range(config.n_clients):
        quota = per_client + (1 if index < remainder else 0)
        first = make_client(index, quota)
        sim.schedule(rng.uniform(0.0, config.net_max), first)

    sim.run(until=config.max_virtual_time)
    for node in nodes:
        node.flush_holds()
    sim.run(until=config.max_virtual_time)

    if len(released) != config.total_commands:
        raise SimulationError(
            f"released {len(released)} of {config.total_commands} commands "
            f"(virtual-time budget too small?)")
    measured = nodes[measure_replica]
    stats = measured.engine.stats
    confirmed = stats.hits + stats.misses
    return SpecSimResult(
        config=config,
        latencies=tuple(latencies),
        virtual_time=max(released.values(), default=0.0),
        committed=len(released),
        match_rate=(stats.hits / confirmed
                    if config.speculative and confirmed else 1.0),
        rollbacks=stats.rollbacks,
        executions=measured.executions,
        snapshots=tuple(node.service.snapshot() for node in nodes),
        conservative_order=tuple(nodes[0].conservative_order),
        events=sim.events_processed,
    )
