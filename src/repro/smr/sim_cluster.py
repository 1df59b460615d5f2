"""Simulated SMR cluster (paper §7.4 environment).

Runs the *real* Multi-Paxos state machines of :mod:`repro.broadcast.paxos`
over the discrete-event simulator, with simulated replicas (COS + scheduler
+ workers on :class:`~repro.sim.runtime.SimRuntime`) and closed-loop
clients.  This is the environment that regenerates Figs. 4-6: the ordering
protocol adds both latency (consensus round trips on a simulated LAN) and
CPU overhead (per-command ordering work on the scheduler path), which is
exactly why the SMR numbers sit below the standalone numbers in the paper.

Clients stamp requests, submit batches to the leader replica, and block on
a semaphore until the first replica response arrives; latency is measured
at the client (paper §7.2), throughput at replica 0.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional

from repro.broadcast.paxos import MultiPaxos
from repro.core import make_cos, read_write_classes
from repro.core.command import Command, ReadWriteConflicts
from repro.core.cos import DEFAULT_MAX_SIZE
from repro.core.effects import Down, Work
from repro.core.runtime import EffectGen
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.smr.replica import _flatten_commands
from repro.sim import (
    ExecutionProfile,
    Metrics,
    SimRuntime,
    Simulator,
    SyncCosts,
    structure_costs,
)
from repro.sim.protocol import SimProtocolNode
from repro.workload import WorkloadGenerator

__all__ = ["SimClusterConfig", "SimClusterResult", "run_sim_cluster"]

_US = 1e-6


@dataclass(frozen=True)
class SimClusterConfig:
    """Parameters of one simulated SMR run (one point of Figs. 4-6)."""

    algorithm: str                      # COS algorithm or "sequential"
    workers: int
    profile: ExecutionProfile
    write_pct: float = 0.0
    n_replicas: int = 3
    n_clients: int = 200
    client_batch: int = 20              # commands per client request (§7.1)
    max_graph_size: int = DEFAULT_MAX_SIZE
    batch_size: int = 16                # consensus batch (client payloads)
    ordering_cpu: float = 1.3 * _US     # per-command protocol CPU at replicas
    net_min: float = 40 * _US           # one-way LAN latency range
    net_max: float = 120 * _US
    execute_replicas: int = 1           # how many replicas run execution
    class_shards: int = 1               # shards for the class-based scheduler
    seed: int = 1
    warm_ops: int = 800
    measure_ops: int = 6_000
    max_virtual_time: float = 60.0
    sync_costs: SyncCosts = field(default_factory=SyncCosts.default)


@dataclass(frozen=True)
class SimClusterResult:
    """Outcome of one simulated SMR run."""

    config: SimClusterConfig
    throughput: float       # commands per virtual second at replica 0
    latency_mean: float     # client-side seconds per request batch
    latency_median: float
    latency_p99: float
    executed: int
    virtual_time: float
    events: int

    @property
    def kops(self) -> float:
        return self.throughput / 1e3

    @property
    def latency_ms(self) -> float:
        return self.latency_mean * 1e3


def run_sim_cluster(config: SimClusterConfig,
                    registry: Optional[MetricsRegistry] = None,
                    ) -> SimClusterResult:
    """Simulate one SMR configuration and return throughput and latency.

    ``registry`` optionally records the run through the unified
    observability layer (docs/observability.md): its clock is bound to the
    virtual clock, COS structures emit occupancy/wait metrics into it, and
    client latencies mirror into the ``latency_seconds`` histogram.
    Instrumentation adds no simulation events, so results are identical
    with or without it.
    """
    if config.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {config.workers}")
    if not 1 <= config.execute_replicas <= config.n_replicas:
        raise ConfigurationError("execute_replicas out of range")
    sim = Simulator()
    if registry is not None:
        registry.bind_clock(lambda: sim.now)
    runtime = SimRuntime(sim, costs=config.sync_costs)
    metrics = Metrics(sim, registry=registry)
    rng = random.Random(config.seed * 6151 + 7)
    total_target = config.warm_ops + config.measure_ops
    conflicts = ReadWriteConflicts()

    # ------------------------------------------------- response bookkeeping
    # Per client: a semaphore the client blocks on and the request id it is
    # waiting for; the first executing replica to answer releases it.
    client_sems = [runtime.semaphore(0) for _ in range(config.n_clients)]
    waiting_for: List[Optional[int]] = [None] * config.n_clients
    outstanding: List[int] = [0] * config.n_clients

    def respond(command: Command) -> None:
        index = int(command.client_id)
        if waiting_for[index] != command.request_id:
            return  # duplicate response from another replica
        outstanding[index] -= 1
        if outstanding[index] == 0:
            waiting_for[index] = None
            client_sems[index].up()

    # ------------------------------------------------------------- replicas
    nodes: List[SimProtocolNode] = []
    for replica_id in range(config.n_replicas):
        executes = replica_id < config.execute_replicas
        if executes:
            on_deliver = _build_executor(
                replica_id, config, runtime, conflicts, metrics,
                rng, respond, measure=replica_id == 0,
                registry=registry if replica_id == 0 else None,
            )
        else:
            on_deliver = lambda payload: None
        protocol = MultiPaxos(
            replica_id,
            config.n_replicas,
            batch_size=config.batch_size,
            heartbeat_interval=0.05,
            leader_timeout=0.2 * (1 + 0.35 * replica_id),
            clock=lambda: sim.now,  # leases measured in simulated time
        )
        # Optimistic deliveries are dropped: this cluster executes
        # conservatively only (repro.spec.sim models the speculative
        # pipeline).
        nodes.append(SimProtocolNode(
            replica_id, protocol, sim,
            lambda msg: rng.uniform(config.net_min, config.net_max),
            on_deliver))
    for node in nodes:
        node.peers = nodes
        node.start()

    # -------------------------------------------------------------- clients
    leader = nodes[0]

    def client_proc(index: int) -> EffectGen:
        workload = WorkloadGenerator(
            config.write_pct,
            seed=config.seed * 100_003 + index,
            client_id=str(index),
        )
        request_id = 0
        sem = client_sems[index]
        # Stagger arrivals so 200 clients do not fire at the same instant.
        yield Work(rng.uniform(0.0, 500e-6))
        while True:
            request_id += 1
            batch = []
            for _ in range(config.client_batch):
                cmd = workload.next_command()
                batch.append(
                    Command(cmd.op, cmd.args, str(index), request_id,
                            writes=cmd.writes)
                )
            waiting_for[index] = request_id
            outstanding[index] = len(batch)
            sent_at = sim.now
            delay = rng.uniform(config.net_min, config.net_max)
            sim.schedule(delay, lambda b=tuple(batch): leader.submit(b))
            yield Down(sem)
            metrics.record_latency(sim.now - sent_at)

    for index in range(config.n_clients):
        runtime.spawn(client_proc(index), f"client-{index}")

    sim.run(
        until=config.max_virtual_time,
        stop_when=lambda: metrics.count("executed") >= total_target,
    )
    mean, median, p99 = metrics.latency_stats()
    return SimClusterResult(
        config=config,
        throughput=metrics.throughput("executed"),
        latency_mean=mean,
        latency_median=median,
        latency_p99=p99,
        executed=metrics.warm_count("executed"),
        virtual_time=sim.now,
        events=sim.events_processed,
    )


def _build_executor(
    replica_id: int,
    config: SimClusterConfig,
    runtime: SimRuntime,
    conflicts: Any,
    metrics: Metrics,
    rng: random.Random,
    respond: Callable[[Command], None],
    measure: bool,
    registry: Optional[MetricsRegistry] = None,
) -> Callable[[Any], None]:
    """Create one replica's execution engine; returns its deliver callback."""
    sim = runtime.simulator
    profile = config.profile
    cos = make_cos(
        config.algorithm,
        runtime,
        conflicts,
        max_size=config.max_graph_size,
        costs=structure_costs(),
        # Read by the class-based scheduler only.
        classes_of=read_write_classes(config.class_shards),
        obs=registry,
        workers=config.workers,
    )
    in_queue: Deque[Command] = deque()
    queued = runtime.semaphore(0)

    def on_deliver(payload: Any) -> None:
        commands = list(_flatten_commands(payload))
        in_queue.extend(commands)
        queued.up(len(commands))

    def scheduler() -> EffectGen:
        while True:
            yield Down(queued)
            command = in_queue.popleft()
            # Per-command protocol CPU (decode, MAC-equivalent, bookkeeping)
            # plus the scheduler-side insert cost.
            cost = (config.ordering_cpu + profile.insert_base)
            yield Work(cost * (0.8 + 0.4 * rng.random()))
            yield from cos.insert(command)

    def worker(index: int) -> EffectGen:
        while True:
            yield Work(profile.get_base)
            handle = yield from cos.get()
            command = cos.command_of(handle)
            yield Work(profile.execute_cost * (0.5 + rng.random()))
            yield from cos.remove(handle)
            yield Work(profile.remove_base)
            if measure:
                metrics.incr("executed")
                if (not metrics.warm_started
                        and metrics.count("executed") >= config.warm_ops):
                    metrics.mark_warm()
            delay = rng.uniform(config.net_min, config.net_max)
            sim.schedule(delay, lambda c=command: respond(c))

    runtime.spawn(scheduler(), f"replica-{replica_id}-scheduler")
    for index in range(config.workers):
        runtime.spawn(worker(index), f"replica-{replica_id}-worker-{index}")
    return on_deliver


