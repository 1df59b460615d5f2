"""Standalone data-structure experiment (paper §7.3).

Reproduces the setup of Figs. 2-3: one scheduler process loops without
waiting over pre-created requests and inserts them into the COS; each of
``workers`` worker processes loops get / execute / remove (Algorithm 1).
Everything runs on the discrete-event simulator, so 64 workers genuinely
overlap on the virtual clock.

Throughput is measured at the workers (commands removed per virtual second)
after a warm-up phase, exactly as the paper measures "overall throughput
obtained by the worker threads".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core import make_cos, read_write_classes
from repro.core.command import ConflictRelation, ReadWriteConflicts
from repro.core.cos import DEFAULT_MAX_SIZE
from repro.core.effects import Work
from repro.core.runtime import EffectGen
from repro.obs.registry import MetricsRegistry
from repro.sim import (
    ExecutionProfile,
    Metrics,
    SimRuntime,
    Simulator,
    SyncCosts,
    structure_costs,
)
from repro.workload import WorkloadGenerator

__all__ = ["StandaloneConfig", "StandaloneResult", "run_standalone"]


@dataclass(frozen=True)
class StandaloneConfig:
    """Parameters of one standalone run (one point of Figs. 2-3)."""

    algorithm: str
    workers: int
    profile: ExecutionProfile
    write_pct: float = 0.0
    max_size: int = DEFAULT_MAX_SIZE
    seed: int = 1
    warm_ops: int = 800
    measure_ops: int = 8_000
    max_virtual_time: float = 30.0
    sync_costs: SyncCosts = field(default_factory=SyncCosts.default)
    conflicts: Optional[ConflictRelation] = None
    #: Shard count for the "class-based" scheduler's readers/writers model.
    class_shards: int = 1
    #: Workload key parameters (see repro.workload.WorkloadGenerator):
    #: uniform or Zipf-skewed keys over ``key_space``.
    key_space: int = 10_000
    key_dist: str = "uniform"
    zipf_s: float = 0.99


@dataclass(frozen=True)
class StandaloneResult:
    """Outcome of one standalone run."""

    config: StandaloneConfig
    throughput: float          # commands per virtual second
    executed: int              # commands completed after warm-up
    virtual_time: float        # total virtual seconds simulated
    events: int                # simulator events processed

    @property
    def kops(self) -> float:
        """Throughput in kops/sec, the paper's unit."""
        return self.throughput / 1e3


def run_standalone(config: StandaloneConfig,
                   registry: Optional[MetricsRegistry] = None,
                   ) -> StandaloneResult:
    """Simulate one configuration and return its measured throughput.

    ``registry`` optionally records the run through the unified
    observability layer (docs/observability.md): its clock is bound to the
    virtual clock and the COS structure emits occupancy/wait/restart
    metrics into it.  Instrumentation adds no simulation events, so
    results are identical with or without it.
    """
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
    sim = Simulator()
    if registry is not None:
        registry.bind_clock(lambda: sim.now)
    runtime = SimRuntime(sim, costs=config.sync_costs)
    metrics = Metrics(sim, registry=registry)
    conflicts = config.conflicts or ReadWriteConflicts()
    cos = make_cos(
        config.algorithm,
        runtime,
        conflicts,
        max_size=config.max_size,
        costs=structure_costs(),
        # Read by the class-based scheduler only.
        classes_of=read_write_classes(config.class_shards),
        obs=registry,
        workers=config.workers,
    )
    workload = WorkloadGenerator(config.write_pct, key_space=config.key_space,
                                 seed=config.seed, key_dist=config.key_dist,
                                 zipf_s=config.zipf_s)
    total_target = config.warm_ops + config.measure_ops
    profile = config.profile
    # The linked-list operations scan until the (uniformly random) key, so
    # execution cost is uniform in [0.5x, 1.5x] of the mean (paper §7.2);
    # the small jitter on fixed costs models OS/JIT noise.  Without this
    # variance the deterministic simulation phase-locks into unrealistically
    # collision-free lock schedules.
    exec_rng = random.Random(config.seed * 7919 + 17)

    def exec_cost() -> float:
        return profile.execute_cost * (0.5 + exec_rng.random())

    def jitter(base: float) -> float:
        return base * (0.8 + 0.4 * exec_rng.random())

    def scheduler() -> EffectGen:
        # Paper §7.3: "one thread looped without waiting interval over a
        # list of pre-created requests and invoked the insert operation".
        # Generation is outside the timed path (requests are pre-created);
        # insert_base models the per-request scheduler-side bookkeeping.
        while True:
            cmd = workload.next_command()
            yield Work(jitter(profile.insert_base))
            yield from cos.insert(cmd)

    def worker(index: int) -> EffectGen:
        while True:
            yield Work(jitter(profile.get_base))
            handle = yield from cos.get()
            yield Work(exec_cost())
            yield from cos.remove(handle)
            yield Work(jitter(profile.remove_base))
            metrics.incr("executed")
            if not metrics.warm_started and metrics.count("executed") >= config.warm_ops:
                metrics.mark_warm()

    runtime.spawn(scheduler(), "scheduler")
    for i in range(config.workers):
        runtime.spawn(worker(i), f"worker-{i}")

    sim.run(
        until=config.max_virtual_time,
        stop_when=lambda: metrics.count("executed") >= total_target,
    )
    return StandaloneResult(
        config=config,
        throughput=metrics.throughput("executed"),
        executed=metrics.warm_count("executed"),
        virtual_time=sim.now,
        events=sim.events_processed,
    )
