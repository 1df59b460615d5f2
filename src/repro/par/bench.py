"""Wall-clock benchmark of the multiprocess engine (``"mp"`` backend).

Measures one replica executing a pre-created workload — the shape of the
paper's standalone experiment (§7.3), but on real cores and a wall clock
instead of the simulator's virtual one.  A feeder thread plays the atomic
broadcast (calling ``on_deliver`` in batches), the replica schedules
through the unchanged COS, and the engine under test executes:

- ``engine="threaded"`` — workers call the service in-process; the GIL
  serializes CPU-bound execution regardless of worker count (the
  known-limitation baseline);
- ``engine="mp"`` — workers dispatch to shard processes; on a multi-core
  host throughput scales with workers on low-conflict workloads.

Throughput is counted after a warm-up prefix, like the paper measures
"overall throughput obtained by the worker threads".  Speedup claims need
real cores: on a single-CPU host both engines collapse to sequential and
the mp engine only adds IPC overhead — ``benchmarks/bench_mp_scaling.py``
guards its assertion on ``os.cpu_count()`` accordingly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.apps import build_service
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.par.engine import MpService
from repro.smr.deployment import ENGINES
from repro.smr.replica import ParallelReplica
from repro.workload import WorkloadGenerator

if TYPE_CHECKING:  # run_mp_cluster imports the cluster stack when it runs
    from repro.smr.client import ClosedLoopStats
    from repro.smr.cluster import ClusterConfig

__all__ = ["MpBenchConfig", "MpBenchResult", "run_mp_bench",
           "MpClusterConfig", "run_mp_cluster"]


@dataclass(frozen=True)
class MpBenchConfig:
    """Parameters of one engine-scaling run (one curve point)."""

    engine: str = "mp"                 # "mp" | "threaded" baseline
    mp_workers: int = 2                # shard processes (mp engine)
    workers: int = 4                   # replica worker threads (threaded)
    service: str = "linked-list"
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    cos_algorithm: str = "lock-free"
    write_pct: float = 0.0             # paper's best-scaling workload
    key_dist: str = "uniform"
    zipf_s: float = 0.99
    key_space: int = 2_000
    warm_ops: int = 200
    measure_ops: int = 2_000
    deliver_batch: int = 32
    #: Max ready commands one worker hands the engine per dispatch
    #: (``None`` → ParallelReplica's default; 1 disables batching).
    dispatch_batch: Optional[int] = None
    seed: int = 1
    timeout: float = 120.0

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got "
                f"{self.engine!r}")
        if self.mp_workers < 1 or self.workers < 1:
            raise ConfigurationError("worker counts must be >= 1")
        if self.measure_ops < 1:
            raise ConfigurationError("measure_ops must be >= 1")

    def service_factory_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.service_kwargs)
        if self.service == "linked-list":
            # Scale the list to the key space so ``contains`` walks are real
            # CPU work — the thing the mp engine parallelizes.
            kwargs.setdefault("initial_size", self.key_space)
        return kwargs


@dataclass(frozen=True)
class MpBenchResult:
    """Measured outcome (seconds are wall clock)."""

    config: MpBenchConfig
    executed: int                      # commands counted after warm-up
    duration: float                    # measured window
    throughput: float                  # commands per wall-clock second
    dispatch_p50: float = 0.0          # engine dispatch round trip (mp only)
    dispatch_p99: float = 0.0
    #: Fraction of the measured window each shard spent executing (mp only);
    #: sums > 1.0 are the engine genuinely using more than one core.
    shard_busy: List[float] = field(default_factory=list)
    barrier_rounds: int = 0

    @property
    def kops(self) -> float:
        return self.throughput / 1e3

    def to_json(self) -> Dict[str, Any]:
        data = asdict(self)
        data["kops"] = self.kops
        return data


def run_mp_bench(config: MpBenchConfig,
                 registry: Optional[MetricsRegistry] = None) -> MpBenchResult:
    """Run one engine-scaling point and return its measured throughput."""
    config.validate()
    registry = registry if registry is not None else MetricsRegistry()
    total = config.warm_ops + config.measure_ops
    workload = WorkloadGenerator(
        config.write_pct,
        key_space=config.key_space,
        seed=config.seed,
        key_dist=config.key_dist,
        zipf_s=config.zipf_s,
    )
    commands = workload.commands(total)

    engine: Optional[MpService] = None
    if config.engine == "mp":
        engine = MpService(
            config.service,
            config.service_factory_kwargs(),
            workers=config.mp_workers,
            registry=registry,
        )
        service = engine
    else:
        service = build_service(
            config.service, **config.service_factory_kwargs())
    replica = ParallelReplica(
        0,
        service,
        cos_algorithm=config.cos_algorithm,
        workers=config.workers,
        registry=registry,
        dispatch_batch=config.dispatch_batch,
    )

    def feeder() -> None:
        # The atomic broadcast, reduced to its essence: batches delivered
        # in order.  COS backpressure (insert blocks when the graph is
        # full) paces this thread, as it paces delivery in a real replica.
        for offset in range(0, total, config.deliver_batch):
            replica.on_deliver(
                offset, commands[offset:offset + config.deliver_batch])

    if engine is not None:
        engine.start()
    replica.start()
    feeder_thread = threading.Thread(
        target=feeder, name="mp-bench-feeder", daemon=True)
    deadline = time.monotonic() + config.timeout
    warm_at: Optional[float] = None
    feeder_thread.start()
    try:
        while True:
            executed = replica.executed
            now = time.monotonic()
            if warm_at is None and executed >= config.warm_ops:
                warm_at = now
            if executed >= total:
                finished = now
                break
            if now > deadline:
                raise TimeoutError(
                    f"mp bench executed only {executed}/{total} commands "
                    f"within {config.timeout}s")
            time.sleep(0.002)
        feeder_thread.join(5.0)
    finally:
        replica.stop()
        if engine is not None:
            engine.stop()

    warm_at = warm_at if warm_at is not None else finished
    duration = max(finished - warm_at, 1e-9)
    measured = total - config.warm_ops
    dispatch = registry.histogram("mp_dispatch_seconds")
    shard_busy = []
    if config.engine == "mp":
        for shard in range(config.mp_workers):
            busy = registry.histogram("mp_shard_busy_seconds",
                                      shard=str(shard))
            shard_busy.append(busy.sum / duration)
    return MpBenchResult(
        config=config,
        executed=measured,
        duration=duration,
        throughput=measured / duration,
        dispatch_p50=dispatch.quantile(0.50),
        dispatch_p99=dispatch.quantile(0.99),
        shard_busy=shard_busy,
        barrier_rounds=int(
            registry.counter("mp_barrier_rounds_total").value),
    )


#: Key space of a closed-loop cluster run's workload.
CLUSTER_KEY_SPACE = 500
_CLUSTER_BATCH = 8                    # commands per client request
_CLUSTER_CLIENT_TIMEOUT = 5.0


@dataclass(frozen=True)
class MpClusterConfig:
    """Closed-loop run of an in-process cluster: its deployment + workload.

    The SMR counterpart of :class:`MpBenchConfig`: a full in-process
    cluster (consensus + replicas + clients) where each replica executes on
    the deployment's engine — ``python -m repro smr --engine mp`` ends here.
    """

    deployment: ClusterConfig
    n_clients: int = 4
    ops: int = 800                     # total commands across all clients
    write_pct: float = 0.0
    key_dist: str = "uniform"
    zipf_s: float = 0.99
    seed: int = 1


def run_mp_cluster(config: MpClusterConfig) -> ClosedLoopStats:
    """Drive a ThreadedCluster with closed-loop clients on either engine."""
    # Imported here: the cluster pulls in broadcast machinery the plain
    # engine benchmark does not need.
    from repro.smr.client import run_closed_loop
    from repro.smr.cluster import ThreadedCluster

    indices = range(config.n_clients)
    with ThreadedCluster(config.deployment) as cluster:
        return run_closed_loop(
            [cluster.client(contact=index % config.deployment.n_replicas,
                            timeout=_CLUSTER_CLIENT_TIMEOUT)
             for index in indices],
            [WorkloadGenerator(
                config.write_pct, key_space=CLUSTER_KEY_SPACE,
                seed=config.seed * 1_000 + index,
                key_dist=config.key_dist, zipf_s=config.zipf_s)
             for index in indices],
            batches=max(1, config.ops // (config.n_clients * _CLUSTER_BATCH)),
            batch=_CLUSTER_BATCH)
