"""`MpService` — the multiprocess execution engine behind the Service API.

The engine is a drop-in :class:`~repro.smr.service.Service`: a
:class:`~repro.smr.replica.ParallelReplica` built on it keeps its whole
shape — the scheduler thread inserts into the existing COS
(coarse/fine/lock-free, unchanged) and worker threads call
``service.execute`` — but ``execute`` here *dispatches* the command to the
worker process owning its shard and blocks on the reply.  While a
dispatcher thread blocks, the GIL is free, so N shard processes execute N
single-shard commands genuinely in parallel: this is the path on which the
paper's multi-core scaling claim (Figs. 2–3) becomes measurable in Python
(docs/parallel_execution.md).

Because the dispatch threads spend their time blocked, a replica should
run more of them than there are shards; the replica reads the
:attr:`dispatch_parallelism` hint and sizes its pool accordingly so shard
queues stay fed (pipelining) without the engine's users having to know.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.apps import build_service
from repro.core.command import Command, ConflictRelation
from repro.errors import ConfigurationError, ShardError, ShutdownError
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.par.barrier import BarrierCoordinator
from repro.par.dispatcher import MpDispatcher
from repro.par.shard import ShardRouter
from repro.par.worker import EXEC, RESTORE, SNAPSHOT
from repro.smr.service import ShardableService

__all__ = ["MpService"]


class MpService(ShardableService):
    """Shard-per-process execution engine wearing the Service interface."""

    def __init__(
        self,
        service: str,
        service_kwargs: Optional[Dict[str, Any]] = None,
        workers: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ):
        """Args:
            service: Registered service name (:data:`repro.apps.SERVICES`);
                worker processes rebuild it from this spec.
            service_kwargs: Overrides for the service factory (e.g.
                ``{"initial_size": 10000}`` for the linked list).
            workers: Number of shard worker processes (= state shards).
            registry: Observability sink (per-shard busy time, dispatch
                latency, queue depths, barrier stalls).
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.service_name = service
        self.service_kwargs = dict(service_kwargs or {})
        self.workers = workers
        template = build_service(service, **self.service_kwargs)
        if not isinstance(template, ShardableService):
            raise ConfigurationError(
                f"service {service!r} is not shardable")
        self._template = template
        self._router = ShardRouter(template, workers)
        self.registry = registry if registry is not None else NULL_REGISTRY
        obs = self.registry
        self._obs_on = obs.enabled
        self._m_dispatch = obs.histogram("mp_dispatch_seconds")
        self._m_busy = [
            obs.histogram("mp_shard_busy_seconds", shard=str(shard))
            for shard in range(workers)
        ]
        self._m_commands = [
            obs.counter("mp_shard_commands_total", shard=str(shard))
            for shard in range(workers)
        ]
        self._dispatcher = MpDispatcher(
            service, self.service_kwargs, workers, obs)
        self._barrier = BarrierCoordinator(
            self._dispatcher,
            build_service(service, **self.service_kwargs),
            workers,
            obs,
        )
        self._pending_restore: Optional[Any] = None
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "MpService":
        """Spawn the shard workers; must precede any ``execute``.

        Call this before starting replica/transport threads: with the
        ``fork`` start method the engine wants to be the first thing that
        multiplies the process.
        """
        if self._started:
            raise ShutdownError("mp engine already started")
        self._started = True
        self._dispatcher.start()
        if self._pending_restore is not None:
            snapshot, self._pending_restore = self._pending_restore, None
            self._restore_running(snapshot)
        return self

    def stop(self) -> None:
        self._dispatcher.stop()

    def __enter__(self) -> "MpService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and self._dispatcher.running

    @property
    def dispatch_parallelism(self) -> int:
        """Replica worker threads needed to keep the shards pipelined."""
        return 2 * self.workers

    # --------------------------------------------------------------- service

    def execute(self, command: Command) -> Any:
        shards = self._router.route(command)
        if len(shards) > 1:
            return self._barrier.execute(command, shards)
        shard = shards[0]
        if self._obs_on:
            entered = self.registry.clock()
        response, busy = self._dispatcher.request(shard, EXEC, command)
        if self._obs_on:
            self._m_dispatch.observe(self.registry.clock() - entered)
            self._m_busy[shard].observe(busy)
            self._m_commands[shard].inc()
        return response

    def execute_many(self, commands: Sequence[Command]) -> List[Any]:
        """Execute a batch of pairwise non-conflicting commands.

        Single-shard commands are grouped per shard and each group moves
        to its worker in ONE queue hop (one pickle, one wakeup) via
        :meth:`MpDispatcher.submit_many`; every group is submitted before
        any reply is awaited, so one dispatcher thread pipelines several
        shards at once.  Multi-shard commands still go through the
        barrier individually.  Responses come back in input order.

        Non-conflicting is the caller's contract (a COS ready set
        provides it); conflicting commands in one batch would lose their
        required ordering across shard groups.
        """
        if not commands:
            return []
        if self._obs_on:
            entered = self.registry.clock()
        responses: List[Any] = [None] * len(commands)
        groups: Dict[int, List[int]] = {}
        barrier_indices: List[int] = []
        for index, command in enumerate(commands):
            shards = self._router.route(command)
            if len(shards) > 1:
                barrier_indices.append(index)
            else:
                groups.setdefault(shards[0], []).append(index)
        seqs = [
            (shard, indices,
             self._dispatcher.submit_many(
                 shard, [commands[i] for i in indices]))
            for shard, indices in groups.items()
        ]
        for index in barrier_indices:
            command = commands[index]
            responses[index] = self._barrier.execute(
                command, self._router.route(command))
        failure: Optional[ShardError] = None
        for shard, indices, seq in seqs:
            # Every batch is awaited even after a failure so no reply is
            # left orphaned in the pending map.
            outcomes, busy = self._dispatcher.wait(seq, shard)
            if self._obs_on:
                self._m_busy[shard].observe(busy)
                self._m_commands[shard].inc(len(indices))
            for index, (status, payload) in zip(indices, outcomes):
                if status == "err":
                    error_type, message, trace = payload
                    if failure is None:
                        failure = ShardError(
                            f"shard {shard} execution failed: "
                            f"{error_type}: {message}\n{trace}")
                else:
                    responses[index] = payload
        if failure is not None:
            raise failure
        if self._obs_on:
            self._m_dispatch.observe(self.registry.clock() - entered)
        return responses

    @property
    def conflicts(self) -> ConflictRelation:
        return self._template.conflicts

    @property
    def execution_cost(self) -> float:
        return self._template.execution_cost

    # ---------------------------------------------------------- checkpointing

    def snapshot(self) -> Any:
        """Consistent full snapshot (caller must be quiescent, as in
        :meth:`repro.smr.replica.ParallelReplica.take_checkpoint`)."""
        if not self._started:
            return self._cold_service().snapshot()
        with self._barrier.lock:
            seqs = [
                self._dispatcher.submit(shard, SNAPSHOT)
                for shard in range(self.workers)
            ]
            fragments = [
                self._dispatcher.wait(seq, shard)
                for shard, seq in enumerate(seqs)
            ]
        return self._template.recompose_snapshots(fragments)

    def restore(self, snapshot: Any) -> None:
        """Adopt a full snapshot (e.g. a peer's checkpoint).

        Before :meth:`start` the snapshot is stashed and installed right
        after the workers come up — the order
        ``install_checkpoint`` → ``start`` used by replicas.
        """
        if not self._started:
            self._pending_restore = snapshot
            return
        self._restore_running(snapshot)

    def _restore_running(self, snapshot: Any) -> None:
        fragments = self._template.split_snapshot(snapshot, self.workers)
        with self._barrier.lock:
            seqs = [
                self._dispatcher.submit(shard, RESTORE, fragments[shard])
                for shard in range(self.workers)
            ]
            for shard, seq in enumerate(seqs):
                self._dispatcher.wait(seq, shard)

    def _cold_service(self) -> ShardableService:
        """The engine's pre-start state as a throwaway instance."""
        service = build_service(self.service_name, **self.service_kwargs)
        if self._pending_restore is not None:
            service.restore(self._pending_restore)
        return service

    # ---------------------------------------------------- sharding passthrough

    def shards_of(self, command: Command, n_shards: int):
        return self._template.shards_of(command, n_shards)

    def snapshot_shard(self, shard: int, n_shards: int) -> Any:
        service = build_service(self.service_name, **self.service_kwargs)
        service.restore(self.snapshot())
        return service.snapshot_shard(shard, n_shards)

    def recompose_snapshots(self, fragments) -> Any:
        return self._template.recompose_snapshots(fragments)
