"""Barrier rounds: cross-shard commands over partitioned state.

A command whose footprint spans several shards (a cross-shard bank
transfer, or anything reporting :data:`~repro.smr.service.ALL_SHARDS`)
cannot run inside a single worker — no process holds the whole picture.
The engine executes it as a *barrier round*:

1. **collect** — every involved shard replies with its current fragment
   and bars its queue (commands already queued ahead of the collect have
   executed; later ones wait);
2. **execute** — the coordinator merges the fragments into a scratch
   service in the parent and applies the command there;
3. **install** — each involved shard receives its post-command fragment,
   restores it, and resumes its queue.

Correctness leans on two existing guarantees: per-shard queues are FIFO,
and the COS never hands out a command while a conflicting predecessor is
in flight — so everything the barrier reads has fully executed, and
everything that could observe its writes is ordered behind the installs.
Barriers serialize against each other (one coordinator lock): two
overlapping barrier rounds could otherwise bar each other's shards in
opposite orders and deadlock.

This is the engine's concession to the literature: P-SMR's
cross-partition commands synchronize all involved workers the same way,
and the cost is why the scaling benchmark uses low-conflict workloads.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.command import Command
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.par.dispatcher import MpDispatcher
from repro.par.worker import COLLECT
from repro.smr.service import ShardableService

__all__ = ["BarrierCoordinator"]


class BarrierCoordinator:
    """Serializes and runs collect → execute → install rounds."""

    def __init__(
        self,
        dispatcher: MpDispatcher,
        scratch: ShardableService,
        n_shards: int,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._dispatcher = dispatcher
        self._scratch = scratch
        self._n_shards = n_shards
        self.lock = threading.Lock()
        registry = registry if registry is not None else NULL_REGISTRY
        self._clock = registry.clock if registry.enabled else None
        self._m_rounds = registry.counter("mp_barrier_rounds_total")
        self._m_round_seconds = registry.histogram("mp_barrier_seconds")
        self._m_stalls = {
            shard: registry.histogram("mp_barrier_stall_seconds",
                                      shard=str(shard))
            for shard in range(n_shards)
        }

    def execute(self, command: Command, shards: Tuple[int, ...]) -> Any:
        """Run ``command`` across ``shards`` under one barrier round."""
        clock = self._clock
        with self.lock:
            started = clock() if clock else 0.0
            seqs = {
                shard: self._dispatcher.submit(shard, COLLECT)
                for shard in shards
            }
            fragments: Dict[int, Any] = {}
            collected_at: Dict[int, float] = {}
            for shard in shards:
                fragments[shard] = self._dispatcher.wait(seqs[shard], shard)
                if clock:
                    collected_at[shard] = clock()
            scratch = self._scratch
            scratch.restore(
                scratch.recompose_snapshots(
                    [fragments[shard] for shard in shards]))
            try:
                response = scratch.execute(command)
            except BaseException:
                # The command's own error: release every barred shard with
                # the state it handed over, then let the caller answer it.
                for shard in shards:
                    self._dispatcher.install(
                        shard, seqs[shard], fragments[shard])
                raise
            for shard in shards:
                self._dispatcher.install(
                    shard, seqs[shard],
                    scratch.snapshot_shard(shard, self._n_shards))
            if clock:
                released = clock()
                for shard in shards:
                    # A shard stalls from the moment it handed over its
                    # fragment (barring its queue) until its install is on
                    # the wire again.
                    self._m_stalls[shard].observe(
                        released - collected_at[shard])
                self._m_round_seconds.observe(released - started)
            self._m_rounds.inc()
        return response
