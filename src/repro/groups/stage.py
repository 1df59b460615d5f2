"""The merge stage: N ordered group streams in front of one replica.

A :class:`MergeStage` sits between a replica's per-group ordering nodes
and its execution stage when ``n_groups > 1`` (at one group the node
delivers straight into the replica and none of this exists — see
:mod:`repro.smr.stack`).  Every group's delivery callback funnels into
one :class:`~repro.groups.merge.GroupMerger` under a single lock, and
released commands feed the replica's COS exactly as single-group
deliveries would — per-class FIFO is preserved because the merger
releases each group's stream in consensus order.  The execution stage is
whatever was built behind it (threaded or mp engine, any COS).

Two grouped-specific concerns live around it:

- **dedup**: requests of one client may arrive out of request-id order
  across groups, so the replica behind a merge stage runs the windowed
  dedup cache (``DEFAULT_DEDUP_WINDOW``; see :mod:`repro.smr.replica`);
- **lease reads**: a group leaseholder may serve a local read only when
  every delivered item of that group has been released — a hold in the
  group's stream may hide a write that already completed at another
  replica.  Busy streams defer the read until the group drains.

Per-group observability (docs/observability.md): delivery counters and
merge-lag gauges labelled by group, a rendezvous wait histogram, and
released single/cross counters for the cross-partition ratio.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple)

from repro.core.command import Command
from repro.groups.merge import Emission, GroupMerger
from repro.groups.messages import Rendezvous
from repro.groups.partition import PartitionMap
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

__all__ = ["MergeStage"]


def _flatten_group_items(payload: Any) -> Iterable[Any]:
    """Yield ``Command`` and ``Rendezvous`` leaves of a nested batch."""
    if isinstance(payload, (Command, Rendezvous)):
        yield payload
        return
    if isinstance(payload, (str, bytes, bytearray)):
        raise TypeError(
            f"group batch leaves must be Command or Rendezvous, got "
            f"{type(payload).__name__}: {payload!r:.80}")
    try:
        items = iter(payload)
    except TypeError:
        raise TypeError(
            f"group batch leaves must be Command or Rendezvous, got "
            f"{type(payload).__name__}: {payload!r:.80}") from None
    for item in items:
        yield from _flatten_group_items(item)


class MergeStage:
    """N ordered group streams -> one merger -> ``replica``'s COS."""

    def __init__(
        self,
        replica: Any,
        n_groups: int,
        record_history: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        """``replica`` is the execution stage (a
        :class:`~repro.smr.replica.ParallelReplica`); its service's
        conflict relation must provide footprints — the partition map
        raises :class:`~repro.errors.ConfigurationError` otherwise
        (routing soundness; docs/partitioning.md)."""
        self.replica = replica
        conflicts = replica.service.conflicts
        self.partition_map = PartitionMap(conflicts, n_groups)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.merger = GroupMerger(
            n_groups, record_history=record_history, conflicts=conflicts)
        self._lock = threading.Lock()
        self._merged_seq = -1
        self._deferred_reads: List[List[Any]] = [[] for _ in range(n_groups)]
        self._hold_since: Dict[str, float] = {}
        obs = self.registry
        self._obs_on = obs.enabled
        self._m_delivered = [
            obs.counter("group_delivered_total", group=str(group))
            for group in range(n_groups)]
        self._g_lag = [
            obs.gauge("group_merge_lag", group=str(group))
            for group in range(n_groups)]
        self._m_wait = obs.histogram("rendezvous_wait_seconds")
        self._m_single = obs.counter("group_released_total", kind="single")
        self._m_cross = obs.counter("group_released_total", kind="cross")

    def sinks(self, group: int) -> Tuple[Callable[[int, Any], None],
                                         Callable[[Any], None]]:
        """``(on_deliver, on_read)`` callbacks for group ``group``'s node."""
        return (partial(self.on_group_deliver, group),
                partial(self.on_group_read, group))

    # ------------------------------------------------------------- delivery

    def on_group_deliver(self, group: int, instance: int,
                         payload: Any) -> None:
        """Delivery callback of group ``group``'s broadcast node."""
        del instance  # merged positions come from the merger, not here
        with self._lock:
            emissions: List[Emission] = []
            for item in _flatten_group_items(payload):
                if self._obs_on:
                    self._m_delivered[group].inc()
                    if isinstance(item, Rendezvous):
                        self._hold_since.setdefault(
                            item.xid, time.monotonic())
                emissions.extend(self.merger.offer(group, item))
            self._dispatch(emissions)
            self._flush_deferred_reads()

    def on_group_read(self, group: int, payload: Any) -> None:
        """Leaseholder-local read delivery for one group.

        Safe to execute immediately only when every delivered item of the
        group has been released from the merger; otherwise the read waits
        for the group's stream to drain (a queued hold may hide a write
        that already completed elsewhere — docs/partitioning.md).
        """
        with self._lock:
            if self.merger.pending(group) == 0:
                self.replica.on_local_read(payload)
            else:
                self._deferred_reads[group].append(payload)

    def _dispatch(self, emissions: List[Emission]) -> None:
        for emission in emissions:
            self._merged_seq += 1
            if self._obs_on:
                if emission.cross_partition:
                    self._m_cross.inc()
                    since = self._hold_since.pop(emission.xid, None)
                    if since is not None:
                        self._m_wait.observe(time.monotonic() - since)
                else:
                    self._m_single.inc()
            self.replica.on_deliver(self._merged_seq, emission.command)
        if self._obs_on:
            for group, gauge in enumerate(self._g_lag):
                gauge.set(self.merger.pending(group))

    def _flush_deferred_reads(self) -> None:
        for group, reads in enumerate(self._deferred_reads):
            if reads and self.merger.pending(group) == 0:
                self._deferred_reads[group] = []
                for payload in reads:
                    self.replica.on_local_read(payload)

    # ---------------------------------------------------------- inspection

    def merged_positions(self) -> Dict[Hashable, Tuple[int, int]]:
        """Command key -> merged position (requires record_history)."""
        with self._lock:
            return dict(self.merger.positions)

    def class_histories(self) -> Dict[Hashable, List[Hashable]]:
        """Conflict class -> release order (requires record_history)."""
        with self._lock:
            return {key: list(history)
                    for key, history in self.merger.class_history.items()}

    def merge_idle(self) -> bool:
        with self._lock:
            return self.merger.idle()
