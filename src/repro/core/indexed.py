"""Indexed lock-free DAG scheduler: O(|footprint|) insert.

The paper's lock-free graph (Algs. 5-7) makes ``get``/``remove`` scale,
but its sequential ``insert`` still walks the *entire* arrival list
checking conflicts — O(graph size) per command, so at the paper's
max_size of 150 the scheduler thread becomes the next bottleneck once
workers stop contending.  This module removes that walk while keeping
the full pairwise-conflict semantics (reads still commute — the property
class-based *early scheduling* gives up, see
:mod:`repro.core.class_based` and docs/scheduling.md).

The idea, following the index-based scheduling line of related work: the
conflict relation decomposes commands into **conflict classes**
(:meth:`repro.core.command.ConflictRelation.footprint`), and for each
class the scheduler maintains one atomic *index entry*::

    (last_writer, readers_since_last_write)

``insert`` touches only the entries in the command's footprint:

- a **writer** of the class conflicts with the entry's last writer and
  every reader since — it links edges to those, then becomes the new
  last writer (resetting the readers);
- a **reader** conflicts only with the last writer — it links one edge
  and appends itself to the readers.

These direct edges are the *transitive reduction* of the lock-free
graph's "every live conflicting predecessor" edge set: a displaced
writer already carries edges to everything it conflicted with, and
removal order (a node is removed only after executing, hence only after
everything it depended on was removed) makes the closure collapse —
"last writer removed" implies "its whole conflict closure removed".
Ready-sets are therefore identical to the lock-free graph's at every
point (tests/test_indexed_differential.py checks this directly).

Readiness bookkeeping replaces dep-set rescans with a per-node atomic
**pending-predecessor counter**:

- ``insert`` initializes it to 1 (the *insertion guard*), increments it
  *before* registering each edge, and drops the guard last, so the node
  can never be observed ready while edges are still being registered
  (the same hazard the lock-free graph closes by publishing ``dep_on``
  late, paper §6.2).
- ``remove`` first **seals** the node's dependent list (CAS-swapping a
  sentinel into ``dep_me``), atomically claiming the exact set of
  counters it must decrement; an inserter that finds the seal skips the
  edge and undoes its provisional increment — the predecessor's removal
  has already linearized, so it can no longer block anyone.
- whoever decrements a counter to zero owns the ``wtg -> rdy``
  transition and enqueues the node onto a lock-free FIFO ready queue
  (Michael & Scott's two-pointer queue); ``get`` dequeues in O(1)
  instead of walking the graph.  FIFO keeps independent commands coming
  out in insertion order, matching the lock-free graph's head-first
  arrival walk.

The ready queue is ABA-free here because a node is enqueued exactly
once in its lifetime (the counter reaches zero exactly once).  The
per-class dict itself is only ever *grown*, by the single inserting
thread; entries of quiescent classes shrink to ``(None, ())`` as their
nodes are pruned on removal, but the keys stay — bounded by the key
space, the price of lock-free readers (see docs/scheduling.md).

Like every COS here, the algorithm is an effect generator: it runs
unchanged on OS threads, on the deterministic simulator, and under the
:mod:`repro.check` schedule-space explorer.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.command import Command, ConflictRelation
from repro.core.cos import COS, DEFAULT_MAX_SIZE, StructureCosts
from repro.core.effects import Cas, Down, Load, Store, Up, Work
from repro.core.node import EXECUTING, READY, REMOVED, WAITING, IndexedNode
from repro.core.runtime import EffectGen, Runtime
from repro.obs.registry import NULL_REGISTRY
from repro.obs.spans import span_key

__all__ = ["IndexedCOS"]


class _Sealed:
    """Sentinel stored in ``dep_me`` once a remover claims the dependents."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<sealed>"


_SEALED = _Sealed()

#: Index entry of a class nobody currently writes or reads.
_EMPTY_ENTRY = (None, ())


class _ReadySentinel:
    """Initial dummy node of the Michael–Scott ready queue.

    Only its ``qnext`` cell is ever touched; after the first dequeue the
    dummy role passes to dequeued :class:`IndexedNode` objects, whose
    ``qnext`` serves the same purpose.
    """

    __slots__ = ("qnext",)

    def __init__(self, runtime: Runtime):
        self.qnext = runtime.atomic(None)

    def __repr__(self) -> str:
        return "<ready-sentinel>"


class IndexedCOS(COS):
    """COS with per-conflict-class index and counter-based readiness."""

    def __init__(
        self,
        runtime: Runtime,
        conflicts: ConflictRelation,
        max_size: int = DEFAULT_MAX_SIZE,
        costs: StructureCosts = StructureCosts.zero(),
        obs=None,
    ):
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if not getattr(conflicts, "supports_footprint", False):
            raise ValueError(
                f"IndexedCOS requires a conflict relation that decomposes "
                f"into classes (supports_footprint=True); "
                f"{type(conflicts).__name__} does not")
        self._runtime = runtime
        self._conflicts = conflicts
        self._costs = costs
        self._space = runtime.semaphore(max_size)
        self._ready = runtime.semaphore(0)
        # class key -> atomic (last_writer, readers_since_last_write).
        # Grown only by the single inserting thread; read/CASed by removers.
        self._classes: Dict[Hashable, object] = {}
        # Michael–Scott FIFO of ready nodes: head points at the current
        # dummy, head's successor chain is the queue content.
        sentinel = _ReadySentinel(runtime)
        self._q_head = runtime.atomic(sentinel)
        self._q_tail = runtime.atomic(sentinel)
        self._next_seq = 0
        # Instrumentation (docs/observability.md); pure Python only — no
        # effects are added, so simulated schedules do not change.
        obs = obs if obs is not None else NULL_REGISTRY
        self._obs = obs
        self._obs_on = obs.enabled
        self._m_occupancy = obs.gauge("cos_graph_size")
        self._m_inserts = obs.counter("cos_inserts_total")
        self._m_gets = obs.counter("cos_gets_total")
        self._m_removes = obs.counter("cos_removes_total")
        self._m_restarts = obs.counter("cos_traversal_restarts_total")
        self._m_cas_retries = obs.counter("cos_cas_retries_total")
        self._m_space_wait = obs.histogram("cos_space_wait_seconds")
        self._m_ready_wait = obs.histogram("cos_ready_wait_seconds")
        self._m_insert_visits = obs.counter("cos_insert_visits_total")
        self._m_index_hits = obs.counter("cos_index_hits_total")
        self._m_pruned = obs.counter("cos_index_entries_pruned_total")

    # --------------------------------------------------- blocking layer API

    def insert(self, cmd: Command) -> EffectGen:
        """Wait for space, index-insert, publish readiness (Alg. 5 shape)."""
        obs_on = self._obs_on
        entered = self._obs.clock() if obs_on else 0.0
        yield Down(self._space)
        if obs_on:
            self._m_space_wait.observe(self._obs.clock() - entered)
        ready = yield from self._idx_insert(cmd)
        if obs_on:
            self._m_inserts.inc()
            self._m_occupancy.inc()
        if ready:
            yield Up(self._ready, ready)

    def get(self) -> EffectGen:
        """Wait for a ready node, then pop it off the ready stack."""
        obs_on = self._obs_on
        entered = self._obs.clock() if obs_on else 0.0
        yield Down(self._ready)
        if obs_on:
            self._m_ready_wait.observe(self._obs.clock() - entered)
        node = yield from self._pop_ready()
        if obs_on:
            self._m_gets.inc()
        return node

    def remove(self, handle: IndexedNode) -> EffectGen:
        """Seal, prune the index, release dependents, publish space."""
        freed = yield from self._idx_remove(handle)
        if self._obs_on:
            self._m_removes.inc()
            self._m_occupancy.dec()
        if freed:
            yield Up(self._ready, freed)
        yield Up(self._space)

    # --------------------------------------------------- index insert

    def _writer_candidates(
            self, writer: Optional[IndexedNode],
            readers: Tuple[IndexedNode, ...]) -> Tuple[IndexedNode, ...]:
        """Predecessors a *writer* of a class must wait for.

        A seam for seeded fault injection (:mod:`repro.check.mutants`);
        the correct answer is the last writer plus every reader since.
        """
        return ((writer,) if writer is not None else ()) + readers

    def _idx_insert(self, cmd: Command) -> EffectGen:
        """Insert via the class index; returns 1 if the node came out ready.

        Runs on the single scheduler thread (inserts are sequential), so
        growing ``self._classes`` and ``self._next_seq`` needs no
        synchronization; everything shared with getters/removers goes
        through atomic cells.
        """
        footprint = tuple(self._conflicts.footprint(cmd))
        node = IndexedNode(cmd, self._next_seq, self._runtime, footprint)
        self._next_seq += 1
        visit = self._costs.insert_visit
        backoff = self._costs.retry_backoff
        visits = 0
        linked = set()  # predecessor seqs, deduped across shared classes
        for class_key, writes in footprint:
            cell = self._classes.get(class_key)
            if cell is None:
                cell = self._runtime.atomic(_EMPTY_ENTRY)
                self._classes[class_key] = cell
            visits += 1
            if visit:
                yield Work(visit)
            # Publish the node in the entry first; the displaced entry
            # names the candidates to link to.  CAS loop: a concurrent
            # remover may be pruning itself out of the same entry.
            while True:
                entry = yield Load(cell)
                writer, readers = entry
                if writes:
                    new_entry = (node, ())
                else:
                    new_entry = (writer, readers + (node,))
                ok = yield Cas(cell, entry, new_entry)
                if ok:
                    break
                if self._obs_on:
                    self._m_cas_retries.inc()
                if backoff:
                    yield Work(backoff)
            if writes:
                candidates = self._writer_candidates(writer, readers)
            else:
                candidates = (writer,) if writer is not None else ()
            if self._obs_on and candidates:
                self._m_index_hits.inc()
            for pred in candidates:
                if pred.seq in linked:
                    continue
                linked.add(pred.seq)
                visits += 1
                if visit:
                    yield Work(visit)
                yield from self._link_edge(pred, node)
        if self._obs_on:
            self._m_insert_visits.inc(visits)
        # Drop the insertion guard — only now can the counter reach zero.
        freed = yield from self._adjust_pending(node, -1)
        return freed

    def _link_edge(self, pred: IndexedNode, node: IndexedNode) -> EffectGen:
        """Register ``pred -> node``, or skip it if ``pred`` sealed.

        The provisional increment happens *before* the node becomes
        visible in ``pred.dep_me``, so pred's remover can never decrement
        a count that was not already raised; the insertion guard keeps
        the compensating decrement on the sealed path from reaching zero.
        """
        edge = self._costs.edge
        backoff = self._costs.retry_backoff
        yield from self._adjust_pending(node, +1)
        while True:
            dependents = yield Load(pred.dep_me)
            if dependents is _SEALED:
                # pred's removal already claimed its dependents; it can
                # no longer block this node.
                yield from self._adjust_pending(node, -1)
                return
            ok = yield Cas(pred.dep_me, dependents, dependents + (node,))
            if ok:
                if edge:
                    yield Work(edge)
                node.deps_dbg.append(pred)
                return
            if self._obs_on:
                self._m_cas_retries.inc()
            if backoff:
                yield Work(backoff)

    # --------------------------------------------------- readiness / get

    def _adjust_pending(self, node: IndexedNode, delta: int) -> EffectGen:
        """Atomically add ``delta``; the decrement that reaches zero owns
        the ``wtg -> rdy`` transition and the ready-stack push.  Returns 1
        iff this call made ``node`` ready."""
        backoff = self._costs.retry_backoff
        while True:
            count = yield Load(node.pending)
            ok = yield Cas(node.pending, count, count + delta)
            if ok:
                break
            if self._obs_on:
                self._m_cas_retries.inc()
            if backoff:
                yield Work(backoff)
        if count + delta != 0:
            return 0
        ok = yield Cas(node.st, WAITING, READY)
        if not ok:
            # Exactly one decrement reaches zero, and only after the
            # insertion guard is gone; a failure here means the counter
            # protocol is broken.
            raise RuntimeError(f"{node!r} left wtg before its counter hit 0")
        yield from self._push_ready(node)
        if self._obs_on:
            self._obs.span(span_key(node.cmd), "ready")
        return 1

    def _push_ready(self, node: IndexedNode) -> EffectGen:
        """Michael–Scott enqueue; ABA-free because every node is enqueued
        exactly once, and dequeued nodes are never re-linked."""
        backoff = self._costs.retry_backoff
        while True:
            tail = yield Load(self._q_tail)
            nxt = yield Load(tail.qnext)
            if nxt is not None:
                # Tail lags behind; help swing it forward and retry.
                yield Cas(self._q_tail, tail, nxt)
                continue
            ok = yield Cas(tail.qnext, None, node)
            if ok:
                # Best-effort tail swing; a helper may already have done it.
                yield Cas(self._q_tail, tail, node)
                return
            if self._obs_on:
                self._m_cas_retries.inc()
            if backoff:
                yield Work(backoff)

    def _pop_ready(self) -> EffectGen:
        """Michael–Scott dequeue.  The caller holds a ``ready`` credit and
        every enqueue happens before the matching ``Up``, so the queue can
        only look empty for the duration of a concurrent dequeue race."""
        visit = self._costs.get_visit
        backoff = self._costs.retry_backoff
        while True:
            head = yield Load(self._q_head)
            nxt = yield Load(head.qnext)
            if nxt is None:
                if self._obs_on:
                    self._m_restarts.inc()
                if backoff:
                    yield Work(backoff)
                continue
            if visit:
                yield Work(visit)
            ok = yield Cas(self._q_head, head, nxt)
            if ok:
                # nxt is now the queue's dummy; it is also the dequeued
                # value, and its qnext stays linked for later dequeues.
                taken = yield Cas(nxt.st, READY, EXECUTING)
                if not taken:
                    raise RuntimeError(
                        f"dequeued {nxt!r} in state {nxt.st!r}, not rdy")
                return nxt
            if self._obs_on:
                self._m_cas_retries.inc()
            if backoff:
                yield Work(backoff)

    # --------------------------------------------------- remove

    def _idx_remove(self, node: IndexedNode) -> EffectGen:
        """Seal dependents, logically remove, prune the index, release."""
        backoff = self._costs.retry_backoff
        # 1. Seal: after this CAS no inserter can register another edge,
        #    so the snapshot is exactly the set of counters to decrement.
        while True:
            dependents = yield Load(node.dep_me)
            if dependents is _SEALED:
                raise LookupError(f"{node.cmd!r} removed twice")
            ok = yield Cas(node.dep_me, dependents, _SEALED)
            if ok:
                break
            if self._obs_on:
                self._m_cas_retries.inc()
            if backoff:
                yield Work(backoff)
        # 2. Logical removal — lifecycle parity with the lock-free graph
        #    (readiness itself rides on the counters, not on this store).
        yield Store(node.st, REMOVED)
        # 3. Prune the node out of its index entries so entries only ever
        #    reference live nodes (bounds the readers tuples).
        yield from self._prune_index(node)
        # 4. Release the dependents.
        visit = self._costs.remove_visit
        freed = 0
        for dependent in dependents:
            if visit:
                yield Work(visit)
            freed += yield from self._adjust_pending(dependent, -1)
        return freed

    def _prune_index(self, node: IndexedNode) -> EffectGen:
        backoff = self._costs.retry_backoff
        for class_key, _writes in node.footprint:
            cell = self._classes[class_key]
            while True:
                entry = yield Load(cell)
                writer, readers = entry
                if writer is node:
                    new_entry = (None, readers)
                elif node in readers:
                    new_entry = (writer,   # via a list: see lock_free.py
                                 tuple([r for r in readers if r is not node]))
                else:
                    break  # already displaced by a later writer
                ok = yield Cas(cell, entry, new_entry)
                if ok:
                    if self._obs_on:
                        self._m_pruned.inc()
                    break
                if self._obs_on:
                    self._m_cas_retries.inc()
                if backoff:
                    yield Work(backoff)

    # ------------------------------------------------------------ inspection

    def index_stats_unsafe(self) -> Tuple[int, int, int]:
        """(classes, live writer refs, live reader refs) from an
        unsynchronized read of the index.  Tests and debugging only."""
        classes = len(self._classes)
        writers = readers = 0
        for cell in self._classes.values():
            writer, reader_tuple = cell.value
            if writer is not None:
                writers += 1
            readers += len(reader_tuple)
        return classes, writers, readers
