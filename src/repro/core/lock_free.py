"""Lock-free DAG scheduler (paper Algorithms 5-7).

Two layers:

- A thin **blocking layer** (Alg. 5) of two counting semaphores — ``space``
  bounds the graph population, ``ready`` counts commands free to execute —
  so the lock-free layer only runs when its preconditions hold.
- A **lock-free layer** (Algs. 6-7) where nodes carry an atomic state cell
  (``wtg -> rdy -> exe -> rmd``), removal is *logical* (a single atomic store
  of ``rmd``, Alg. 7 l. 34), and physical unlinking happens lazily inside the
  next ``lfInsert`` via a helping step (``helpedRemove``, Alg. 7 l. 5-11).

Synchronization structure, as argued in the paper (§6.2.1):

- ``lfInsert`` is invoked sequentially (by the single scheduler thread), so
  *all topological modifications* (``nxt`` links, head pointer, ``dep_on`` /
  ``dep_me`` snapshots) are single-writer; concurrent ``lfGet``/``lfRemove``
  only read topology and CAS node states.
- ``testReady`` (Alg. 7 l. 1-4) checks that every dependency is logically
  removed and then CASes ``wtg -> rdy``; the CAS arbitrates between the
  insert thread and concurrent removers so each node is counted ready
  exactly once.
- ``lfGet`` walks the arrival-ordered list CASing ``rdy -> exe``; the CAS
  guarantees a command is returned at most once.

Documented divergences (see DESIGN.md):

- As with the fine-grained graph, a node can turn ready behind an in-flight
  ``lfGet`` traversal, so our ``get`` restarts from the head instead of
  walking off the end of the list.
- The paper's pseudocode adds ``depOn`` entries one by one during the insert
  traversal (Alg. 7 l. 22-23).  A concurrent ``lfRemove`` of an
  already-collected dependency can then observe a *prefix* of the dependency
  set and wrongly mark the node ready before its later conflicts are
  recorded — precisely the hazard §6.2 warns about.  We close it by keeping
  ``dep_on`` unpublished (``None``) during the traversal and publishing the
  complete set with a single atomic store right before linking the node;
  ``testReady`` treats an unpublished set as "not ready".
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.command import Command, ConflictRelation
from repro.core.cos import COS, DEFAULT_MAX_SIZE, StructureCosts
from repro.core.effects import Cas, Down, Load, Store, Up, Work
from repro.core.node import EXECUTING, READY, REMOVED, WAITING, LockFreeNode
from repro.core.runtime import EffectGen, Runtime
from repro.obs.registry import NULL_REGISTRY
from repro.obs.spans import span_key

__all__ = ["LockFreeCOS"]


class LockFreeCOS(COS):
    """COS implementation with nonblocking and lazy synchronization."""

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
        self._runtime = runtime
        self._conflicts = conflicts
        self._costs = costs
        self._space = runtime.semaphore(max_size)   # Alg. 5 l. 2
        self._ready = runtime.semaphore(0)          # Alg. 5 l. 3
        self._head = runtime.atomic(None)           # Alg. 6 l. 11 (N)
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

    # --------------------------------------------------- blocking layer API

    def insert(self, cmd: Command) -> EffectGen:
        """Alg. 5 ``insert``: wait for space, lfInsert, publish readiness."""
        obs_on = self._obs_on
        entered = self._obs.clock() if obs_on else 0.0
        yield Down(self._space)
        if obs_on:
            self._m_space_wait.observe(self._obs.clock() - entered)
        ready = yield from self._lf_insert(cmd)
        if obs_on:
            self._m_inserts.inc()
            self._m_occupancy.inc()
        if ready:
            yield Up(self._ready, ready)

    def get(self) -> EffectGen:
        """Alg. 5 ``get``: wait for a ready node, then lfGet."""
        obs_on = self._obs_on
        entered = self._obs.clock() if obs_on else 0.0
        yield Down(self._ready)
        if obs_on:
            self._m_ready_wait.observe(self._obs.clock() - entered)
        node = yield from self._lf_get()
        if obs_on:
            self._m_gets.inc()
        return node

    def remove(self, handle: LockFreeNode) -> EffectGen:
        """Alg. 5 ``remove``: lfRemove, then publish freed nodes and space."""
        ready = yield from self._lf_remove(handle)
        if self._obs_on:
            self._m_removes.inc()
            self._m_occupancy.dec()
        if ready:
            yield Up(self._ready, ready)
        yield Up(self._space)

    # --------------------------------------------------- lock-free layer

    def _test_ready(self, node: LockFreeNode) -> EffectGen:
        """Alg. 7 ``testReady``: 1 if this call made ``node`` ready.

        A ``None`` dependency set means the node's insert has not published
        its dependencies yet, so it cannot be declared ready (see
        :class:`~repro.core.node.LockFreeNode`).
        """
        deps = yield Load(node.dep_on)
        if deps is None:
            return 0
        for dep in deps:
            dep_st = yield Load(dep.st)
            if dep_st != REMOVED:
                return 0
        ok = yield Cas(node.st, WAITING, READY)
        if self._obs_on:
            if ok:
                self._obs.span(span_key(node.cmd), "ready")
            else:
                # Lost the wtg->rdy race to a concurrent remover/inserter.
                self._m_cas_retries.inc()
        return 1 if ok else 0

    def _helped_remove(self, prev: Optional[LockFreeNode],
                       node: LockFreeNode) -> EffectGen:
        """Alg. 7 ``helpedRemove``: physically unlink a logically removed
        node, clearing it from its dependents' ``dep_on`` snapshots.

        Runs only inside ``_lf_insert`` (the single topology writer).
        ``prev`` is the last non-removed node seen before ``node``, or
        ``None`` when ``node`` is the list head.
        """
        edge = self._costs.edge
        dependents = yield Load(node.dep_me)
        for dependent in dependents:
            dep_on = yield Load(dependent.dep_on)
            # An unpublished dependent (dep_on is None) needs no pruning:
            # its insert will publish the full set, and testReady skips
            # logically removed entries anyway.
            if dep_on is not None and node in dep_on:
                if edge:
                    yield Work(edge)
                # Via a list: tuple(<genexpr>) takes a 10-slot tuple off
                # one CPython free list and releases it into another size's,
                # ratcheting every list to its cap (~4 MB per replica).
                pruned = tuple([d for d in dep_on if d is not node])
                yield Store(dependent.dep_on, pruned)
        nxt = yield Load(node.nxt)
        if prev is None:
            yield Store(self._head, nxt)   # Alg. 7 l. 9 (LPrmv)
        else:
            yield Store(prev.nxt, nxt)     # Alg. 7 l. 11 (LPrmv)
        node.unlinked = True
        node.drop_dead_edges()

    def _lf_insert(self, cmd: Command) -> EffectGen:
        """Alg. 7 ``lfInsert``: traverse, help removals, collect conflicts,
        publish the node, report readiness."""
        node = LockFreeNode(cmd, self._next_seq, self._runtime)
        self._next_seq += 1
        visit = self._costs.insert_visit
        edge = self._costs.edge
        conflicts = self._conflicts.conflicts
        dep_acc: List[LockFreeNode] = []
        prev: Optional[LockFreeNode] = None
        visited = 0
        cur = yield Load(self._head)
        while cur is not None:
            visited += 1
            if visit:
                yield Work(visit)
            cur_st = yield Load(cur.st)
            if cur_st == REMOVED:
                yield from self._helped_remove(prev, cur)
                cur = yield Load(cur.nxt)
                continue
            if conflicts(cur.cmd, cmd):
                if edge:
                    yield Work(edge)
                dep_me = yield Load(cur.dep_me)
                yield Store(cur.dep_me, dep_me + (node,))
                dep_acc.append(cur)
            prev = cur
            cur = yield Load(cur.nxt)
        # Publish the complete dependency set before the node becomes
        # visible (paper §6.2 requires all edges to exist first, otherwise
        # the node could be wrongly considered ready).  Until this store,
        # dep_on is None and testReady refuses to mark the node ready.
        if self._obs_on:
            self._m_insert_visits.inc(visited)
        yield Store(node.dep_on, tuple(dep_acc))
        if prev is None:
            yield Store(self._head, node)  # Alg. 7 l. 15/25 (LPins)
        else:
            yield Store(prev.nxt, node)    # Alg. 7 l. 25 (LPins)
        ready = yield from self._test_ready(node)
        return ready

    def _lf_get(self) -> EffectGen:
        """Alg. 7 ``lfGet`` with restart-from-head (see module docstring)."""
        visit = self._costs.get_visit
        while True:
            cur = yield Load(self._head)
            while cur is not None:
                if visit:
                    yield Work(visit)
                ok = yield Cas(cur.st, READY, EXECUTING)  # LPget
                if ok:
                    return cur
                cur = yield Load(cur.nxt)
            # The ready node slipped behind the walk; restart from the head.
            if self._obs_on:
                self._m_restarts.inc()
            if self._costs.retry_backoff:
                yield Work(self._costs.retry_backoff)

    def _lf_remove(self, node: LockFreeNode) -> EffectGen:
        """Alg. 7 ``lfRemove``: logical removal + readiness propagation."""
        yield Store(node.st, REMOVED)  # LPlogicRmv
        visit = self._costs.remove_visit
        freed = 0
        dependents = yield Load(node.dep_me)
        for dependent in dependents:
            if visit:
                yield Work(visit)
            freed += yield from self._test_ready(dependent)
        node.swept = True
        node.drop_dead_edges()
        return freed

    # ------------------------------------------------------------ inspection

    def chain_stats_unsafe(self):
        """(live, logically_removed) node counts from an unsynchronized
        walk of the arrival list.  Tests and debugging only.

        Bounds the garbage lazy removal can accumulate: logically removed
        nodes persist only until the next insert traversal unlinks them,
        so the removed count can never exceed the population the last
        insert observed.
        """
        live = removed = 0
        node = self._head.value
        while node is not None:
            if node.st.value == REMOVED:
                removed += 1
            else:
                live += 1
            node = node.nxt.value
        return live, removed
