"""Graph node records used by the COS implementations.

Each COS implementation stores commands in *nodes* of a dependency DAG whose
edges point from older commands to the newer commands that conflict with
them (paper §3.2).  Node statuses follow the paper's life cycle:

``WAITING`` (wtg) -> ``READY`` (rdy) -> ``EXECUTING`` (exe) -> ``REMOVED`` (rmd)

The coarse- and fine-grained graphs only materialize ``WAITING``/``EXECUTING``
(readiness is recomputed from incoming edges, Algs. 2 and 4), while the
lock-free graph materializes all four states in an atomic cell (Alg. 6).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.core.command import Command
from repro.core.runtime import Runtime

__all__ = [
    "WAITING",
    "READY",
    "EXECUTING",
    "REMOVED",
    "CoarseNode",
    "FineNode",
    "LockFreeNode",
    "IndexedNode",
]

WAITING = "wtg"
READY = "rdy"
EXECUTING = "exe"
REMOVED = "rmd"


class CoarseNode:
    """Node of the coarse-grained DAG (Alg. 2).

    All fields are guarded by the graph's single monitor lock, so plain
    attributes suffice.
    """

    __slots__ = ("cmd", "seq", "status", "deps_in", "deps_out")

    def __init__(self, cmd: Command, seq: int):
        self.cmd = cmd
        self.seq = seq
        self.status = WAITING
        # Nodes this one depends on (incoming edges) / that depend on it.
        # deps_out is an insertion-ordered dict used as an ordered set so
        # that remove() iterates dependents deterministically (plain sets
        # iterate in id-hash order, which varies across runs and would break
        # simulation determinism).
        self.deps_in: Set["CoarseNode"] = set()
        self.deps_out: Dict["CoarseNode", None] = {}

    def __repr__(self) -> str:
        return f"CoarseNode(seq={self.seq}, {self.status}, {self.cmd!r})"


class FineNode:
    """Node of the fine-grained, hand-over-hand locked DAG (Algs. 3-4).

    Every node carries its own mutex; a walker must hold a node's mutex to
    read or write ``status``, ``deps_in`` or ``nxt`` (the successor link of
    the delivery-ordered list).  Sentinel nodes carry no command.
    """

    __slots__ = ("cmd", "seq", "mutex", "status", "deps_in", "nxt", "sentinel")

    def __init__(self, cmd: Optional[Command], seq: int, runtime: Runtime,
                 sentinel: bool = False):
        self.cmd = cmd
        self.seq = seq
        self.mutex = runtime.mutex()
        self.status = WAITING
        self.deps_in: Set["FineNode"] = set()
        self.nxt: Optional["FineNode"] = None
        self.sentinel = sentinel

    def __repr__(self) -> str:
        kind = "sentinel" if self.sentinel else self.status
        return f"FineNode(seq={self.seq}, {kind}, {self.cmd!r})"


class LockFreeNode:
    """Node of the lock-free DAG (Alg. 6).

    ``st`` is the atomic state cell driven by compare-and-set; ``dep_on`` and
    ``dep_me`` hold immutable snapshots (tuples) inside atomic cells so that
    concurrent readers always observe a consistent set while the single
    insert thread publishes new snapshots; ``nxt`` is the atomic successor
    reference in arrival order (Alg. 6, line 7).

    ``dep_on`` starts as ``None`` — *unpublished*.  While the insert is still
    traversing the graph, a concurrent ``lfRemove`` of an already-collected
    dependency could otherwise observe a prefix of the dependency set and
    wrongly mark this node ready before its remaining conflicts are recorded
    (the hazard the paper flags in §6.2: "a node could be wrongly considered
    ready for execution due to missing dependencies under insertion").
    ``testReady`` treats ``None`` as "not ready"; the insert publishes the
    complete tuple immediately before linking the node.

    ``swept`` (the remover finished iterating ``dep_me``) and ``unlinked``
    (by the insert thread) are plain flags for :meth:`drop_dead_edges`.
    """

    __slots__ = ("cmd", "seq", "st", "dep_on", "dep_me", "nxt",
                 "swept", "unlinked")

    def __init__(self, cmd: Command, seq: int, runtime: Runtime):
        self.cmd = cmd
        self.seq = seq
        self.st = runtime.atomic(WAITING)
        self.dep_on = runtime.atomic(None)  # None = dependency set unpublished
        self.dep_me = runtime.atomic(())
        self.nxt = runtime.atomic(None)
        self.swept = self.unlinked = False

    def drop_dead_edges(self) -> None:
        """Release ``dep_me`` once no effect can read it again.

        A removed node stays reachable through the ``nxt`` of every older
        handle held anywhere, and so would its up-to-``max_size``-entry
        snapshot.  Its last two readers are the remover's ``lfRemove`` and
        the unlinking ``helpedRemove``; whichever finishes second drops it.
        At unlink alone, a remover that has stored ``rmd`` but not yet
        loaded ``dep_me`` would find it empty and never wake its
        dependents; at remover-end alone, ``helpedRemove`` would find
        nothing to prune and ``dep_on`` would pin the removed nodes instead
        (pruned as it is, ``dep_on`` reaches ``()`` by itself).  Each caller
        sets its own flag *before* calling, so under any interleaving the
        later one — or both — sees both.  A plain write, not a ``Store``:
        nothing loads the cell afterwards, so no schedule can observe it.
        """
        if self.swept and self.unlinked:
            self.dep_me.value = ()

    def __repr__(self) -> str:
        return f"LockFreeNode(seq={self.seq}, {self.cmd!r})"


class IndexedNode:
    """Node of the indexed lock-free DAG (:mod:`repro.core.indexed`).

    ``st`` follows the same four-state life cycle as the lock-free graph,
    but readiness is driven by ``pending`` — an atomic count of conflicting
    predecessors still in the structure (plus one *insertion guard* held by
    the inserting thread, so the node cannot turn ready while its edges are
    still being registered).  ``dep_me`` holds the dependents tuple until
    the node's remover *seals* it (swaps in a sentinel), atomically claiming
    the set of nodes whose counters it must decrement; an inserter that
    finds the seal knows the predecessor can no longer block it.  ``qnext``
    links the node into the lock-free FIFO ready queue.  ``footprint`` is
    the conflict-class footprint captured at insert, needed to prune the
    node from its index entries on removal.  ``deps_dbg`` records the
    predecessors an edge was registered to — plain data for tests, never
    read by the algorithm.
    """

    __slots__ = ("cmd", "seq", "footprint", "st", "pending", "dep_me",
                 "qnext", "deps_dbg")

    def __init__(self, cmd: Command, seq: int, runtime: Runtime,
                 footprint: tuple = ()):
        self.cmd = cmd
        self.seq = seq
        self.footprint = footprint
        self.st = runtime.atomic(WAITING)
        self.pending = runtime.atomic(1)  # 1 = the insertion guard
        self.dep_me = runtime.atomic(())
        self.qnext = runtime.atomic(None)
        self.deps_dbg: list = []

    def __repr__(self) -> str:
        return f"IndexedNode(seq={self.seq}, {self.cmd!r})"


def _unused(*_: Any) -> None:  # pragma: no cover - placating linters
    pass
