"""Seeded-bug registries for checker self-validation.

This module holds the one registry of checkers behind ``repro check``: the
COS mutants below, and the protocol-level harnesses
(:func:`protocol_harnesses`), each with its own mutant registry.  Every
``--mutant`` name is resolved through :func:`mutant_class`.

The hand-broken lock-free COS variants:

A model checker that only ever passes on correct code proves nothing.  Each
mutant here reintroduces a real concurrency bug class that the paper's
algorithm design explicitly defends against, and the mutation tests assert
the checker catches every one within a bounded exploration budget:

- ``skip-cas-retry`` — ``lfGet`` skips the retry when its
  ``rdy -> exe`` CAS fails and returns the node anyway, discarding the
  arbitration of Alg. 7's LPget linearization point.  Two workers that both
  observe the node ready then both execute it: **double-get**.
- ``drop-helped-remove`` — ``lfInsert`` never performs the helping step
  (Alg. 7 l. 5-11), so logically removed nodes are never physically
  unlinked and the arrival list leaks without bound: **graph-leak** (the
  ``chain_stats_unsafe`` garbage bound).
- ``premature-publish`` — ``lfInsert`` publishes ``dep_on`` incrementally
  during its traversal instead of atomically at the end, reintroducing the
  §6.2 hazard the implementation closes: a concurrent ``lfRemove`` of an
  already-collected dependency observes a *prefix* of the dependency set
  and marks the node ready before its later conflicts are recorded:
  **conflict-order** (or a double readiness credit).
- ``drop-edges-at-unlink`` — ``lfRemove`` reports its sweep of ``dep_me``
  finished *before* loading it, so the unlinking ``helpedRemove`` alone
  releases the snapshot (:meth:`LockFreeNode.drop_dead_edges` waits for
  both): a remover that has stored ``rmd`` but not yet loaded ``dep_me``
  finds it empty and its dependents never turn ready: **deadlock**.
- ``indexed-skip-reader-tracking`` — the indexed COS's writer insert
  consults only the conflict class's last writer and ignores the readers
  recorded since that write, so a new writer never orders after live
  readers it conflicts with and can execute concurrently with them:
  **conflict-order**.  This is exactly the bug the per-class
  ``(last_writer, readers)`` index entry exists to prevent.
- ``early-skip-barrier`` — the early scheduler enqueues a multi-lane
  (worker-set barrier) command into only the *first* lane of its set, so
  a cross-class write never rendezvouses with the other lanes and can
  execute concurrently with conflicting commands queued there:
  **conflict-order**.  The barrier over the class's whole worker set is
  the one mechanism by which early scheduling orders a write against the
  readers spread round-robin across that set.
"""

from __future__ import annotations

import functools
import importlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.command import Command, ConflictRelation
from repro.core.cos import COS, StructureCosts
from repro.core.early import DEFAULT_WORKERS, EarlyConfig, EarlyCOS
from repro.core.effects import Cas, Load, Store
from repro.core.indexed import IndexedCOS
from repro.core.lock_free import LockFreeCOS
from repro.core.node import EXECUTING, READY, REMOVED, LockFreeNode
from repro.core.runtime import EffectGen, Runtime

if TYPE_CHECKING:
    from repro.check.explorer import DecisionHarness

__all__ = ["MUTANTS", "harness_of", "make_mutant", "mutant_class",
           "protocol_harnesses"]


class SkipCasRetryCOS(LockFreeCOS):
    """lfGet that treats a failed ``rdy -> exe`` CAS as a success."""

    def _lf_get(self) -> EffectGen:
        while True:
            cur = yield Load(self._head)
            while cur is not None:
                st = yield Load(cur.st)
                if st == READY:
                    # BUG: the CAS result is ignored — the retry that makes
                    # concurrent getters agree on a single winner is skipped.
                    yield Cas(cur.st, READY, EXECUTING)
                    return cur
                cur = yield Load(cur.nxt)


class DropHelpedRemoveCOS(LockFreeCOS):
    """lfInsert that never helps: removed nodes stay linked forever."""

    def _lf_insert(self, cmd: Command) -> EffectGen:
        node = LockFreeNode(cmd, self._next_seq, self._runtime)
        self._next_seq += 1
        conflicts = self._conflicts.conflicts
        dep_acc: List[LockFreeNode] = []
        prev: Optional[LockFreeNode] = None
        cur = yield Load(self._head)
        while cur is not None:
            cur_st = yield Load(cur.st)
            # BUG: a logically removed node is skipped for conflicts but is
            # never physically unlinked (no helpedRemove), so the arrival
            # list — and every traversal over it — grows without bound.
            if cur_st != REMOVED and conflicts(cur.cmd, cmd):
                dep_me = yield Load(cur.dep_me)
                yield Store(cur.dep_me, dep_me + (node,))
                dep_acc.append(cur)
            prev = cur
            cur = yield Load(cur.nxt)
        yield Store(node.dep_on, tuple(dep_acc))
        if prev is None:
            yield Store(self._head, node)
        else:
            yield Store(prev.nxt, node)
        ready = yield from self._test_ready(node)
        return ready


class PrematurePublishCOS(LockFreeCOS):
    """lfInsert that publishes the dependency set one edge at a time."""

    def _lf_insert(self, cmd: Command) -> EffectGen:
        node = LockFreeNode(cmd, self._next_seq, self._runtime)
        self._next_seq += 1
        conflicts = self._conflicts.conflicts
        # BUG: dep_on starts published (empty) and grows during the
        # traversal — exactly the paper's §6.2 hazard.  A remover of an
        # already-collected dependency can testReady this node against a
        # prefix of its true dependency set and wrongly mark it ready.
        yield Store(node.dep_on, ())
        prev: Optional[LockFreeNode] = None
        cur = yield Load(self._head)
        while cur is not None:
            cur_st = yield Load(cur.st)
            if cur_st == REMOVED:
                yield from self._helped_remove(prev, cur)
                cur = yield Load(cur.nxt)
                continue
            if conflicts(cur.cmd, cmd):
                dep_me = yield Load(cur.dep_me)
                yield Store(cur.dep_me, dep_me + (node,))
                dep_on = yield Load(node.dep_on)
                yield Store(node.dep_on, dep_on + (cur,))
            prev = cur
            cur = yield Load(cur.nxt)
        if prev is None:
            yield Store(self._head, node)
        else:
            yield Store(prev.nxt, node)
        ready = yield from self._test_ready(node)
        return ready


class DropEdgesAtUnlinkCOS(LockFreeCOS):
    """lfRemove whose ``dep_me`` can be dropped under it at unlink."""

    def _lf_remove(self, node: LockFreeNode) -> EffectGen:
        yield Store(node.st, REMOVED)
        # BUG: "swept" is claimed before dep_me is even loaded, so an
        # insert that unlinks the node in between empties the snapshot
        # and the dependents below are never tested.
        node.swept = True
        freed = 0
        dependents = yield Load(node.dep_me)
        for dependent in dependents:
            freed += yield from self._test_ready(dependent)
        return freed


class IndexedSkipReaderTrackingCOS(IndexedCOS):
    """Indexed insert whose writers ignore the readers of their class."""

    def _writer_candidates(self, writer, readers):
        # BUG: the readers recorded since the class's last write are
        # dropped, so a new writer orders only after the displaced writer
        # and can execute concurrently with live readers it conflicts
        # with — the violation the (last_writer, readers) entry prevents.
        return (writer,) if writer is not None else ()


class EarlySkipBarrierCOS(EarlyCOS):
    """Early scheduler whose barrier commands take only their first lane."""

    def _barrier_lanes(self, lanes: Tuple[int, ...]) -> Tuple[int, ...]:
        # BUG: the worker-set barrier is skipped — the command waits for
        # (and blocks) only the first lane of its set, so it can execute
        # while conflicting commands in the other lanes are still live.
        return lanes[:1]


MUTANTS = {
    "skip-cas-retry": SkipCasRetryCOS,
    "drop-helped-remove": DropHelpedRemoveCOS,
    "premature-publish": PrematurePublishCOS,
    "drop-edges-at-unlink": DropEdgesAtUnlinkCOS,
    "indexed-skip-reader-tracking": IndexedSkipReaderTrackingCOS,
    "early-skip-barrier": EarlySkipBarrierCOS,
}


#: The protocol-level harness modules, in ``repro check`` order; each
#: exports ``HARNESS``.  Imported on first use, because they import this
#: module for :func:`mutant_class`.
_HARNESS_MODULES = ("paxos_lease", "groups_rendezvous", "spec_rollback")


@functools.lru_cache(maxsize=None)
def protocol_harnesses() -> Dict[str, "DecisionHarness"]:
    """``--algorithm`` name -> protocol-level harness."""
    harnesses = [importlib.import_module(f"repro.check.{module}").HARNESS
                 for module in _HARNESS_MODULES]
    return {harness.name: harness for harness in harnesses}


def harness_of(config: Any) -> "DecisionHarness":
    """The protocol-level harness whose config ``config`` is."""
    for harness in protocol_harnesses().values():
        if isinstance(config, harness.config):
            return harness
    raise TypeError(f"no protocol harness checks {type(config).__name__}")


def mutant_class(registry: Dict[str, type], name: Optional[str],
                 real: type) -> type:
    """``real``, or the seeded-bug variant ``name`` from ``registry``."""
    if name is None:
        return real
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; expected one of "
            f"{sorted(registry)}") from None


def make_mutant(name: str, runtime: Runtime, conflicts: ConflictRelation,
                max_size: int, workers: Optional[int] = None) -> COS:
    """Instantiate a named mutant (a lock-free, indexed or early variant)."""
    cls = mutant_class(MUTANTS, name, LockFreeCOS)
    if issubclass(cls, EarlyCOS):
        config = EarlyConfig(workers=workers or DEFAULT_WORKERS)
        return cls(runtime, conflicts, max_size, StructureCosts.zero(),
                   config=config)
    return cls(runtime, conflicts, max_size, StructureCosts.zero())
