"""Core package: the paper's contribution.

Contains the Conflict-Ordered Set (COS) abstract data type and its three
implementations — coarse-grained (Alg. 2), fine-grained lock coupling
(Algs. 3-4) and lock-free (Algs. 5-7) — plus the FIFO COS used by the
sequential-SMR baseline and the threaded runtime that executes them on OS
threads.
"""

from repro._lazy import exports
from repro.core.cos import DEFAULT_MAX_SIZE, StructureCosts

#: Resolved on first use (PEP 562): a replica loads only its scheduler.
__getattr__, __all__ = exports(__name__, {
    ".command": ("AlwaysConflicts", "Command", "ConflictRelation",
                 "KeyedConflicts", "MultiKeyedConflicts", "NeverConflicts",
                 "PredicateConflicts", "ReadWriteConflicts", "stable_hash"),
    ".class_based": ("ClassBasedCOS", "ClassConflicts",
                     "read_write_classes"),
    ".cos": ("COS",),
    ".coarse_grained": ("CoarseGrainedCOS",),
    ".early": ("EarlyCOS", "EarlyConfig", "EarlySchedule"),
    ".history": ("HistoryRecorder", "HistoryViolation", "RecordingCOS",
                 "check_history"),
    ".fine_grained": ("FineGrainedCOS",),
    ".indexed": ("IndexedCOS",),
    ".lock_free": ("LockFreeCOS",),
    ".sequential": ("SequentialCOS",),
    ".threaded": ("ThreadedCOS", "ThreadedRuntime"),
})
__all__ = [*__all__, "StructureCosts", "DEFAULT_MAX_SIZE", "make_cos",
           "COS_ALGORITHMS"]

#: Names accepted by :func:`make_cos`, in the order the paper presents them
#: (plus the class-based extension from the related-work line, the indexed
#: variant of the lock-free graph and the early/static schedulers,
#: docs/scheduling.md).
COS_ALGORITHMS = ("coarse-grained", "fine-grained", "lock-free", "indexed",
                  "sequential", "class-based", "early", "early-batched")

#: Algorithms that compile the conflict relation into per-class state and
#: therefore require ``supports_footprint=True``.
FOOTPRINT_ALGORITHMS = ("indexed", "early", "early-batched")


def make_cos(name, runtime, conflicts, max_size=DEFAULT_MAX_SIZE,
             costs=StructureCosts.zero(), classes_of=None, obs=None,
             workers=None, early_config=None):
    """Construct a COS implementation by its paper name.

    Args:
        name: One of :data:`COS_ALGORITHMS`.
        runtime: The runtime whose primitives the structure should use.
        conflicts: The application conflict relation (ignored by
            ``"sequential"``, which orders everything, and by
            ``"class-based"``, which derives conflicts from classes).
        max_size: Graph capacity (paper default: 150).
        costs: Structure cost model for simulation runs.
        classes_of: For ``"class-based"`` only — maps a command to its
            conflict classes; defaults to the single-class readers/writers
            model (:func:`read_write_classes`).
        obs: Optional :class:`repro.obs.MetricsRegistry` the graph
            structures and the early schedulers record into (occupancy,
            blocked-time, restarts, CAS retries, lane depths — see
            docs/observability.md).  ``None`` disables.
        workers: For ``"early"``/``"early-batched"`` only — number of
            execution lanes to compile the class map for (defaults to
            :data:`repro.core.early.DEFAULT_WORKERS`).
        early_config: For ``"early"``/``"early-batched"`` only — a full
            :class:`EarlyConfig`, overriding ``workers``.
    """
    if name in FOOTPRINT_ALGORITHMS and not getattr(
            conflicts, "supports_footprint", False):
        alternatives = tuple(a for a in COS_ALGORITHMS
                             if a not in FOOTPRINT_ALGORITHMS)
        raise ValueError(
            f"the {name!r} scheduler requires a conflict relation that "
            f"decomposes into classes (supports_footprint=True), but "
            f"{type(conflicts).__name__} does not; either give the "
            f"relation a footprint (see ConflictRelation.footprint) or "
            f"pick a pairwise scheduler: {alternatives}")
    # Each branch imports only its own scheduler.
    if name == "coarse-grained":
        from repro.core.coarse_grained import CoarseGrainedCOS
        return CoarseGrainedCOS(runtime, conflicts, max_size, costs, obs=obs)
    if name == "fine-grained":
        from repro.core.fine_grained import FineGrainedCOS
        return FineGrainedCOS(runtime, conflicts, max_size, costs, obs=obs)
    if name == "lock-free":
        from repro.core.lock_free import LockFreeCOS
        return LockFreeCOS(runtime, conflicts, max_size, costs, obs=obs)
    if name == "indexed":
        from repro.core.indexed import IndexedCOS
        return IndexedCOS(runtime, conflicts, max_size, costs, obs=obs)
    if name == "sequential":
        from repro.core.sequential import SequentialCOS
        return SequentialCOS(runtime, max_size, costs)
    if name == "class-based":
        from repro.core.class_based import ClassBasedCOS, read_write_classes
        return ClassBasedCOS(runtime, classes_of or read_write_classes(),
                             max_size, costs)
    if name in ("early", "early-batched"):
        from repro.core.early import DEFAULT_WORKERS, EarlyCOS, EarlyConfig
        config = early_config or EarlyConfig(
            workers=workers or DEFAULT_WORKERS,
            batched=(name == "early-batched"))
        return EarlyCOS(runtime, conflicts, max_size, costs,
                        config=config, obs=obs)
    raise ValueError(f"unknown COS algorithm {name!r}; expected one of {COS_ALGORITHMS}")
