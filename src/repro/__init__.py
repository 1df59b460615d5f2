"""repro — reproduction of "Boosting concurrency in Parallel State Machine
Replication" (Middleware '19).

The package implements the paper's Conflict-Ordered Set (COS) schedulers, a
from-scratch SMR stack (atomic broadcast, replicas, clients), the paper's
linked-list application, and a deterministic discrete-event simulator used to
regenerate every figure of the paper's evaluation.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro._lazy import exports
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SchedulerError,
    ShutdownError,
    SimulationError,
)

__version__ = "1.0.0"

#: The core names resolve on first use, through repro.core's own lazy
#: re-exports: ``import repro`` loads no scheduler.
__getattr__, __all__ = exports(__name__, {".core": (
    "Command", "ConflictRelation", "ReadWriteConflicts", "KeyedConflicts",
    "MultiKeyedConflicts", "NeverConflicts", "AlwaysConflicts",
    "PredicateConflicts", "COS", "COS_ALGORITHMS", "StructureCosts",
    "DEFAULT_MAX_SIZE", "CoarseGrainedCOS", "EarlyCOS", "EarlyConfig",
    "FineGrainedCOS", "LockFreeCOS", "SequentialCOS", "ThreadedCOS",
    "ThreadedRuntime", "make_cos",
)})

__all__ = ["__version__", *__all__, "ReproError", "ConfigurationError",
           "ProtocolError", "SimulationError", "SchedulerError",
           "ShutdownError"]
