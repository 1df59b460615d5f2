"""Optimistic (speculative) execution pipeline.

Implements the *Optimistic Parallel State-Machine Replication* idea
(PAPERS.md, arXiv 1404.6721) on top of the existing replica machinery:
commands are executed as soon as the sequencer's optimistic delivery
guesses their position, an undo record is captured before every
speculative execution, and responses are withheld until the conservative
order confirms the guess.  A confirmed prefix commits (undo records
dropped, responses released); a mismatch rolls the divergent suffix back
in reverse speculation order and re-executes in the confirmed order.

Layout:

- :mod:`repro.spec.undo` — undo-record capture/apply (per-app inverse
  ops with a generic touched-shard snapshot fallback);
- :mod:`repro.spec.engine` — the pure commit/rollback core
  (:class:`SpeculationEngine`), runtime-agnostic and model-checkable;
- :mod:`repro.spec.replica` — :class:`SpeculativeReplica`, the threaded
  replica that wires optimistic deliveries through the COS;
- :mod:`repro.spec.sim` — deterministic DES of the full pipeline for
  latency/throughput measurement and the differential suite.

See docs/speculation.md for the protocol and the rollback safety
argument.
"""

from repro.spec.engine import ConfirmResult, SpecEntry, SpeculationEngine
from repro.spec.replica import SpeculativeReplica
from repro.spec.undo import ServiceUndo, SnapshotUndo, UndoProvider

__all__ = [
    "ConfirmResult",
    "SpecEntry",
    "SpeculationEngine",
    "SpeculativeReplica",
    "ServiceUndo",
    "SnapshotUndo",
    "UndoProvider",
]
