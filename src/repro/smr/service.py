"""Application service interface for state machine replication.

A service is a deterministic state machine (paper §3.1): ``execute`` must
be a pure function of the current state and the command.  The service also
owns the application's conflict knowledge: the scheduler asks it which
commands conflict, and the COS serializes exactly those.

Thread-safety contract: the replica guarantees that two commands execute
concurrently only if the service declared them non-conflicting, so
``execute`` needs no internal locking as long as the conflict relation is
sound (e.g. read-only commands may overlap).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Sequence, Tuple

from repro.core.command import Command, ConflictRelation

__all__ = ["Service", "ShardableService", "ALL_SHARDS", "error_response"]

#: Sentinel returned by :meth:`ShardableService.shards_of` for commands that
#: touch every shard (global reads, administrative operations).
ALL_SHARDS: Tuple[int, ...] = ()


def error_response(error_type: str, message: str) -> str:
    """The response of a command its service raised on.

    A service is deterministic, so every replica raises the same error on
    the same command and answers the same text; a string crosses the wire
    codec.  The replica answers it and its worker lives on.
    """
    return f"error: {error_type}: {message}"


class Service(ABC):
    """Deterministic, conflict-aware application state machine."""

    @abstractmethod
    def execute(self, command: Command) -> Any:
        """Apply ``command`` and return its response.  Must be deterministic."""

    @property
    @abstractmethod
    def conflicts(self) -> ConflictRelation:
        """The service's conflict relation, used by the scheduler."""

    @property
    def execution_cost(self) -> float:
        """Mean virtual-seconds per command for simulation runs.

        Threaded replicas ignore this (real execution takes real time);
        the simulated cluster charges it per command.
        """
        return 0.0

    def snapshot(self) -> Any:
        """Serializable copy of the full service state (checkpointing,
        replica consistency checks).  Override for efficiency."""
        raise NotImplementedError(f"{type(self).__name__} does not snapshot")

    def restore(self, snapshot: Any) -> None:
        """Replace the service state with a snapshot from a peer."""
        raise NotImplementedError(f"{type(self).__name__} does not restore")


class ShardableService(Service):
    """A service whose state partitions into key-disjoint shards.

    This is the contract behind the multiprocess execution engine
    (:mod:`repro.par`, docs/parallel_execution.md): each worker process owns
    one shard of the state, single-shard commands run truly in parallel, and
    commands spanning several shards execute under a barrier round.  It is
    the state-partitioning move of P-SMR (Marandi & Pedone) applied to this
    codebase's services.

    Contract:

    - :meth:`shards_of` must be a pure function of the command (no state),
      identical in every process — use a *stable* hash, never the builtin
      ``hash`` (``PYTHONHASHSEED`` varies across interpreters).
    - A command's read/write footprint must be contained in the union of the
      shards it reports; the conflict relation must remain sound regardless
      of sharding.
    - Shard fragments use the *same encoding* as full snapshots (a subset of
      the state), so ``restore`` of a fragment yields a correct shard-local
      instance and :meth:`recompose_snapshots` of all fragments equals the
      unsharded :meth:`snapshot`.
    """

    @abstractmethod
    def shards_of(self, command: Command, n_shards: int) -> Tuple[int, ...]:
        """Shard indices ``command`` touches, or :data:`ALL_SHARDS`.

        A one-element tuple marks a single-shard command (the common, fully
        parallel case); more elements — or the empty :data:`ALL_SHARDS`
        sentinel — route the command through a barrier round.
        """

    @abstractmethod
    def snapshot_shard(self, shard: int, n_shards: int) -> Any:
        """Snapshot of the state owned by ``shard`` (full-snapshot encoding)."""

    def restore_shard(self, shard: int, n_shards: int, fragment: Any) -> None:
        """Adopt ``fragment`` as this instance's (shard-local) state.

        Fragments share the full-snapshot encoding, so the default simply
        restores; services with shard-indexed internal layouts may override.
        """
        self.restore(fragment)

    @abstractmethod
    def recompose_snapshots(self, fragments: Sequence[Any]) -> Any:
        """Merge per-shard fragments back into one canonical full snapshot.

        ``recompose_snapshots([snapshot_shard(s, n) for s in range(n)])``
        must equal :meth:`snapshot` of the unsharded service.
        """

    def split_snapshot(self, snapshot: Any, n_shards: int) -> List[Any]:
        """Partition a full snapshot into per-shard fragments.

        Default implementation: restore the snapshot into this instance and
        carve it with :meth:`snapshot_shard`.  Intended for template
        instances (it overwrites state).
        """
        self.restore(snapshot)
        return [self.snapshot_shard(shard, n_shards)
                for shard in range(n_shards)]
