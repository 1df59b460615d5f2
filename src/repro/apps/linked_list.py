"""The paper's linked-list application (§7.2).

A readers-and-writers service over a singly linked list of integers:

- ``contains(i)`` — true iff ``i`` is in the list (read);
- ``add(i)`` — insert ``i`` if absent, returning whether it was inserted
  (write);
- ``contains-all(i, j, ...)`` / ``add-all(i, j, ...)`` — the multi-key
  forms, one membership test / insert per argument (used as the
  partition-crossing commands of :mod:`repro.groups` experiments).

Conflict model: ``contains`` commands do not conflict with each other but
conflict with ``add`` commands, which conflict with everything —
:class:`~repro.core.command.ReadWriteConflicts`.  Because the observable
state is a *set* (operations on different values commute), the service
also supports the finer per-key relation
(:class:`~repro.core.command.MultiKeyedConflicts`) via
``keyed_conflicts=True`` — the mode partitioned ordering requires, since a
single global conflict class cannot be split across groups
(docs/partitioning.md).

The list is a real pointer-chained structure and operations walk it node by
node, so execution cost genuinely scales with the initial population (1k /
10k / 100k entries for light / moderate / heavy), mirroring the paper's
cost classes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.command import (
    Command,
    ConflictRelation,
    MultiKeyedConflicts,
    ReadWriteConflicts,
    stable_hash,
)
from repro.smr.service import ShardableService

__all__ = ["LinkedListService", "READ_OP", "WRITE_OP", "MULTI_READ_OP",
           "MULTI_WRITE_OP"]

READ_OP = "contains"
WRITE_OP = "add"
#: Multi-key operations: the partition-crossing commands of
#: :mod:`repro.groups` experiments.
MULTI_READ_OP = "contains-all"
MULTI_WRITE_OP = "add-all"


class _ListNode:
    __slots__ = ("value", "nxt")

    def __init__(self, value: int, nxt: Optional["_ListNode"] = None):
        self.value = value
        self.nxt = nxt


class LinkedListService(ShardableService):
    """Singly linked list with ``contains``/``add`` commands."""

    def __init__(self, initial_size: int = 0, execution_cost: float = 0.0,
                 keyed_conflicts: bool = False):
        """Initialize with entries ``0 .. initial_size - 1`` (paper §7.2).

        Args:
            initial_size: Pre-populated entries.
            execution_cost: Mean per-command cost charged in simulation runs.
            keyed_conflicts: Use the per-key conflict relation (sound for
                the set semantics; required by partitioned ordering)
                instead of the paper's coarse readers/writers relation.
        """
        self._head: Optional[_ListNode] = None
        self._size = 0
        self._conflicts: ConflictRelation = (
            MultiKeyedConflicts() if keyed_conflicts
            else ReadWriteConflicts())
        self._execution_cost = execution_cost
        # Build back-to-front so the list reads 0, 1, 2, ...
        for value in range(initial_size - 1, -1, -1):
            self._head = _ListNode(value, self._head)
            self._size += 1

    # -------------------------------------------------------------- service

    def execute(self, command: Command) -> Any:
        if command.op == READ_OP:
            return self._contains(command.args[0])
        if command.op == WRITE_OP:
            return self._add(command.args[0])
        if command.op == MULTI_READ_OP:
            return tuple(self._contains(value) for value in command.args)
        if command.op == MULTI_WRITE_OP:
            return tuple(self._add(value) for value in command.args)
        raise ValueError(f"unknown linked-list operation {command.op!r}")

    @property
    def conflicts(self) -> ConflictRelation:
        return self._conflicts

    @property
    def execution_cost(self) -> float:
        return self._execution_cost

    def snapshot(self) -> List[int]:
        # Canonical encoding: sorted values.  The observable state is a set
        # (``contains``/``add`` are order-blind), and the internal chain
        # order is an execution artifact — sorting makes the serialized form
        # identical across processes and lets per-shard fragments recompose
        # to exactly the unsharded snapshot (docs/parallel_execution.md).
        return sorted(self._iter_values())

    def restore(self, snapshot: List[int]) -> None:
        self._head = None
        self._size = 0
        for value in reversed(snapshot):
            self._head = _ListNode(value, self._head)
            self._size += 1

    # ------------------------------------------------------------- sharding

    def shards_of(self, command: Command, n_shards: int) -> Tuple[int, ...]:
        """Every operation touches exactly its argument keys' shards.

        Under the default coarse relation an ``add`` still *schedules*
        against everything, but the state footprint is per-key, so the
        multiprocess engine never needs a barrier for this service; the
        multi-key forms span one shard per distinct argument.
        """
        return tuple(sorted({stable_hash(value) % n_shards
                             for value in command.args}))

    def snapshot_shard(self, shard: int, n_shards: int) -> List[int]:
        return sorted(value for value in self._iter_values()
                      if stable_hash(value) % n_shards == shard)

    def recompose_snapshots(self, fragments: Sequence[List[int]]) -> List[int]:
        merged: List[int] = []
        for fragment in fragments:
            merged.extend(fragment)
        return sorted(merged)

    # ------------------------------------------------------------ operations

    def _contains(self, value: int) -> bool:
        node = self._head
        while node is not None:
            if node.value == value:
                return True
            node = node.nxt
        return False

    def _add(self, value: int) -> bool:
        """Append ``value`` at the tail if absent (walks the whole list)."""
        if self._head is None:
            self._head = _ListNode(value)
            self._size += 1
            return True
        node = self._head
        while True:
            if node.value == value:
                return False
            if node.nxt is None:
                node.nxt = _ListNode(value)
                self._size += 1
                return True
            node = node.nxt

    def _remove(self, value: int) -> bool:
        """Unlink ``value`` if present (speculative rollback only).

        The replicated command set is insert-only; removal exists solely
        so an optimistic ``add`` can be undone (repro.spec).
        """
        node = self._head
        previous: Optional[_ListNode] = None
        while node is not None:
            if node.value == value:
                if previous is None:
                    self._head = node.nxt
                else:
                    previous.nxt = node.nxt
                self._size -= 1
                return True
            previous = node
            node = node.nxt
        return False

    # ----------------------------------------------------------- speculation

    def capture_undo(self, command: Command) -> Any:
        """Inverse record for speculative execution (repro.spec).

        One ``(value, was_present)`` pair per argument, read against the
        pre-state: rollback removes exactly the values the command
        inserted.  Duplicate arguments in ``add-all`` are safe — both
        pairs say "absent", and ``_remove`` of an already-removed value
        is a no-op.
        """
        if not command.writes:
            return None
        return tuple(
            (value, self._contains(value)) for value in command.args
        )

    def apply_undo(self, record: Any) -> None:
        if record is None:
            return
        for value, was_present in reversed(record):
            if not was_present:
                self._remove(value)

    # ------------------------------------------------------------ inspection

    def _iter_values(self):
        node = self._head
        while node is not None:
            yield node.value
            node = node.nxt

    def __len__(self) -> int:
        return self._size

    def __contains__(self, value: int) -> bool:
        return self._contains(value)
