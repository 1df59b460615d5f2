"""Randomized checking of the cross-partition rendezvous merge rule.

The COS checker (:mod:`repro.check.harness`) enumerates thread schedules
and the lease harness (:mod:`repro.check.paxos_lease`) walks clock/network
interleavings; the partitioned-ordering hazard is different again: every
replica consumes the *same* per-group consensus logs, but each replica
interleaves the groups' streams in its own order.  The merge rule
(:class:`~repro.groups.merge.GroupMerger`) must make the per-class release
order — and every cross-partition command's merged position — a pure
function of the group logs, independent of that interleaving
(docs/partitioning.md).

This harness drives ``n_replicas`` pure mergers over shared per-group logs
under a seeded random walk with an explicit decision vocabulary:

=============== ======================================================
``sp:K``        append a single-partition write on key ``K`` to its
                owning group's log
``xp:K1-K2``    append a (usually) cross-partition write on two keys —
                one rendezvous marker per involved group's log
``dup:G``       re-append group ``G``'s most recent marker (at-least-once
                client retransmission reaching one group twice)
``adv:R,G``     replica ``R`` consumes the next item of group ``G``'s log
=============== ======================================================

Decisions that cannot apply (advancing past the end of a log, ``dup`` with
no marker) are deterministic no-ops, so recorded decision lists replay
bit-for-bit.  Four oracles run as the walk progresses:

- **position-divergence**: two replicas assign different merged positions
  to the same command;
- **class-divergence**: one conflict class's release history at some
  replica is not a prefix of another replica's (conflicting commands
  released in different orders);
- **fifo-violation**: within one replica, releases anchored in a group do
  not follow that group's consensus order (merged-position monotonicity);
- **incomplete-merge** (end of run): after every replica consumed every
  log in full, a merger still holds unreleased items, or the replicas'
  final positions/histories differ anywhere.

Checker self-validation uses :data:`GROUPS_MUTANTS` — seeded merge bugs
the walk must catch within a bounded budget (``groups-skip-hold`` releases
a rendezvous as soon as any one copy surfaces; see
tests/test_groups_check.py, tests/test_check_harnesses.py).  The walk, the
ddmin shrinker and the replay files (``"harness": "groups-rendezvous"``)
are the ones every :class:`~repro.check.explorer.DecisionHarness` shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.check.explorer import DecisionHarness
from repro.check.mutants import mutant_class
from repro.check.oracle import Violation
from repro.core.command import Command, MultiKeyedConflicts
from repro.errors import SimulationError
from repro.groups.merge import Emission, GroupMerger, SkipHoldMerger
from repro.groups.messages import Rendezvous, rendezvous_xid
from repro.groups.partition import PartitionMap

__all__ = [
    "GROUPS_MUTANTS",
    "GroupsCheckConfig",
    "HARNESS",
    "RendezvousHarness",
    "generate_schedule",
]

#: Rendezvous-harness mutants (their names are disjoint from every other
#: registry's, so ``--mutant`` alone selects the harness).
GROUPS_MUTANTS = {
    "groups-skip-hold": SkipHoldMerger,
}


@dataclass
class GroupsCheckConfig:
    """Parameters of one rendezvous-harness run (fully determines it)."""

    n_groups: int = 2
    n_replicas: int = 3
    key_space: int = 8
    schedule_length: int = 100
    mutant: Optional[str] = None

    def describe(self) -> str:
        return (f"groups={self.n_groups} replicas={self.n_replicas} "
                f"keys={self.key_space} length={self.schedule_length}")


class RendezvousHarness:
    """``n_replicas`` mergers consuming shared per-group consensus logs."""

    def __init__(self, config: GroupsCheckConfig):
        self.config = config
        self.conflicts = MultiKeyedConflicts()
        self.partition_map = PartitionMap(self.conflicts, config.n_groups)
        merger = mutant_class(GROUPS_MUTANTS, config.mutant, GroupMerger)
        self.mergers: List[GroupMerger] = [
            merger(config.n_groups, record_history=True,
                   conflicts=self.conflicts)
            for _ in range(config.n_replicas)
        ]
        #: The groups' consensus orders — one shared log per group; every
        #: replica consumes the same logs (that is what consensus gives).
        self.logs: List[List[Any]] = [[] for _ in range(config.n_groups)]
        self.cursors: List[List[int]] = [
            [0] * config.n_groups for _ in range(config.n_replicas)]
        self._seq = 0
        #: Per replica: anchor group -> index of its latest release there
        #: (merged positions must be monotone per anchor group).
        self._last_index: List[Dict[int, int]] = [
            {} for _ in range(config.n_replicas)]

    # ------------------------------------------------------------ commands

    def _command(self, keys: Tuple[int, ...]) -> Command:
        self._seq += 1
        return Command(
            op="add-all" if len(keys) > 1 else "add",
            args=keys,
            client_id="chk",
            request_id=self._seq,
            writes=True,
        )

    def _append(self, keys: Tuple[int, ...]) -> None:
        command = self._command(keys)
        groups = self.partition_map.groups_of(command)
        if len(groups) == 1:
            self.logs[groups[0]].append(command)
            return
        marker = Rendezvous(rendezvous_xid(command), groups, command)
        for group in groups:
            self.logs[group].append(marker)

    # ------------------------------------------------------------ decisions

    def apply(self, decision: str, step: int) -> Optional[Violation]:
        """Apply one decision; returns the first violation observed."""
        op, _, arg = decision.partition(":")
        if op == "sp":
            self._append((int(arg) % self.config.key_space,))
        elif op == "xp":
            first, _, second = arg.partition("-")
            k1 = int(first) % self.config.key_space
            k2 = int(second) % self.config.key_space
            self._append((k1,) if k1 == k2 else (k1, k2))
        elif op == "dup":
            log = self.logs[int(arg) % self.config.n_groups]
            marker = next((item for item in reversed(log)
                           if isinstance(item, Rendezvous)), None)
            if marker is not None:
                log.append(marker)
        elif op == "adv":
            replica_s, _, group_s = arg.partition(",")
            replica = int(replica_s) % self.config.n_replicas
            group = int(group_s) % self.config.n_groups
            violation = self._advance(replica, group, step)
            if violation is not None:
                return violation
        else:
            raise SimulationError(f"unknown decision {decision!r}")
        return self._check_agreement(step)

    def _advance(self, replica: int, group: int,
                 step: Optional[int]) -> Optional[Violation]:
        cursor = self.cursors[replica][group]
        if cursor >= len(self.logs[group]):
            return None  # nothing left: deterministic no-op
        self.cursors[replica][group] = cursor + 1
        emissions = self.mergers[replica].offer(
            group, self.logs[group][cursor])
        return self._check_fifo(replica, emissions, step)

    # -------------------------------------------------------------- oracles

    def _check_fifo(self, replica: int, emissions: List[Emission],
                    step: Optional[int]) -> Optional[Violation]:
        last = self._last_index[replica]
        for emission in emissions:
            anchor, index = emission.position
            previous = last.get(anchor)
            if previous is not None and index <= previous:
                return Violation(
                    "fifo-violation",
                    f"replica {replica} released position "
                    f"{emission.position} after index {previous} of group "
                    f"{anchor} was already released",
                    step)
            last[anchor] = index
        return None

    def _check_agreement(self, step: Optional[int]) -> Optional[Violation]:
        positions = [merger.positions for merger in self.mergers]
        for replica, mine in enumerate(positions):
            for other in range(replica + 1, len(positions)):
                theirs = positions[other]
                for key, position in mine.items():
                    recorded = theirs.get(key)
                    if recorded is not None and recorded != position:
                        return Violation(
                            "position-divergence",
                            f"command {key} merged at {position} on "
                            f"replica {replica} but {recorded} on replica "
                            f"{other}",
                            step)
        histories = [merger.class_history for merger in self.mergers]
        classes = set()
        for history in histories:
            classes.update(history)
        for class_key in classes:
            per_replica = [history.get(class_key, [])
                           for history in histories]
            reference = max(per_replica, key=len)
            for replica, history in enumerate(per_replica):
                if history != reference[:len(history)]:
                    return Violation(
                        "class-divergence",
                        f"class {class_key!r} released as {history} on "
                        f"replica {replica}, not a prefix of {reference}",
                        step)
        return None

    def finish(self, step: int) -> Optional[Violation]:
        """Force-drain every replica and check end-of-run completeness."""
        for replica in range(self.config.n_replicas):
            for group in range(self.config.n_groups):
                while self.cursors[replica][group] < len(self.logs[group]):
                    violation = self._advance(replica, group, step)
                    if violation is not None:
                        return violation
        violation = self._check_agreement(step)
        if violation is not None:
            return violation
        for replica, merger in enumerate(self.mergers):
            if not merger.idle():
                return Violation(
                    "incomplete-merge",
                    f"replica {replica} still holds unreleased items after "
                    f"consuming every group log in full",
                    step)
        reference = self.mergers[0]
        for replica, merger in enumerate(self.mergers[1:], start=1):
            if merger.positions != reference.positions:
                return Violation(
                    "position-divergence",
                    f"final merged positions differ between replica 0 and "
                    f"replica {replica}",
                    step)
            if merger.class_history != reference.class_history:
                return Violation(
                    "class-divergence",
                    f"final per-class histories differ between replica 0 "
                    f"and replica {replica}",
                    step)
        return None


# ------------------------------------------------------------- exploration

def generate_schedule(config: GroupsCheckConfig,
                      rng: random.Random) -> List[str]:
    """One seeded random-walk schedule over the decision vocabulary."""
    decisions: List[str] = []
    for _ in range(config.schedule_length):
        roll = rng.random()
        if roll < 0.50:
            decisions.append(
                f"adv:{rng.randrange(config.n_replicas)},"
                f"{rng.randrange(config.n_groups)}")
        elif roll < 0.70:
            decisions.append(f"sp:{rng.randrange(config.key_space)}")
        elif roll < 0.95:
            decisions.append(
                f"xp:{rng.randrange(config.key_space)}-"
                f"{rng.randrange(config.key_space)}")
        else:
            decisions.append(f"dup:{rng.randrange(config.n_groups)}")
    return decisions


HARNESS = DecisionHarness(
    name="groups-rendezvous",
    version=1,
    mutants=GROUPS_MUTANTS,
    config=GroupsCheckConfig,
    system=RendezvousHarness,
    generate_schedule=generate_schedule,
)
