"""Randomized checking of the optimistic commit/rollback rule.

The COS checker enumerates thread schedules, the lease harness walks
clock/network interleavings, the rendezvous harness interleaves group
streams; the speculation hazard is different again: each replica executes
commands in its *own* optimistic guess of the order, and the
:class:`~repro.spec.engine.SpeculationEngine`'s commit/rollback rule must
make the released responses and the service state a pure function of the
conservative order — independent of what was speculated, in what order,
or how often (docs/speculation.md).

The harness drives ``n_replicas`` engines, each over its own
:class:`~repro.apps.kvstore.KVStoreService` (``put`` returns the previous
value and ``cas`` is state-dependent in both effect and response, so a
rollback that leaves stale state behind surfaces in *both* oracles),
under a seeded random walk with an explicit decision vocabulary:

=============== ======================================================
``put:K-V``     issue ``put(kK, V)``
``cas:K-E-N``   issue ``cas(kK, E, N)`` (state-dependent write)
``get:K``       issue ``get(kK)`` (read; captures no undo record)
``opt:R,I``     replica ``R`` speculates issued command ``I`` —
                admit + capture undo + execute, response buffered
``dup:R,I``     the same, as a deliberately duplicate optimistic
                delivery (the engine must drop it)
``ord:I``       append issued command ``I`` to the global conservative
                order (consensus decides it); the reference executes it
``adv:R``       replica ``R`` confirms the next conservative command
=============== ======================================================

Decisions that cannot apply (no commands issued yet, ``ord`` of an
already-ordered command, ``adv`` past the conservative frontier) are
deterministic no-ops, so recorded decision lists replay bit-for-bit.
Oracles, as the walk progresses:

- **response-divergence**: a released response differs from the
  reference sequential execution of the conservative order;
- **state-divergence**: whenever a replica's speculation log is clean,
  its service snapshot must be byte-identical (canonical JSON) to the
  reference snapshot at the same conservative prefix — and at the end of
  the run for every replica;
- **stale-speculation** (end of run): after every issued command was
  ordered and every replica confirmed the full conservative order, a
  speculation log still holds uncommitted entries.

Checker self-validation uses :data:`SPEC_MUTANTS` — seeded engine bugs
the walk must catch within a bounded budget (``spec-skip-undo`` rolls
back without applying undo records; see tests/test_spec_check.py,
tests/test_check_harnesses.py).  The walk, the ddmin shrinker and the
replay files (``"harness": "spec-rollback"``) are the ones every
:class:`~repro.check.explorer.DecisionHarness` shares.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.apps.kvstore import KVStoreService
from repro.check.explorer import DecisionHarness
from repro.check.mutants import mutant_class
from repro.check.oracle import Violation
from repro.core.command import Command
from repro.errors import SimulationError
from repro.groups.merge import command_key
from repro.spec.engine import SkipUndoEngine, SpeculationEngine

__all__ = [
    "HARNESS",
    "SPEC_MUTANTS",
    "SpecCheckConfig",
    "SpecRollbackHarness",
    "generate_schedule",
]

#: Speculation-harness mutants (their names are disjoint from every other
#: registry's, so ``--mutant`` alone selects the harness).
SPEC_MUTANTS = {
    "spec-skip-undo": SkipUndoEngine,
}


@dataclass
class SpecCheckConfig:
    """Parameters of one spec-rollback run (fully determines it)."""

    n_replicas: int = 2
    key_space: int = 3
    value_space: int = 3
    schedule_length: int = 80
    mutant: Optional[str] = None

    def describe(self) -> str:
        return (f"replicas={self.n_replicas} keys={self.key_space} "
                f"length={self.schedule_length}")


def _canonical(snapshot: Any) -> str:
    """Byte-identical state comparison (the differential-suite standard)."""
    return json.dumps(snapshot, sort_keys=True, default=repr)


class SpecRollbackHarness:
    """``n_replicas`` speculative pipelines against one reference."""

    def __init__(self, config: SpecCheckConfig):
        self.config = config
        self.services = [KVStoreService() for _ in range(config.n_replicas)]
        engine = mutant_class(SPEC_MUTANTS, config.mutant,
                              SpeculationEngine)
        self.engines = [engine(service) for service in self.services]
        #: Commands issued so far (the clients' stream): request ids 1, 2, ...
        self.issued: List[Command] = []
        #: The conservative (consensus) order — shared by all replicas.
        self.order: List[Command] = []
        self._ordered_keys: set = set()
        #: Per replica: next conservative position to confirm.
        self.cursors = [0] * config.n_replicas
        # Reference sequential execution of the conservative order.
        self._reference = KVStoreService()
        #: Reference snapshots, one per conservative prefix (index i =
        #: state after the first i ordered commands).
        self._reference_snapshots: List[str] = [
            _canonical(self._reference.snapshot())]
        self._reference_responses: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------ decisions

    def apply(self, decision: str, step: int) -> Optional[Violation]:
        """Apply one decision; returns the first violation observed."""
        op, _, arg = decision.partition(":")
        if op == "put":
            key_s, _, value_s = arg.partition("-")
            self.issued.append(KVStoreService.put(
                f"k{int(key_s) % self.config.key_space}",
                int(value_s) % self.config.value_space,
                client_id="chk", request_id=len(self.issued) + 1))
        elif op == "cas":
            key_s, _, rest = arg.partition("-")
            expected_s, _, new_s = rest.partition("-")
            self.issued.append(KVStoreService.cas(
                f"k{int(key_s) % self.config.key_space}",
                int(expected_s) % self.config.value_space,
                int(new_s) % self.config.value_space,
                client_id="chk", request_id=len(self.issued) + 1))
        elif op == "get":
            self.issued.append(KVStoreService.get(
                f"k{int(arg) % self.config.key_space}",
                client_id="chk", request_id=len(self.issued) + 1))
        elif op in ("opt", "dup"):
            replica_s, _, index_s = arg.partition(",")
            replica = int(replica_s) % self.config.n_replicas
            if self.issued:
                command = self.issued[int(index_s) % len(self.issued)]
                # The engine drops duplicates of queued and recently
                # committed entries, which is itself under test here.
                self.engines[replica].speculate(command)
        elif op == "ord":
            if self.issued:
                command = self.issued[int(arg) % len(self.issued)]
                self._order(command)
        elif op == "adv":
            replica = int(arg) % self.config.n_replicas
            return self._advance(replica, step)
        else:
            raise SimulationError(f"unknown decision {decision!r}")
        return None

    def _order(self, command: Command) -> None:
        key = command_key(command)
        if key in self._ordered_keys:
            return  # consensus orders a command exactly once
        self._ordered_keys.add(key)
        self.order.append(command)
        self._reference_responses[key] = self._reference.execute(command)
        self._reference_snapshots.append(
            _canonical(self._reference.snapshot()))

    def _advance(self, replica: int, step: Optional[int]
                 ) -> Optional[Violation]:
        cursor = self.cursors[replica]
        if cursor >= len(self.order):
            return None  # nothing decided yet: deterministic no-op
        self.cursors[replica] = cursor + 1
        command = self.order[cursor]
        engine = self.engines[replica]
        result = engine.confirm([command])
        for released, response, _hit in result.released:
            key = command_key(released)
            reference = self._reference_responses[key]
            if response != reference:
                return Violation(
                    "response-divergence",
                    f"replica {replica} released {response!r} for "
                    f"{released.op}{released.args} at conservative position "
                    f"{cursor}; the reference order yields {reference!r}",
                    step)
        for rolled in result.respeculate:
            engine.speculate(rolled)
        return self._check_state(replica, step)

    # -------------------------------------------------------------- oracles

    def _check_state(self, replica: int, step: Optional[int]
                     ) -> Optional[Violation]:
        """Clean log => snapshot equals the reference prefix, bit for bit."""
        engine = self.engines[replica]
        if not engine.clean:
            return None
        snapshot = _canonical(self.services[replica].snapshot())
        reference = self._reference_snapshots[self.cursors[replica]]
        if snapshot != reference:
            return Violation(
                "state-divergence",
                f"replica {replica} at conservative position "
                f"{self.cursors[replica]} with a clean speculation log has "
                f"state {snapshot}, reference {reference}",
                step)
        return None

    def finish(self, step: int) -> Optional[Violation]:
        """Order everything, drain every replica, check the final states."""
        for command in self.issued:
            self._order(command)
        for replica in range(self.config.n_replicas):
            while self.cursors[replica] < len(self.order):
                violation = self._advance(replica, step)
                if violation is not None:
                    return violation
        for replica, engine in enumerate(self.engines):
            if not engine.clean:
                return Violation(
                    "stale-speculation",
                    f"replica {replica} still holds {engine.uncommitted} "
                    f"uncommitted speculative entr(ies) after confirming "
                    f"the full conservative order",
                    step)
            violation = self._check_state(replica, step)
            if violation is not None:
                return violation
        return None


# ------------------------------------------------------------- exploration

def generate_schedule(config: SpecCheckConfig,
                      rng: random.Random) -> List[str]:
    """One seeded random-walk schedule over the decision vocabulary."""
    decisions: List[str] = []
    for _ in range(config.schedule_length):
        roll = rng.random()
        if roll < 0.18:
            decisions.append(
                f"put:{rng.randrange(config.key_space)}-"
                f"{rng.randrange(config.value_space)}")
        elif roll < 0.34:
            decisions.append(
                f"cas:{rng.randrange(config.key_space)}-"
                f"{rng.randrange(config.value_space)}-"
                f"{rng.randrange(config.value_space)}")
        elif roll < 0.38:
            decisions.append(f"get:{rng.randrange(config.key_space)}")
        elif roll < 0.62:
            decisions.append(
                f"opt:{rng.randrange(config.n_replicas)},"
                f"{rng.randrange(max(1, config.schedule_length))}")
        elif roll < 0.66:
            decisions.append(
                f"dup:{rng.randrange(config.n_replicas)},"
                f"{rng.randrange(max(1, config.schedule_length))}")
        elif roll < 0.80:
            decisions.append(
                f"ord:{rng.randrange(max(1, config.schedule_length))}")
        else:
            decisions.append(f"adv:{rng.randrange(config.n_replicas)}")
    return decisions


HARNESS = DecisionHarness(
    name="spec-rollback",
    version=1,
    mutants=SPEC_MUTANTS,
    config=SpecCheckConfig,
    system=SpecRollbackHarness,
    generate_schedule=generate_schedule,
)
