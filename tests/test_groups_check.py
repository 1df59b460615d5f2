"""The groups-rendezvous checking harness: what is specific to it.

The contract every protocol checker keeps (each mutant caught within
budget under several seeds, shrunk, replayed, clean against the real
merge rule, deterministic, its registry disjoint from the others) is
checked once per registered harness in tests/test_check_harnesses.py.
What is left here is specific to the rendezvous merge: the seeded
``groups-skip-hold`` mutant (release a rendezvous as soon as any one copy
surfaces) must break an ordering property, and out-of-range decisions
must replay as no-ops.
"""

from __future__ import annotations

from repro.check import run_schedule, run_walk
from repro.check.groups_rendezvous import GroupsCheckConfig

BUDGET = 200


class TestMutantCatching:
    def test_skip_hold_is_caught_within_budget(self):
        config = GroupsCheckConfig(mutant="groups-skip-hold")
        report = run_walk(config, max_schedules=BUDGET, seed=0)
        assert not report.ok, f"groups-skip-hold escaped {BUDGET} schedules"
        assert report.violation.kind in (
            "position-divergence", "class-divergence", "fifo-violation")
        assert report.schedules_explored <= BUDGET


class TestHarnessDeterminism:
    def test_out_of_range_decisions_are_deterministic_noops(self):
        # Decision arguments are taken modulo the config's bounds and
        # exhausted advances do nothing: any recorded list replays.
        config = GroupsCheckConfig()
        decisions = ["sp:999", "adv:7,9", "adv:0,0", "dup:5", "xp:70-71"]
        assert run_schedule(config, decisions) is None
