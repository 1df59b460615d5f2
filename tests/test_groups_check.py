"""Self-validation of the groups-rendezvous checking harness.

Same bar as the lease harness's suite: the seeded ``groups-skip-hold``
mutant (release a rendezvous as soon as any one copy surfaces) must be
caught within a bounded schedule budget, its counterexample must shrink,
and the frozen replay file must reproduce the violation deterministically
— and dispatch correctly next to COS and lease replay files, which all
share the ``repro check --replay`` entry point.
"""

from __future__ import annotations

import json

import pytest

from repro.check import (ddmin, load_replay, replay, run_schedule, run_walk,
                         save_replay)
from repro.check.groups_rendezvous import (GROUPS_MUTANTS,
                                           GroupsCheckConfig,
                                           RendezvousHarness)
from repro.errors import SimulationError

BUDGET = 200


def caught_report(seed: int = 0):
    config = GroupsCheckConfig(mutant="groups-skip-hold")
    return config, run_walk(config, max_schedules=BUDGET, seed=seed)


class TestMutantCatching:
    def test_skip_hold_is_caught_within_budget(self):
        _, report = caught_report()
        assert not report.ok, f"groups-skip-hold escaped {BUDGET} schedules"
        assert report.violation.kind in (
            "position-divergence", "class-divergence", "fifo-violation")
        assert report.schedules_explored <= BUDGET

    def test_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            config = GroupsCheckConfig(mutant="groups-skip-hold")
            report = run_walk(config, max_schedules=BUDGET,
                              seed=seed,
                              shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"

    def test_clean_merger_survives_exploration(self):
        config = GroupsCheckConfig()
        report = run_walk(config, max_schedules=40)
        assert report.ok, report.describe()

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            run_walk(GroupsCheckConfig(mutant="nope"),
                     max_schedules=1)


class TestShrinking:
    def test_counterexample_shrinks(self):
        config, report = caught_report()
        assert report.shrunk_decisions is not None
        assert len(report.shrunk_decisions) < len(report.decisions)
        # The shrunk schedule still violates on its own.
        violation = run_schedule(config, report.shrunk_decisions)
        assert violation is not None

    def test_shrink_requires_a_violating_schedule(self):
        config = GroupsCheckConfig()
        with pytest.raises(SimulationError):
            ddmin(lambda decisions: run_schedule(config, decisions),
                  ["sp:0"])


class TestReplay:
    def test_replay_reproduces_the_shrunk_violation(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "groups-ce.json")
        save_replay(path, config, report.shrunk_decisions,
                    report.violation)
        assert isinstance(load_replay(path)[0], GroupsCheckConfig)
        reproduced = replay(path)
        assert reproduced is not None
        assert reproduced.kind == report.violation.kind
        assert reproduced.step == report.violation.step

    def test_replay_roundtrips_config_and_decisions(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "groups-ce.json")
        save_replay(path, config, report.shrunk_decisions,
                    report.violation)
        loaded_config, decisions, violation = load_replay(path)
        assert loaded_config == config
        assert decisions == report.shrunk_decisions
        assert violation.kind == report.violation.kind

    def test_fixed_implementation_no_longer_violates(self, tmp_path):
        # Replaying a mutant counterexample against the *fixed* merge rule
        # (mutant=None) must come back clean — the replay answers "is this
        # bug still there", not "was it ever".
        config, report = caught_report()
        fixed = GroupsCheckConfig()
        path = str(tmp_path / "groups-ce.json")
        save_replay(path, fixed, report.shrunk_decisions,
                    report.violation)
        assert replay(path) is None

    def test_foreign_replay_files_are_not_claimed(self, tmp_path):
        path = str(tmp_path / "cos-ce.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "config": {}, "decisions": [],
                       "violation": {"kind": "double-get", "message": "x",
                                     "step": 1}}, handle)
        assert not isinstance(load_replay(path)[0], GroupsCheckConfig)


class TestHarnessDeterminism:
    def test_schedules_replay_bit_for_bit(self):
        config, report = caught_report()
        first = run_schedule(config, report.decisions)
        second = run_schedule(config, report.decisions)
        assert (first.kind, first.step) == (second.kind, second.step)

    def test_out_of_range_decisions_are_deterministic_noops(self):
        # Decision arguments are taken modulo the config's bounds and
        # exhausted advances do nothing: any recorded list replays.
        config = GroupsCheckConfig()
        decisions = ["sp:999", "adv:7,9", "adv:0,0", "dup:5", "xp:70-71"]
        assert run_schedule(config, decisions) is None

    def test_unknown_decisions_are_rejected(self):
        harness = RendezvousHarness(GroupsCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_other_harnesses(self):
        from repro.check.mutants import MUTANTS
        from repro.check.paxos_lease import LEASE_MUTANTS

        assert not set(GROUPS_MUTANTS) & set(MUTANTS)
        assert not set(GROUPS_MUTANTS) & set(LEASE_MUTANTS)
