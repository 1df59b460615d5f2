"""Self-validation of the spec-rollback checking harness.

Same bar as the lease and groups harness suites: the seeded
``spec-skip-undo`` mutant (roll back without applying undo records) must
be caught within a bounded schedule budget, its counterexample must
shrink, and the frozen replay file must reproduce the violation
deterministically — and dispatch correctly next to the COS, lease, and
groups replay files sharing the ``repro check --replay`` entry point.
"""

from __future__ import annotations

import json

import pytest

from repro.check import (ddmin, load_replay, replay, run_schedule, run_walk,
                         save_replay)
from repro.check.spec_rollback import (SPEC_MUTANTS, SpecCheckConfig,
                                       SpecRollbackHarness,
                                       generate_schedule)
from repro.errors import SimulationError

BUDGET = 120


def caught_report(seed: int = 0):
    config = SpecCheckConfig(mutant="spec-skip-undo")
    return config, run_walk(config, max_schedules=BUDGET, seed=seed)


class TestMutantCatching:
    def test_skip_undo_is_caught_within_budget(self):
        _, report = caught_report()
        assert not report.ok, f"spec-skip-undo escaped {BUDGET} schedules"
        assert report.violation.kind in (
            "response-divergence", "state-divergence", "stale-speculation")
        assert report.schedules_explored <= BUDGET

    def test_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            config = SpecCheckConfig(mutant="spec-skip-undo")
            report = run_walk(config, max_schedules=BUDGET,
                              seed=seed,
                              shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"

    def test_clean_engine_survives_exploration(self):
        config = SpecCheckConfig()
        report = run_walk(config, max_schedules=40)
        assert report.ok, report.describe()

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            run_walk(SpecCheckConfig(mutant="nope"), max_schedules=1)


class TestShrinking:
    def test_counterexample_shrinks(self):
        config, report = caught_report()
        assert report.shrunk_decisions is not None
        assert len(report.shrunk_decisions) < len(report.decisions)
        # The shrunk schedule still violates on its own.
        violation = run_schedule(config, report.shrunk_decisions)
        assert violation is not None

    def test_shrink_requires_a_violating_schedule(self):
        config = SpecCheckConfig()
        with pytest.raises(SimulationError):
            ddmin(lambda decisions: run_schedule(config, decisions),
                  ["put:0-0"])


class TestReplay:
    def test_replay_reproduces_the_shrunk_violation(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "spec-ce.json")
        save_replay(path, config, report.shrunk_decisions,
                    report.violation)
        assert isinstance(load_replay(path)[0], SpecCheckConfig)
        reproduced = replay(path)
        assert reproduced is not None
        assert reproduced.kind == report.violation.kind
        assert reproduced.step == report.violation.step

    def test_replay_roundtrips_config_and_decisions(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "spec-ce.json")
        save_replay(path, config, report.shrunk_decisions,
                    report.violation)
        loaded_config, decisions, violation = load_replay(path)
        assert loaded_config == config
        assert decisions == report.shrunk_decisions
        assert violation.kind == report.violation.kind

    def test_fixed_implementation_no_longer_violates(self, tmp_path):
        # Replaying a mutant counterexample against the *fixed* engine
        # (mutant=None) must come back clean — the replay answers "is
        # this bug still there", not "was it ever".
        config, report = caught_report()
        fixed = SpecCheckConfig()
        path = str(tmp_path / "spec-ce.json")
        save_replay(path, fixed, report.shrunk_decisions,
                    report.violation)
        assert replay(path) is None

    def test_foreign_replay_files_are_not_claimed(self, tmp_path):
        path = str(tmp_path / "cos-ce.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "config": {}, "decisions": [],
                       "violation": {"kind": "double-get", "message": "x",
                                     "step": 1}}, handle)
        assert not isinstance(load_replay(path)[0], SpecCheckConfig)


class TestHarnessDeterminism:
    def test_schedules_replay_bit_for_bit(self):
        config, report = caught_report()
        first = run_schedule(config, report.decisions)
        second = run_schedule(config, report.decisions)
        assert (first.kind, first.step) == (second.kind, second.step)

    def test_generated_schedules_are_seed_deterministic(self):
        import random

        config = SpecCheckConfig()
        assert (generate_schedule(config, random.Random(7))
                == generate_schedule(config, random.Random(7)))

    def test_out_of_range_decisions_are_deterministic_noops(self):
        # Decision arguments are taken modulo the config's bounds;
        # advancing past the decided frontier and speculating before
        # anything was issued do nothing: any recorded list replays.
        config = SpecCheckConfig()
        decisions = ["adv:7", "opt:5,9", "dup:1,3", "ord:4",
                     "put:999-999", "cas:8-7-6", "get:12", "adv:0"]
        assert run_schedule(config, decisions) is None

    def test_unknown_decisions_are_rejected(self):
        harness = SpecRollbackHarness(SpecCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_other_harnesses(self):
        from repro.check.groups_rendezvous import GROUPS_MUTANTS
        from repro.check.mutants import MUTANTS
        from repro.check.paxos_lease import LEASE_MUTANTS

        assert not set(SPEC_MUTANTS) & set(MUTANTS)
        assert not set(SPEC_MUTANTS) & set(LEASE_MUTANTS)
        assert not set(SPEC_MUTANTS) & set(GROUPS_MUTANTS)


class TestOracles:
    def test_clean_reordering_is_not_a_violation(self):
        # Mis-speculation with a correct engine: rollback + conservative
        # re-execution must satisfy both oracles (this is the pipeline's
        # whole claim).
        decisions = [
            "put:0-1",          # issue put(k0, 1)
            "put:0-2",          # issue put(k0, 2)
            "opt:0,0", "opt:0,1",   # replica 0 speculates both, in order
            "ord:1", "ord:0",       # consensus decides the REVERSE
            "adv:0", "adv:0",       # replica 0 confirms: rollback path
            "adv:1", "adv:1",       # replica 1 never speculated
        ]
        assert run_schedule(SpecCheckConfig(), decisions) is None

    def test_skip_undo_fails_the_same_schedule(self):
        decisions = [
            "put:0-1",
            "put:0-2",
            "opt:0,0", "opt:0,1",
            "ord:1", "ord:0",
            "adv:0", "adv:0",
        ]
        violation = run_schedule(
                                 SpecCheckConfig(mutant="spec-skip-undo"), decisions)
        assert violation is not None
        assert violation.kind in ("response-divergence", "state-divergence")
