"""Self-validation of the paxos-lease checking harness.

A harness that only ever passes on correct code proves nothing: the seeded
``lease-ignore-expiry`` mutant must be caught within a bounded schedule
budget, its counterexample must shrink, and the frozen replay file must
reproduce the violation deterministically (and dispatch correctly next to
COS replay files, which share the ``repro check --replay`` entry point).
The same holds for log compaction: the walks must reach snapshot installs,
stay clean on the real protocol, and catch ``promise-below-floor``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.broadcast.messages import InstallSnapshot, Snapshot
from repro.check.paxos_lease import (
    LEASE_MUTANTS,
    LeaseCheckConfig,
    LeaseHarness,
    generate_schedule,
    load_lease_replay,
    replay_harness_kind,
    replay_lease,
    run_lease_check,
    run_lease_schedule,
    save_lease_replay,
    shrink_lease,
)
from repro.errors import SimulationError

BUDGET = 400


def caught_report(seed: int = 0):
    config = LeaseCheckConfig(mutant="lease-ignore-expiry")
    return config, run_lease_check(config, max_schedules=BUDGET, seed=seed)


class TestMutantCatching:
    def test_lease_ignore_expiry_is_caught_within_budget(self):
        _, report = caught_report()
        assert not report.ok, (
            f"lease-ignore-expiry escaped {BUDGET} schedules")
        assert report.violation.kind in ("lease-overlap", "stale-read")
        assert report.schedules_explored <= BUDGET

    def test_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            config = LeaseCheckConfig(mutant="lease-ignore-expiry")
            report = run_lease_check(config, max_schedules=BUDGET,
                                     seed=seed,
                                     shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown lease mutant"):
            run_lease_check(LeaseCheckConfig(mutant="nope"),
                            max_schedules=1)


class TestCompactionUnderTheWalk:
    def test_real_protocol_is_clean_and_installs_snapshots(self):
        """Retention 2: the CI budget drives nodes under each other's
        floor, through refusals and installs, without a violation."""
        config = LeaseCheckConfig()
        sent = installed = 0
        for index in range(300):  # the model-check job's budget, seed 0
            harness = LeaseHarness(config)
            decisions = generate_schedule(config, random.Random(index))
            for step, decision in enumerate(decisions):
                assert harness.apply(decision, step) is None
            sent += sum(node.snapshots_sent for node in harness.nodes)
            installed += sum(node.snapshots_installed
                             for node in harness.nodes)
            assert all(len(node.decided) <= 2 + node.pipeline
                       for node in harness.nodes)
        assert sent >= installed >= 5

    def test_promise_below_floor_is_caught_shrunk_and_replayed(
            self, tmp_path):
        config = LeaseCheckConfig(mutant="promise-below-floor")
        report = run_lease_check(config, max_schedules=BUDGET, seed=0)
        assert not report.ok, f"promise-below-floor escaped {BUDGET}"
        assert report.violation.kind == "divergence"
        assert len(report.shrunk_decisions) < len(report.decisions)
        path = str(tmp_path / "floor-ce.json")
        save_lease_replay(path, config, report.shrunk_decisions,
                          report.violation)
        reproduced = replay_lease(path)
        assert (reproduced.kind, reproduced.step) == (
            report.violation.kind, report.violation.step)
        # The same schedule is clean once the floor check is back.
        assert run_lease_schedule(LeaseCheckConfig(),
                                  report.shrunk_decisions) is None

    def test_promise_below_floor_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            report = run_lease_check(
                LeaseCheckConfig(mutant="promise-below-floor"),
                max_schedules=1000, seed=seed, shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"

    def test_snapshot_that_does_not_extend_the_receiver_is_divergence(self):
        harness = LeaseHarness(LeaseCheckConfig())
        harness.delivered[1] = ["w0", "w1"]
        violation = harness._absorb(
            1, [InstallSnapshot(Snapshot(5, ("w0", "w9", "w2")))], step=7)
        assert violation is not None and violation.kind == "divergence"


class TestShrinking:
    def test_counterexample_shrinks(self):
        config, report = caught_report()
        assert report.shrunk_decisions is not None
        assert len(report.shrunk_decisions) < len(report.decisions)
        # The shrunk schedule still violates on its own.
        violation = run_lease_schedule(config, report.shrunk_decisions)
        assert violation is not None

    def test_shrink_requires_a_violating_schedule(self):
        config = LeaseCheckConfig()
        with pytest.raises(SimulationError):
            shrink_lease(config, ["tick:0.01"])


class TestReplay:
    def test_replay_reproduces_the_shrunk_violation(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "lease-ce.json")
        save_lease_replay(path, config, report.shrunk_decisions,
                          report.violation)
        assert replay_harness_kind(path) == "paxos-lease"
        reproduced = replay_lease(path)
        assert reproduced is not None
        assert reproduced.kind == report.violation.kind
        assert reproduced.step == report.violation.step

    def test_replay_roundtrips_config_and_decisions(self, tmp_path):
        config, report = caught_report()
        path = str(tmp_path / "lease-ce.json")
        save_lease_replay(path, config, report.shrunk_decisions,
                          report.violation)
        loaded_config, decisions, violation = load_lease_replay(path)
        assert loaded_config == config
        assert decisions == report.shrunk_decisions
        assert violation.kind == report.violation.kind

    def test_fixed_implementation_no_longer_violates(self, tmp_path):
        # Replaying a mutant counterexample against the *fixed* protocol
        # (mutant=None) must come back clean — the replay answers "is this
        # bug still there", not "was it ever".
        config, report = caught_report()
        fixed = LeaseCheckConfig()
        path = str(tmp_path / "lease-ce.json")
        save_lease_replay(path, fixed, report.shrunk_decisions,
                          report.violation)
        assert replay_lease(path) is None

    def test_cos_replay_files_are_not_claimed(self, tmp_path):
        path = str(tmp_path / "cos-ce.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "config": {}, "decisions": [],
                       "violation": {"kind": "double-get", "message": "x",
                                     "step": 1}}, handle)
        assert replay_harness_kind(path) is None
        with pytest.raises(SimulationError):
            load_lease_replay(path)


class TestHarnessDeterminism:
    def test_schedules_replay_bit_for_bit(self):
        config, report = caught_report()
        first = run_lease_schedule(config, report.decisions)
        second = run_lease_schedule(config, report.decisions)
        assert (first.kind, first.step) == (second.kind, second.step)

    def test_unknown_decisions_are_rejected(self):
        harness = LeaseHarness(LeaseCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_cos_mutants(self):
        from repro.check.mutants import MUTANTS

        assert not set(LEASE_MUTANTS) & set(MUTANTS)
