"""Log compaction under the paxos-lease checking harness.

The contract every protocol checker keeps (each mutant caught within
budget, shrunk, replayed, clean against the real protocol, deterministic)
is checked once per registered harness in tests/test_check_harnesses.py.
What is left here is specific to compaction: the walks must reach
snapshot installs and stay clean on the real protocol, and
``promise-below-floor`` must be caught, shrunk and replayed.
"""

from __future__ import annotations

import random

from repro.broadcast.messages import InstallSnapshot, Snapshot
from repro.check import replay, run_schedule, run_walk, save_replay
from repro.check.paxos_lease import (LeaseCheckConfig, LeaseHarness,
                                     generate_schedule)

BUDGET = 400


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
        report = run_walk(config, max_schedules=BUDGET, seed=0)
        assert not report.ok, f"promise-below-floor escaped {BUDGET}"
        assert report.violation.kind == "divergence"
        assert len(report.shrunk_decisions) < len(report.decisions)
        path = str(tmp_path / "floor-ce.json")
        save_replay(path, config, report.shrunk_decisions,
                    report.violation)
        reproduced = replay(path)
        assert (reproduced.kind, reproduced.step) == (
            report.violation.kind, report.violation.step)
        # The same schedule is clean once the floor check is back.
        assert run_schedule(LeaseCheckConfig(),
                            report.shrunk_decisions) is None

    def test_promise_below_floor_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            report = run_walk(
                LeaseCheckConfig(mutant="promise-below-floor"),
                max_schedules=1000, seed=seed, shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"

    def test_snapshot_that_does_not_extend_the_receiver_is_divergence(self):
        harness = LeaseHarness(LeaseCheckConfig())
        harness.delivered[1] = ["w0", "w1"]
        violation = harness._absorb(
            1, [InstallSnapshot(Snapshot(5, ("w0", "w9", "w2")))], step=7)
        assert violation is not None and violation.kind == "divergence"
