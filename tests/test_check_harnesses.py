"""The contract every protocol-level checker keeps, checked once per
registered harness and mutant.

A checker that only ever passes on correct code proves nothing.  Every
:class:`~repro.check.explorer.DecisionHarness` in the registry
(:func:`~repro.check.protocol_harnesses`) must catch each of its seeded
mutants within the ``repro check`` budget under several seeds, shrink the
counterexample, and freeze it into a replay file that reproduces the
violation, comes back clean against the real implementation, and goes
through the same ``repro check --replay`` entry point as COS replays.  The
cases are generated from the registry, so a new harness or mutant is
covered as soon as it is registered.

``tests/replays/`` holds replay files written before the harnesses shared
one walk, one ddmin and one replay format: they must replay unchanged, and
the walk must still shrink to the same decisions.  The two lease-overlap
schedules in it (ROADMAP 7(c)) still violate on the real protocol.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import (CheckConfig, MUTANTS, ddmin, load_replay,
                         protocol_harnesses, replay, run_schedule, run_walk,
                         save_replay)
from repro.cli import main
from repro.core import COS_ALGORITHMS
from repro.errors import SimulationError

#: The ``repro check --max-schedules`` budget every mutant must fit.
BUDGET = 400
REPLAYS = Path(__file__).resolve().parent / "replays"
#: Lease schedules that still violate the real protocol (ROADMAP 7(c)).
OPEN_DEFECTS = ("lease-overlap-seed0.json", "stale-read-seed1.json")

HARNESSES = protocol_harnesses()
CASES = [(harness, mutant) for harness in HARNESSES.values()
         for mutant in harness.mutants]

each_harness = pytest.mark.parametrize(
    "harness", HARNESSES.values(), ids=list(HARNESSES))
each_mutant = pytest.mark.parametrize(
    "harness, mutant", CASES, ids=[mutant for _, mutant in CASES])


@functools.lru_cache(maxsize=None)
def caught(name: str, mutant: str):
    """The seed-0 walk of ``repro check --mutant`` (shared by the tests)."""
    config = HARNESSES[name].config(mutant=mutant)
    return config, run_walk(config, max_schedules=BUDGET, seed=0)


class TestCatching:
    @each_mutant
    def test_mutant_is_caught_within_budget(self, harness, mutant):
        _, report = caught(harness.name, mutant)
        assert not report.ok, f"{mutant} escaped {BUDGET} schedules"
        assert report.schedules_explored <= BUDGET

    @each_mutant
    def test_catch_holds_across_seeds(self, harness, mutant):
        for seed in (1, 2, 3):
            report = run_walk(harness.config(mutant=mutant),
                              max_schedules=BUDGET, seed=seed,
                              shrink_counterexamples=False)
            assert not report.ok, f"{mutant} escaped under seed {seed}"

    @each_harness
    def test_real_implementation_survives_the_walk(self, harness):
        report = run_walk(harness.config(), max_schedules=40)
        assert report.ok, report.describe()

    @each_harness
    def test_unknown_mutant_is_rejected(self, harness):
        with pytest.raises(ValueError, match="unknown mutant 'nope'"):
            run_walk(harness.config(mutant="nope"), max_schedules=1)


class TestShrinking:
    @each_mutant
    def test_counterexample_shrinks_and_still_violates(self, harness,
                                                       mutant):
        config, report = caught(harness.name, mutant)
        assert len(report.shrunk_decisions) < len(report.decisions)
        violation = run_schedule(config, report.shrunk_decisions)
        assert (violation.kind, violation.step) == (
            report.violation.kind, report.violation.step)

    @each_harness
    def test_ddmin_needs_a_violating_schedule(self, harness):
        config = harness.config()
        with pytest.raises(SimulationError):
            ddmin(lambda decisions: run_schedule(config, decisions), [])

    @each_mutant
    def test_shrunk_decisions_match_the_recorded_ones(self, harness, mutant):
        _, report = caught(harness.name, mutant)
        recorded, decisions, violation = load_replay(
            str(REPLAYS / f"{mutant}.json"))
        assert recorded == harness.config(mutant=mutant)
        assert report.shrunk_decisions == decisions
        assert (report.violation.kind, report.violation.step) == (
            violation.kind, violation.step)


class TestReplay:
    @each_mutant
    def test_replay_round_trips_and_reproduces(self, harness, mutant,
                                               tmp_path):
        config, report = caught(harness.name, mutant)
        path = str(tmp_path / "ce.json")
        save_replay(path, config, report.shrunk_decisions, report.violation)
        with open(path) as handle:
            document = json.load(handle)
        assert (document["harness"], document["version"]) == (
            harness.name, harness.version)
        loaded, decisions, violation = load_replay(path)
        assert (loaded, decisions) == (config, report.shrunk_decisions)
        assert violation.kind == report.violation.kind
        reproduced = replay(path)
        assert (reproduced.kind, reproduced.step) == (
            report.violation.kind, report.violation.step)

    @each_mutant
    def test_fixed_implementation_replays_clean(self, harness, mutant,
                                                tmp_path):
        # The replay answers "is this bug still there", not "was it ever".
        _, report = caught(harness.name, mutant)
        path = str(tmp_path / "ce.json")
        save_replay(path, harness.config(), report.shrunk_decisions,
                    report.violation)
        assert replay(path) is None

    @pytest.mark.parametrize("name", sorted(
        path.name for path in REPLAYS.glob("*.json")
        if path.name not in OPEN_DEFECTS))
    def test_recorded_replays_still_reproduce(self, name):
        _, _, recorded = load_replay(str(REPLAYS / name))
        reproduced = replay(str(REPLAYS / name))
        assert (reproduced.kind, reproduced.step) == (
            recorded.kind, recorded.step)

    @pytest.mark.xfail(strict=True, reason="ROADMAP 7(c)")
    @pytest.mark.parametrize("name", OPEN_DEFECTS)
    def test_lease_overlap_counterexamples_are_fixed(self, name):
        assert replay(str(REPLAYS / name)) is None

    def test_cos_file_is_not_claimed_by_a_harness(self, tmp_path):
        path = str(tmp_path / "cos-ce.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "config": {}, "decisions": [],
                       "violation": {"kind": "double-get", "message": "x",
                                     "step": 1}}, handle)
        config, _, _ = load_replay(path)
        assert isinstance(config, CheckConfig)

    @each_harness
    def test_other_versions_and_unknown_harnesses_are_rejected(
            self, harness, tmp_path):
        for key, value in (("version", harness.version + 1),
                           ("harness", "no-such-harness")):
            document = {"version": harness.version, "harness": harness.name,
                        "config": {}, "decisions": [],
                        "violation": {"kind": "x", "message": "x",
                                      "step": 0}}
            document[key] = value
            path = tmp_path / "ce.json"
            path.write_text(json.dumps(document))
            with pytest.raises(SimulationError):
                load_replay(str(path))


class TestDeterminism:
    @each_harness
    def test_schedules_are_deterministic(self, harness):
        config = harness.config(mutant=next(iter(harness.mutants)))
        first = harness.generate_schedule(config, random.Random(7))
        assert first == harness.generate_schedule(config, random.Random(7))
        _, report = caught(harness.name, config.mutant)
        runs = [run_schedule(config, report.decisions) for _ in range(2)]
        assert runs[0].kind == runs[1].kind
        assert runs[0].step == runs[1].step

    @each_harness
    def test_unknown_decisions_are_rejected(self, harness):
        system = harness.system(harness.config())
        with pytest.raises(SimulationError):
            system.apply("warp:3", 0)

    def test_registries_are_disjoint(self):
        names = list(MUTANTS)
        for harness in HARNESSES.values():
            names.extend(harness.mutants)
        assert len(names) == len(set(names))
        assert not set(HARNESSES) & set(COS_ALGORITHMS)


@each_mutant
def test_cli_catches_and_replays_every_mutant(harness, mutant, tmp_path,
                                              capsys):
    path = tmp_path / "mutant-counterexample.json"
    assert main(["check", "--mutant", mutant, "--max-schedules",
                 str(BUDGET), "--replay-out", str(path)]) == 1
    assert path.is_file()
    assert main(["check", "--replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"check algorithm={harness.name} mutant={mutant}" in out
    assert "reproduced" in out


def test_check_help_lists_every_registered_harness_and_mutant(
        capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no line breaks inside names
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    for harness in HARNESSES.values():
        assert harness.name in out
        assert f"{harness.name}: {', '.join(sorted(harness.mutants))}" in out
    assert f"COS: {', '.join(sorted(MUTANTS))}" in out


def test_other_subcommands_do_not_load_the_checker():
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "standalone",
         "--help"], env=dict(os.environ, PYTHONPATH=src), text=True,
        capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "repro.cli" in imported
    assert not {name for name in imported if name.startswith("repro.check")}
