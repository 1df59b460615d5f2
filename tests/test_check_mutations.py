"""Mutation-detection smoke tests: the checker must catch seeded bugs.

Each mutant in :mod:`repro.check.mutants` reintroduces a concurrency bug
the paper's lock-free design rules out.  For every one, the checker must
find a violation of the expected kind within a bounded budget, shrink it,
and the shrunk decision sequence must replay — strictly, twice — to the
same violation kind.  The same budget on the *real* implementation stays
clean, so detection is signal, not noise.
"""

import dataclasses

import pytest

from repro.check import CheckConfig, run_check, run_with_decisions
from repro.check.mutants import MUTANTS, make_mutant

#: Per-mutant workload making its bug reachable (see repro.check.mutants):
#: skip-cas-retry needs two *simultaneously ready* commands, so an all-reads
#: workload; drop-helped-remove leaks on any workload with removals;
#: premature-publish needs a remover racing a dependency-collecting insert,
#: so a conflict-heavy all-writes workload with a spare capacity token;
#: drop-edges-at-unlink needs an insert to unlink a node between its
#: remover's ``rmd`` store and ``dep_me`` load while a dependent waits on
#: it alone — the same all-writes workload, two preemptions deep.
MUTANT_CASES = {
    "skip-cas-retry": (
        CheckConfig(workers=2, commands=2, max_size=2, write_every=0,
                    mutant="skip-cas-retry"),
        "double-get",
    ),
    "drop-helped-remove": (
        CheckConfig(workers=2, commands=3, max_size=2, write_every=1,
                    mutant="drop-helped-remove"),
        "graph-leak",
    ),
    "premature-publish": (
        CheckConfig(workers=2, commands=3, max_size=3, write_every=1,
                    mutant="premature-publish"),
        "conflict-order",
    ),
    "drop-edges-at-unlink": (
        CheckConfig(workers=2, commands=3, max_size=3, write_every=1,
                    mutant="drop-edges-at-unlink"),
        "deadlock",
    ),
    # write / read / write on one conflict class: once the first write is
    # removed the index entry is (None, (reader,)), so the second write's
    # entire ordering obligation IS the reader the mutant drops.
    "indexed-skip-reader-tracking": (
        CheckConfig(algorithm="indexed", workers=2, commands=3, max_size=2,
                    write_every=2, mutant="indexed-skip-reader-tracking"),
        "conflict-order",
    ),
    # Under the read/write relation with 2 workers the early scheduler
    # spreads reads round-robin over both lanes and barriers writes across
    # them.  The mutant enqueues the leading write in lane 0 only, so the
    # second read lands in an *empty* lane 1 and is gettable while the
    # conflicting write still executes.
    "early-skip-barrier": (
        CheckConfig(algorithm="early", workers=2, commands=4, max_size=4,
                    write_every=3, mutant="early-skip-barrier"),
        "conflict-order",
    ),
}

BUDGET = dict(max_schedules=2_000, max_steps=2_000)


def test_every_mutant_has_a_case():
    assert set(MUTANT_CASES) == set(MUTANTS)


@pytest.mark.parametrize("name", sorted(MUTANT_CASES))
def test_mutant_is_caught_and_counterexample_replays(name):
    config, expected_kind = MUTANT_CASES[name]
    report = run_check(config, **BUDGET)
    violation = report.result.violation
    assert violation is not None, f"{name} escaped the exploration budget"
    assert violation.kind == expected_kind
    assert report.result.counterexample, "violation without a schedule"

    shrunk = report.shrunk
    assert shrunk is not None
    assert shrunk.violation.kind == expected_kind
    assert len(shrunk.decisions) <= len(report.result.counterexample)

    # Deterministic replay: the shrunk schedule reproduces the same
    # violation kind on two fresh executions, with strict name matching.
    for _ in range(2):
        exe = run_with_decisions(config, shrunk.decisions, strict=True,
                                 max_steps=BUDGET["max_steps"])
        replayed = exe.violation or exe.terminal_violation()
        assert replayed is not None, "shrunk schedule no longer fails"
        assert replayed.kind == expected_kind


@pytest.mark.parametrize("name", sorted(MUTANT_CASES))
def test_same_budget_is_clean_on_the_real_implementation(name):
    config, _ = MUTANT_CASES[name]
    clean = dataclasses.replace(config, mutant=None)
    report = run_check(clean, **BUDGET)
    assert report.ok, (
        f"false positive on the real implementation: "
        f"{report.result.violation}")


def test_unknown_mutant_is_rejected():
    from repro.core import ReadWriteConflicts
    from repro.sim import SimRuntime, Simulator

    runtime = SimRuntime(Simulator(), preemption="controlled")
    with pytest.raises(ValueError, match="unknown mutant"):
        make_mutant("no-such-bug", runtime, ReadWriteConflicts(), 2)
