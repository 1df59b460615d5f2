"""Systematic schedule-space model checking for the COS algorithms.

Where :mod:`tests.test_schedule_fuzzing` samples random interleavings, this
package *enumerates* them: the ``"controlled"`` preemption mode of
:class:`~repro.sim.runtime.SimRuntime` hands every scheduling decision to an
external driver, the explorer walks the decision tree with bounded-depth DFS
plus sleep-set (DPOR-style) pruning over effect independence (topped up with
a seeded random-walk stage for deep races), and each
explored schedule is validated against the COS sequential specification
(paper §3.3) plus deadlock/lost-wakeup detection.  Failing schedules are
shrunk and frozen into deterministic replay files.

The same CLI fronts the protocol-level harnesses (lease, rendezvous,
speculation): each is a :class:`DecisionHarness`, explored by
:func:`run_walk` and listed by :func:`protocol_harnesses`.

Entry points:

- CLI: ``python -m repro check --algorithm lock_free --workers 3 --commands 5``
- API: :func:`run_check` / :func:`~repro.check.explorer.explore`,
  :func:`run_walk`, :func:`replay`
- docs: ``docs/model_checking.md``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.check.explorer import (
    DecisionHarness,
    ExploreResult,
    WalkReport,
    explore,
    explore_random,
    run_schedule,
    run_walk,
)
from repro.check.groups_rendezvous import GroupsCheckConfig
from repro.check.harness import (
    CheckConfig,
    CheckExecution,
    run_with_decisions,
)
from repro.check.independence import independent
from repro.check.mutants import MUTANTS, make_mutant, protocol_harnesses
from repro.check.oracle import SpecOracle, Violation
from repro.check.paxos_lease import LeaseCheckConfig
from repro.check.replay import load_replay, replay, save_replay
from repro.check.shrink import ShrinkResult, ddmin, shrink
from repro.check.spec_rollback import SpecCheckConfig

__all__ = [
    "CheckConfig",
    "CheckExecution",
    "CheckReport",
    "DecisionHarness",
    "ExploreResult",
    "GroupsCheckConfig",
    "LeaseCheckConfig",
    "MUTANTS",
    "ShrinkResult",
    "SpecCheckConfig",
    "SpecOracle",
    "Violation",
    "WalkReport",
    "ddmin",
    "explore",
    "explore_random",
    "independent",
    "load_replay",
    "make_mutant",
    "protocol_harnesses",
    "replay",
    "run_check",
    "run_schedule",
    "run_walk",
    "run_with_decisions",
    "save_replay",
    "shrink",
]


#: Default exploration ladder.  Integer stages are CHESS-style iterative
#: preemption bounding: exhaust the non-preemptive schedules first, then one
#: voluntary preemption, then two — bugs reachable with few preemptions (most
#: of them) are found in these cheap, systematically-covered stages.  The
#: final ``"random"`` stage spends the leftover budget on seeded random
#: walks (PCT-style), which place preemptions uniformly over the schedule
#: instead of tail-first like DFS backtracking, catching deeper races whose
#: preemption *positions* matter more than their count.
DEFAULT_PREEMPTION_STAGES: Sequence[Union[int, str, None]] = \
    (0, 1, 2, "random")


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    config: CheckConfig
    result: ExploreResult
    shrunk: Optional[ShrinkResult] = None

    @property
    def ok(self) -> bool:
        return self.result.violation is None


def run_check(
    config: CheckConfig,
    *,
    max_schedules: int = 300,
    max_steps: int = 20_000,
    use_sleep_sets: bool = True,
    preemption_stages: Union[Sequence[Union[int, str, None]], None] = None,
    shrink_counterexamples: bool = True,
    max_shrink_candidates: int = 400,
    seed: int = 0,
) -> CheckReport:
    """Explore ``config``'s schedule space; shrink any counterexample.

    The schedule budget is split across the ``preemption_stages`` ladder
    (later stages inherit leftover budget from stages that exhausted their
    bounded space early).  Integer stages run the bounded DFS, ``None`` an
    unbounded DFS, ``"random"`` the seeded random walk; pass e.g.
    ``preemption_stages=[None]`` for a single unbounded DFS.
    """
    stages = list(DEFAULT_PREEMPTION_STAGES
                  if preemption_stages is None else preemption_stages)
    total = ExploreResult()
    remaining = max_schedules
    for position, bound in enumerate(stages):
        stages_left = len(stages) - position
        budget = remaining if stages_left == 1 else max(
            remaining // stages_left, 1)
        if bound == "random":
            stage_result = explore_random(
                lambda: CheckExecution(config),
                max_schedules=budget,
                max_steps=max_steps,
                seed=seed,
            )
        else:
            stage_result = explore(
                lambda: CheckExecution(config),
                max_schedules=budget,
                max_steps=max_steps,
                use_sleep_sets=use_sleep_sets,
                preemption_bound=bound,
            )
        total.schedules_explored += stage_result.schedules_explored
        total.schedules_pruned += stage_result.schedules_pruned
        total.transitions += stage_result.transitions
        total.depth_bound_hits += stage_result.depth_bound_hits
        if stage_result.violation is not None:
            total.violation = stage_result.violation
            total.counterexample = stage_result.counterexample
            break
        # "Exhausted" only covers the *whole* space when the stage was
        # unbounded; a bounded or random stage ending early just frees
        # budget for later stages.
        if bound is None and stage_result.exhausted:
            total.exhausted = True
            break
        remaining = max_schedules - total.schedules_explored
        if remaining <= 0:
            break
    report = CheckReport(config=config, result=total)
    if total.violation is not None and shrink_counterexamples:
        report.shrunk = shrink(
            config, total.counterexample, total.violation,
            max_candidates=max_shrink_candidates, max_steps=max_steps)
    return report
