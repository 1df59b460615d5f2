"""Bounded-depth systematic exploration of the schedule space.

Stateless-model-checking structure (VeriSoft/Godefroid lineage): the
explorer cannot undo a step, so it runs complete schedules, backtracking by
re-executing the decision prefix on a fresh
:class:`~repro.check.harness.CheckExecution`.  Depth-first search keeps one
*frame* per decision point:

- ``alternatives``: the runnable processes worth trying at that state (the
  enabled set minus the state's sleep set when first reached);
- ``index``: which alternative the current schedule took;
- ``sleep``: the sleep set, growing with each fully-explored sibling.

**Sleep sets** prune commuting interleavings soundly: after the subtree in
which process ``p`` moved first from state ``s`` is explored, ``p`` enters
``s``'s sleep set; when sibling ``q`` is explored next, ``p`` stays asleep
in ``q``'s successor as long as ``p``'s pending effect is *independent* of
each transition fired (:mod:`repro.check.independence`) — firing ``p``
there would only commute into a state the ``p``-first subtree already
covered.  A process whose pending effect shares a handle with a fired
transition wakes up and is explored again.  Every Mazurkiewicz trace keeps
at least one representative, so no deadlock or safety violation inside the
depth bound is missed (Godefroid 1996, Thm. 4.3).  ``use_sleep_sets=False``
runs the naive full DFS over the same space, for measuring the reduction.

The protocol-level checkers (lease, rendezvous, speculation) have no
thread schedule to enumerate: each is a :class:`DecisionHarness` whose
schedules are seeded random walks over its own decision vocabulary.
:func:`run_walk` explores any of them and shrinks the first
counterexample with :func:`~repro.check.shrink.ddmin`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.check.harness import CheckExecution
from repro.check.independence import independent
from repro.check.mutants import harness_of
from repro.check.oracle import Violation
from repro.check.shrink import ddmin
from repro.errors import SimulationError

__all__ = ["DecisionHarness", "ExploreResult", "WalkReport", "explore",
           "explore_random", "run_schedule", "run_walk"]


@dataclass
class _Frame:
    """One decision point on the current DFS path."""

    alternatives: List[str]
    index: int = 0
    sleep: Set[str] = field(default_factory=set)
    #: Voluntary preemptions spent on the path *up to* this state.
    switches_used: int = 0

    @property
    def chosen(self) -> str:
        return self.alternatives[self.index]


@dataclass
class ExploreResult:
    """Outcome of one exploration run.

    ``schedules_explored`` counts schedules run to a terminal, depth-bounded
    or fully-slept state; ``schedules_pruned`` counts enabled branches the
    sleep sets skipped; ``exhausted`` is True when the bounded schedule
    space was covered within budget.
    """

    schedules_explored: int = 0
    schedules_pruned: int = 0
    transitions: int = 0
    depth_bound_hits: int = 0
    exhausted: bool = False
    violation: Optional[Violation] = None
    counterexample: Optional[List[str]] = None

    def describe(self) -> str:
        lines = [
            f"schedules explored: {self.schedules_explored}"
            + (" (space exhausted)" if self.exhausted else " (budget reached)"
               if self.violation is None else ""),
            f"branches pruned by sleep sets: {self.schedules_pruned}",
            f"transitions executed: {self.transitions}",
        ]
        if self.depth_bound_hits:
            lines.append(f"depth-bounded schedules: {self.depth_bound_hits}")
        if self.violation is not None:
            lines.append(f"VIOLATION {self.violation.describe()}")
        return "\n".join(lines)


def explore(
    make_execution: Callable[[], CheckExecution],
    *,
    max_schedules: int = 300,
    max_steps: int = 20_000,
    use_sleep_sets: bool = True,
    preemption_bound: Optional[int] = None,
) -> ExploreResult:
    """DFS the schedule space of the program ``make_execution`` builds.

    ``make_execution`` must return a fresh, deterministic execution each
    call (same processes, same decisions => same states).  Exploration
    stops at the first violation, after ``max_schedules`` schedules, or
    when the bounded space is exhausted — whichever comes first.

    ``preemption_bound`` caps *voluntary* preemptions per schedule (CHESS,
    Musuvathi & Qadeer 2007): switching away from a process that could
    still run costs one unit; switches forced by the current process
    blocking or finishing are free.  Most concurrency bugs manifest within
    one or two preemptions, and the bounded space is small enough that DFS
    reaches every decision point instead of permuting the schedule tail
    forever.  ``None`` means unbounded (the full per-effect interleaving
    space, only feasible for tiny programs).
    """
    result = ExploreResult()
    frames: List[_Frame] = []
    while result.schedules_explored < max_schedules:
        exe = make_execution()
        # Re-execute the committed prefix: all frames but the last (whose
        # current alternative the forward loop below fires, so the sleep
        # set it hands to the next state is recomputed there).
        for depth, frame in enumerate(frames[:-1]):
            if not exe.step_by_name(frame.chosen):
                raise SimulationError(
                    f"program under check is not deterministic: replaying "
                    f"decision {depth} ({frame.chosen!r}) diverged")
            result.transitions += 1
        # Forward phase: extend until terminal, violation, or bound.
        truncated = False
        inherited_sleep: Set[str] = set()
        inherited_switches = 0
        while exe.violation is None:
            runnable = exe.runnable()
            if not runnable:
                break
            if len(exe.trace) >= max_steps:
                truncated = True
                result.depth_bound_hits += 1
                break
            depth = len(exe.trace)
            if depth == len(frames):
                previous = exe.trace[-1] if exe.trace else None
                names = [proc.name for proc in runnable]
                # Continue-first order: the first schedule out of any state
                # runs the current process as far as it can go, so
                # backtracking introduces preemptions one at a time.
                if previous in names:
                    names.remove(previous)
                    names.insert(0, previous)
                    if (preemption_bound is not None
                            and inherited_switches >= preemption_bound):
                        names = [previous]  # budget spent: no more preempts
                sleep = inherited_sleep if use_sleep_sets else set()
                alternatives = [name for name in names if name not in sleep]
                result.schedules_pruned += len(names) - len(alternatives)
                if not alternatives:
                    # Every enabled move is asleep: each commutes with the
                    # path since its exploration, so this state's subtree
                    # was already covered from an earlier sibling.
                    truncated = True
                    break
                frames.append(_Frame(alternatives, sleep=sleep,
                                     switches_used=inherited_switches))
            frame = frames[depth]
            if use_sleep_sets:
                inherited_sleep = _child_sleep(exe, frame)
            previous = exe.trace[-1] if exe.trace else None
            inherited_switches = frame.switches_used
            if (previous is not None and frame.chosen != previous
                    and any(proc.name == previous
                            for proc in exe.runnable())):
                inherited_switches += 1
            exe.step_by_name(frame.chosen)
            result.transitions += 1
        result.schedules_explored += 1
        if exe.violation is None and not truncated:
            exe.violation = exe.terminal_violation()
        if exe.violation is not None:
            result.violation = exe.violation
            result.counterexample = list(exe.trace)
            return result
        # Backtrack to the deepest frame with an untried alternative; the
        # explored choice goes to sleep for its remaining siblings.
        while frames:
            frame = frames[-1]
            frame.sleep.add(frame.chosen)
            frame.index += 1
            if frame.index < len(frame.alternatives):
                break
            frames.pop()
        if not frames:
            result.exhausted = True
            return result
    return result


def explore_random(
    make_execution: Callable[[], CheckExecution],
    *,
    max_schedules: int = 300,
    max_steps: int = 20_000,
    seed: int = 0,
    switch_probability: float = 0.1,
) -> ExploreResult:
    """Seeded random-walk exploration (PCT-style, Burckhardt et al. 2010).

    Complements the bounded DFS: depth-first backtracking varies the *tail*
    of the schedule first, so a bug that needs two well-placed preemptions
    in the middle of a long schedule sits beyond any realistic DFS budget.
    A random walk places its preemptions uniformly instead: each step runs
    the current process with probability ``1 - switch_probability`` and
    otherwise switches to a uniformly random runnable process, so any
    k-preemption bug is hit with probability ~``(p/n)^k`` per schedule
    regardless of where the preemptions must land.

    The walk is driven by ``random.Random(seed)`` only — executions are
    deterministic, so every schedule (and any counterexample) is exactly
    reproducible from the seed, and the recorded decision sequence feeds
    the same shrink/replay pipeline as DFS counterexamples.
    """
    rng = random.Random(seed)
    result = ExploreResult()
    for _ in range(max_schedules):
        exe = make_execution()
        truncated = False
        while exe.violation is None:
            runnable = exe.runnable()
            if not runnable:
                break
            if len(exe.trace) >= max_steps:
                truncated = True
                result.depth_bound_hits += 1
                break
            previous = exe.trace[-1] if exe.trace else None
            chosen = None
            if previous is not None and rng.random() >= switch_probability:
                for proc in runnable:
                    if proc.name == previous:
                        chosen = proc
                        break
            if chosen is None:
                chosen = runnable[rng.randrange(len(runnable))]
            exe.step(chosen)
            result.transitions += 1
        result.schedules_explored += 1
        if exe.violation is None and not truncated:
            exe.violation = exe.terminal_violation()
        if exe.violation is not None:
            result.violation = exe.violation
            result.counterexample = list(exe.trace)
            return result
    return result


def _child_sleep(exe: CheckExecution, frame: _Frame) -> Set[str]:
    """Sleep set handed to the successor state, computed *before* firing
    ``frame.chosen``: slept siblings stay asleep only while their pending
    effect commutes with the transition about to fire.  (A slept process
    did not run, so its pending effect at the successor is unchanged.)"""
    if not frame.sleep:
        return set()
    by_name = {proc.name: proc for proc in exe.runnable()}
    chosen = by_name.get(frame.chosen)
    if chosen is None:  # deterministic replay guarantees this never happens
        return set()
    fired = exe.pending_effect(chosen)
    return {
        name for name in frame.sleep
        if name in by_name
        and independent(exe.pending_effect(by_name[name]), fired)
    }


# ------------------------------------------------------ protocol-level walks

@dataclass(frozen=True)
class DecisionHarness:
    """What a protocol-level checker supplies; the walk, the shrinker, the
    replay format and the registry (:mod:`repro.check.mutants`) are shared.
    """

    #: The ``--algorithm`` value and the replay file's ``"harness"`` key.
    name: str
    #: Replay file version, bumped when a recorded schedule would run
    #: against a different system.
    version: int
    #: Seeded bugs: ``--mutant`` name -> the class replacing the real one.
    mutants: Dict[str, type]
    #: The config dataclass: fully determines the system under check.
    config: type
    #: Builds a fresh system from a config.  ``apply(decision, step)``
    #: returns the first violation or None (a decision that cannot apply
    #: is a deterministic no-op, an unknown one raises SimulationError);
    #: ``finish(step)`` runs the end-of-run checks.
    system: Callable[[Any], Any]
    #: One seeded random schedule over the decision vocabulary.
    generate_schedule: Callable[[Any, random.Random], List[str]]


def run_schedule(config: Any, decisions: List[str]) -> Optional[Violation]:
    """Deterministically run one decision list; first violation or None."""
    system = harness_of(config).system(config)
    for step, decision in enumerate(decisions):
        violation = system.apply(decision, step)
        if violation is not None:
            return violation
    return system.finish(len(decisions))


@dataclass
class WalkReport:
    """Everything one protocol-harness exploration produced."""

    schedules_explored: int
    violation: Optional[Violation] = None
    decisions: Optional[List[str]] = None
    shrunk_decisions: Optional[List[str]] = None
    shrink_candidates: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        found = ("no violation" if self.violation is None
                 else self.violation.describe())
        return f"explored {self.schedules_explored} schedules: {found}"


def run_walk(
    config: Any,
    *,
    max_schedules: int = 200,
    seed: int = 0,
    shrink_counterexamples: bool = True,
    max_shrink_candidates: int = 400,
) -> WalkReport:
    """Random-walk ``config``'s schedule space; shrink the first
    counterexample.  Schedule ``i`` is drawn from
    ``random.Random(seed * 1_000_003 + i)``, so any one is reproducible."""
    generate_schedule = harness_of(config).generate_schedule
    for index in range(max_schedules):
        rng = random.Random(seed * 1_000_003 + index)
        decisions = generate_schedule(config, rng)
        violation = run_schedule(config, decisions)
        if violation is None:
            continue
        report = WalkReport(index + 1, violation, decisions)
        if shrink_counterexamples:
            (report.shrunk_decisions, report.violation,
             report.shrink_candidates) = ddmin(
                lambda candidate: run_schedule(config, candidate),
                decisions, max_candidates=max_shrink_candidates)
        return report
    return WalkReport(max_schedules)
