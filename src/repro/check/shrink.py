"""Counterexample minimization.

Two shrinkers: :func:`ddmin` for the protocol-level harnesses, whose
decisions never stop applying, and :func:`shrink` for the COS checker.

A raw COS counterexample from the explorer is a decision sequence hundreds of
steps long, most of it irrelevant prefix scheduling.  The shrinker reduces
it with two passes, re-running each candidate (non-strict replay: decisions
that no longer apply fall back to the first runnable process, and the
schedule is completed with that same default policy) and keeping it only if
the *same violation kind* still occurs:

1. **Chunk deletion** (ddmin-style): drop halves, quarters, ... of the
   decision list.
2. **Context-switch coalescing**: rewrite isolated decisions to extend the
   previous process's run, since a minimal concurrency bug usually needs
   only a couple of preemptions.

The minimized run's *actual* executed trace (which non-strict replay may
have altered) is re-recorded, so the result replays strictly and
deterministically to the same violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.check.harness import CheckConfig, CheckExecution, run_with_decisions
from repro.check.oracle import Violation
from repro.errors import SimulationError

__all__ = ["ShrinkResult", "ddmin", "shrink"]


def ddmin(run: Callable[[List[str]], Optional[Violation]],
          decisions: List[str], max_candidates: int = 400,
          ) -> Tuple[List[str], Violation, int]:
    """ddmin-style shrink of a protocol-harness schedule: drop chunks
    while *some* violation persists.  ``run`` executes one candidate
    decision list and returns its first violation (or None); returns the
    shrunk list, its violation and the number of candidates tried."""
    current = list(decisions)
    violation = run(current)
    if violation is None:
        raise SimulationError("ddmin needs a violating schedule")
    tried = 0
    chunk = max(1, len(current) // 2)
    while tried < max_candidates:
        index = 0
        removed = False
        while index < len(current) and tried < max_candidates:
            candidate = current[:index] + current[index + chunk:]
            tried += 1
            found = run(candidate)
            if found is not None:
                current, violation, removed = candidate, found, True
            else:
                index += chunk
        if chunk == 1 and not removed:
            break
        if not removed:
            chunk = max(1, chunk // 2)
    return current, violation, tried


@dataclass
class ShrinkResult:
    """A minimized, strictly-replayable counterexample."""

    decisions: List[str]
    violation: Violation
    candidates_tried: int

    @property
    def context_switches(self) -> int:
        return sum(1 for i in range(1, len(self.decisions))
                   if self.decisions[i] != self.decisions[i - 1])


def _outcome(exe: CheckExecution) -> Optional[Violation]:
    if exe.violation is not None:
        return exe.violation
    if exe.runnable():
        return None  # ran out of step budget: treat as no repro
    return exe.terminal_violation()


def shrink(
    config: CheckConfig,
    decisions: List[str],
    violation: Violation,
    *,
    max_candidates: int = 400,
    max_steps: int = 50_000,
) -> ShrinkResult:
    """Minimize ``decisions`` while preserving ``violation.kind``."""
    tried = 0

    def attempt(candidate: List[str]) -> Optional[CheckExecution]:
        nonlocal tried
        tried += 1
        exe = run_with_decisions(config, candidate, strict=False,
                                 max_steps=max_steps)
        found = _outcome(exe)
        if found is not None and found.kind == violation.kind:
            exe.violation = found
            return exe
        return None

    best = list(decisions)
    best_violation = violation

    # Pass 1: ddmin-style chunk deletion, halving granularity.
    chunk = max(len(best) // 2, 1)
    while chunk >= 1 and tried < max_candidates:
        start = 0
        while start < len(best) and tried < max_candidates:
            candidate = best[:start] + best[start + chunk:]
            exe = attempt(candidate)
            if exe is not None:
                best = list(exe.trace)
                best_violation = exe.violation
                # Trace may have grown past the violation step; trim.
                if best_violation.step is not None:
                    best = best[:best_violation.step + 1]
            else:
                start += chunk
        if chunk == 1:
            break
        chunk = max(chunk // 2, 1)

    # Pass 2: coalesce context switches — try continuing the previous
    # process instead of preempting it.
    changed = True
    while changed and tried < max_candidates:
        changed = False
        for i in range(1, len(best)):
            if best[i] == best[i - 1]:
                continue
            candidate = best[:i] + [best[i - 1]] + best[i + 1:]
            exe = attempt(candidate)
            if exe is not None and len(exe.trace) <= len(best):
                best = list(exe.trace)
                best_violation = exe.violation
                if best_violation.step is not None:
                    best = best[:best_violation.step + 1]
                changed = True
                break
            if tried >= max_candidates:
                break

    # Re-record the final run so the stored decisions replay strictly.
    exe = run_with_decisions(config, best, strict=False, max_steps=max_steps)
    final = _outcome(exe)
    if final is not None and final.kind == violation.kind:
        trace = list(exe.trace)
        if final.step is not None:
            trace = trace[:final.step + 1]
        return ShrinkResult(trace, final, tried)
    # Shrinking regressed (should not happen): fall back to the original.
    return ShrinkResult(list(decisions), violation, tried)
