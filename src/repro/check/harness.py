"""Builds the program the model checker explores.

One :class:`CheckExecution` is one controlled run of the paper's
scheduler/worker loop (Algorithm 1): a scheduler process inserts a
deterministic command workload (plus one poison-pill write per worker so the
system drains and terminates), and ``workers`` worker processes loop
``get -> execute -> remove``.  Every COS operation reports to the
:class:`~repro.check.oracle.SpecOracle`; every scheduling decision is taken
externally through :meth:`CheckExecution.step`.

The same decision sequence over the same :class:`CheckConfig` replays
bit-for-bit: commands, processes and primitives are rebuilt identically, and
controlled mode contains no clock and no RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import (
    AlwaysConflicts,
    ClassConflicts,
    ConflictRelation,
    ReadWriteConflicts,
    make_cos,
    read_write_classes,
)
from repro.core.command import Command
from repro.core.runtime import EffectGen
from repro.core.effects import Work
from repro.errors import CheckViolation, SimulationError
from repro.check.oracle import SpecOracle, Violation
from repro.sim.process import SimProcess
from repro.sim.runtime import SimRuntime
from repro.sim.simulator import Simulator

__all__ = ["CheckConfig", "CheckExecution", "run_with_decisions",
           "STOP_OP"]

#: Poison-pill operation inserted once per worker after the workload.  Pills
#: write, so they conflict with everything and drain after all real commands.
STOP_OP = "__check_stop__"


@dataclass(frozen=True)
class CheckConfig:
    """Parameters of one checkable program (JSON-serializable).

    ``mutant`` names a seeded-bug variant from :mod:`repro.check.mutants`
    (``None`` checks the real implementation).
    """

    algorithm: str = "lock-free"
    workers: int = 3
    commands: int = 5
    max_size: int = 4
    write_every: int = 2
    key_space: int = 4
    mutant: Optional[str] = None

    def normalized_algorithm(self) -> str:
        # The CLI accepts paper-style underscores (``lock_free``) too.
        return self.algorithm.replace("_", "-")


def _make_commands(config: CheckConfig) -> List[Command]:
    """Deterministic read/write mix (mirrors the fuzz tests' workload)."""
    commands = []
    for index in range(config.commands):
        is_write = (config.write_every > 0
                    and index % config.write_every == 0)
        commands.append(Command(
            op="add" if is_write else "contains",
            args=(index % config.key_space,),
            writes=is_write,
        ))
    return commands


def _conflict_relation(algorithm: str) -> ConflictRelation:
    """The conflict relation the *specification* judges the history by."""
    if algorithm == "sequential":
        return AlwaysConflicts()       # the FIFO baseline orders everything
    if algorithm == "class-based":
        return ClassConflicts(read_write_classes())
    return ReadWriteConflicts()


class CheckExecution:
    """One controlled execution of the scheduler/worker program."""

    def __init__(self, config: CheckConfig):
        self.config = config
        algorithm = config.normalized_algorithm()
        self.runtime = SimRuntime(Simulator(), preemption="controlled")
        self.conflicts = _conflict_relation(algorithm)
        if config.mutant is not None:
            from repro.check.mutants import make_mutant
            self.cos = make_mutant(config.mutant, self.runtime,
                                   self.conflicts, config.max_size,
                                   workers=config.workers)
        else:
            self.cos = make_cos(algorithm, self.runtime, self.conflicts,
                                max_size=config.max_size,
                                workers=config.workers)
        workload = _make_commands(config)
        pills = [Command(op=STOP_OP, writes=True)
                 for _ in range(config.workers)]
        self.commands = workload + pills
        self.oracle = SpecOracle(self.commands, self.conflicts,
                                 config.max_size)
        self.trace: List[str] = []
        self.violation: Optional[Violation] = None
        self.runtime.spawn(self._scheduler(), "scheduler")
        for index in range(config.workers):
            self.runtime.spawn(self._worker(), f"worker-{index}")

    # ------------------------------------------------------------- program

    def _insert(self, cmd: Command) -> EffectGen:
        yield from self.cos.insert(cmd)
        self.oracle.after_insert(cmd)
        stats = getattr(self.cos, "chain_stats_unsafe", None)
        if stats is not None:
            live, removed = stats()
            self.oracle.check_chain(cmd, live, removed)

    def _scheduler(self) -> EffectGen:
        for cmd in self.commands:
            yield from self._insert(cmd)

    def _worker(self) -> EffectGen:
        while True:
            handle = yield from self.cos.get()
            cmd = self.cos.command_of(handle)
            self.oracle.on_get(cmd)
            if cmd.op != STOP_OP:
                yield Work(1e-6)  # the command's execution, an interleaving point
            self.oracle.before_remove(cmd)
            yield from self.cos.remove(handle)
            self.oracle.after_remove(cmd)
            if cmd.op == STOP_OP:
                return

    # ------------------------------------------------------------- driving

    def runnable(self) -> List[SimProcess]:
        if self.violation is not None:
            return []
        return self.runtime.runnable_processes()

    def pending_effect(self, proc: SimProcess):
        return self.runtime.pending_effect(proc)

    def step(self, proc: SimProcess) -> None:
        """Fire ``proc``'s next effect, recording the decision and trapping
        oracle violations and algorithm crashes at this exact step."""
        step_index = len(self.trace)
        self.trace.append(proc.name)
        try:
            self.runtime.controlled_step(proc)
        except CheckViolation as violation:
            self.violation = Violation(violation.kind, str(violation),
                                       step=step_index)
        except Exception as error:  # noqa: BLE001 - report algorithm crashes
            self.violation = Violation(
                "crash", f"{type(error).__name__}: {error}", step=step_index)

    def step_by_name(self, name: str) -> bool:
        """Fire the runnable process called ``name``; False if not runnable."""
        for proc in self.runnable():
            if proc.name == name:
                self.step(proc)
                return True
        return False

    # ------------------------------------------------------------- verdict

    def terminal_violation(self) -> Optional[Violation]:
        """The schedule's verdict once no process is runnable.

        A mid-schedule oracle violation wins; otherwise any still-live
        blocked process is a deadlock (or a lost wakeup: a ``ready`` credit
        that was never published); otherwise the end-of-schedule
        completeness checks run.
        """
        if self.violation is not None:
            return self.violation
        blocked = self.runtime.blocked_processes()
        if blocked:
            parked = ", ".join(
                f"{proc.name} on {self.runtime.blocking_effect(proc)!r}"
                for proc in blocked)
            return Violation(
                "deadlock",
                f"no process is runnable but {len(blocked)} are blocked "
                f"(deadlock or lost wakeup): {parked}",
                step=len(self.trace))
        return self.oracle.final_check()


def run_with_decisions(
    config: CheckConfig,
    decisions: Sequence[str],
    *,
    strict: bool = True,
    max_steps: int = 50_000,
) -> CheckExecution:
    """Replay a decision sequence (process names) over a fresh execution.

    With ``strict=True`` a decision naming a process that is not runnable
    raises :class:`~repro.errors.SimulationError` — the counterexample
    replay guarantee.  With ``strict=False`` (shrink candidates) such
    decisions fall back to the first runnable process, and after the
    sequence runs out the schedule is completed with the same first-runnable
    default policy.
    """
    exe = CheckExecution(config)
    for name in decisions:
        if exe.violation is not None or not exe.runnable():
            break
        if not exe.step_by_name(name):
            if strict:
                runnable = [proc.name for proc in exe.runnable()]
                raise SimulationError(
                    f"replay diverged at step {len(exe.trace)}: {name!r} is "
                    f"not runnable (runnable: {runnable})")
            exe.step(exe.runnable()[0])
    while (exe.violation is None and exe.runnable()
           and len(exe.trace) < max_steps):
        exe.step(exe.runnable()[0])
    return exe
