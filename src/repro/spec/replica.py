"""Threaded replica with optimistic (speculative) execution.

A :class:`SpeculativeReplica` extends
:class:`~repro.smr.replica.ParallelReplica` with the optimistic pipeline
of :mod:`repro.spec`:

- ``on_optimistic`` (wired to the broadcast layer's
  :class:`~repro.broadcast.messages.DeliverOptimistic` stream) admits
  each command to the :class:`~repro.spec.engine.SpeculationEngine` log
  and inserts it into the COS, so workers execute it *speculatively* —
  capturing an undo record first and **withholding the response**;
- ``on_deliver`` (the conservative order) drains in-flight speculative
  executions, then applies the engine's commit/rollback rule: hits
  release their buffered responses, mismatches roll the divergent
  suffix back and execute the confirmed order inline, and rolled-back
  unconfirmed commands are re-speculated in their original order.

Frontier accounting: ``_scheduled``/``_executed`` count **committed**
work only — a speculative insert bumps neither, so the base pipeline
idleness predicate means "committed-idle" and checkpoints quiesce to a
*confirmed* cut (the overridden ``_pipeline_idle`` additionally requires
a clean speculation log, since the service state is provisional while
uncommitted entries exist).

Local reads never observe speculative state: while the log is dirty an
``on_local_read`` batch is *deferred* and flushed right after the next
confirmation leaves the log clean — the satellite tightening of the
idle-read fast path (a read scheduled through the COS behind a
speculative write would have returned a value that may be rolled back).

Locking: ``_deliver_lock`` serializes optimistic and conservative
delivery (and reads), exactly as in the base class; ``_spec_lock``
guards the engine and the pending-execution map and is never held
across a service call except inside ``confirm`` (where the drain
precondition guarantees no worker touches the engine concurrently).
Workers take only ``_spec_lock``/``_state_lock``, never
``_deliver_lock``, so draining speculation while holding the deliver
lock cannot deadlock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Hashable, List, Optional

from repro.core.command import Command
from repro.errors import SpeculationError
from repro.groups.merge import command_key
from repro.obs.spans import span_key
from repro.smr.replica import STOP_OP, ParallelReplica, _flatten_commands
from repro.smr.service import Service
from repro.spec.engine import SpeculationEngine
from repro.spec.undo import UndoProvider

__all__ = ["SpeculativeReplica"]


class SpeculativeReplica(ParallelReplica):
    """Parallel replica that executes on optimistic delivery."""

    def __init__(self, replica_id: int, service: Service, *args: Any,
                 undo: Optional[UndoProvider] = None,
                 drain_timeout: float = 5.0, **kwargs: Any):
        """Takes :class:`ParallelReplica`'s arguments, plus the undo-record
        provider and how long a confirmation waits for in-flight
        speculative executions."""
        super().__init__(replica_id, service, *args, **kwargs)
        self._engine = SpeculationEngine(service, undo)
        self._spec_lock = threading.Lock()
        self._spec_executed = threading.Condition(self._spec_lock)
        #: command key -> admitted entry awaiting execution by a worker.
        self._spec_pending: Dict[Hashable, Any] = {}
        #: command key -> optimistic-admission clock reading (obs).
        self._spec_admitted: Dict[Hashable, float] = {}
        self._deferred_reads: List[List[Command]] = []
        self._drain_timeout = drain_timeout
        obs = self.registry
        self._m_spec_speculated = obs.counter("spec_speculated_total")
        self._m_spec_duplicates = obs.counter("spec_duplicates_total")
        self._m_spec_hits = obs.counter("spec_hits_total")
        self._m_spec_misses = obs.counter("spec_misses_total")
        self._m_spec_rollbacks = obs.counter("spec_rollbacks_total")
        self._m_spec_rolled_back = obs.counter("spec_rolled_back_total")
        self._m_spec_reads_deferred = obs.counter(
            "spec_reads_deferred_total")
        #: Optimistic delivery -> speculative execution finished.
        self._h_spec_exec = obs.histogram("spec_exec_seconds")
        #: Optimistic delivery -> conservative commit released the
        #: response.  The spread between this and spec_exec_seconds is
        #: the ordering latency speculation hides.
        self._h_spec_commit = obs.histogram("spec_commit_seconds")

    # ---------------------------------------------------------- inspection

    @property
    def speculation_stats(self) -> Dict[str, int]:
        with self._spec_lock:
            return self._engine.stats.as_dict()

    # ------------------------------------------------------------ delivery

    def on_optimistic(self, payload: Any) -> None:
        """Optimistic delivery: speculate a batch of commands.

        Runs on the broadcast event-loop thread, like ``on_deliver``.
        Commands are admitted to the speculation log in arrival order
        (that *is* the guessed total order) and inserted into the COS
        without touching the committed frontiers; duplicates — of queued
        entries and of recently committed commands — are dropped by the
        engine.  The conservative dedup cache is deliberately not
        consulted or reserved here: the conservative path owns it.
        """
        with self._deliver_lock:
            if self._stopping:
                return
            for command in _flatten_commands(payload):
                if command.op == STOP_OP:
                    continue
                self._speculate(command)

    def _speculate(self, command: Command) -> None:
        """Admit one command and hand it to the workers (deliver lock held)."""
        obs_on = self._obs_on
        with self._spec_lock:
            entry = self._engine.admit(command)
            if entry is None:
                if obs_on:
                    self._m_spec_duplicates.inc()
                return
            self._spec_pending[entry.key] = entry
            if obs_on:
                self._spec_admitted.setdefault(
                    entry.key, self.registry.clock())
        if obs_on:
            self._m_spec_speculated.inc()
            self.registry.span(span_key(command), "speculated")
        self._cos.insert(command)

    def on_deliver(self, instance: int, payload: Any) -> None:
        """Conservative delivery: confirm against the speculation log."""
        with self._deliver_lock:
            commands = [command for command in _flatten_commands(payload)
                        if not self._is_duplicate(command)]
            if commands:
                self._confirm(commands)
            self._last_instance = max(self._last_instance, instance)
            self._flush_deferred_reads()

    def _confirm(self, commands: List[Command]) -> None:
        self._drain_speculation()
        obs_on = self._obs_on
        clock = self.registry.clock
        with self._spec_lock:
            result = self._engine.confirm(commands)
        with self._state_lock:
            self._scheduled += len(commands)
            self._executed += len(commands)
            for command, response, _hit in result.released:
                self._fill_response(command, response)
        if self._on_response is not None:
            for command, response, _hit in result.released:
                self._on_response(command, response, self.replica_id)
        if obs_on:
            now = clock()
            hits = sum(1 for _, _, hit in result.released if hit)
            self._m_spec_hits.inc(hits)
            self._m_spec_misses.inc(len(result.released) - hits)
            if result.rolled_back:
                self._m_spec_rollbacks.inc()
                self._m_spec_rolled_back.inc(result.rolled_back)
            with self._spec_lock:
                for command, _response, _hit in result.released:
                    admitted = self._spec_admitted.pop(
                        command_key(command), None)
                    if admitted is not None:
                        self._h_spec_commit.observe(now - admitted)
            for command, _response, _hit in result.released:
                self.registry.span(span_key(command), "committed")
        # Rolled-back commands that are still unconfirmed go back into
        # the speculation log in their original optimistic order (the
        # deliver lock keeps new optimistic arrivals from interleaving).
        for command in result.respeculate:
            self._speculate(command)

    def _drain_speculation(self) -> None:
        """Wait until every admitted entry has recorded its execution.

        Called under the deliver lock; workers never take it, so they are
        free to finish the in-flight speculative executions this waits
        for.
        """
        deadline = time.monotonic() + self._drain_timeout
        with self._spec_executed:
            while self._engine.unexecuted:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SpeculationError(
                        f"replica {self.replica_id}: {self._engine.unexecuted} "
                        f"speculative execution(s) still in flight after "
                        f"{self._drain_timeout}s")
                self._spec_executed.wait(min(remaining, 0.05))

    # ----------------------------------------------------------- execution

    def _run_batch(self, commands: List[Command]) -> List[Any]:
        """Worker hook: execute speculatively, withholding publication.

        In speculative mode the COS carries only admitted speculative
        commands (conservative commands execute inline in ``_confirm``
        and dirty-log reads are deferred), so the common path captures an
        undo record, executes, and records the response in the engine —
        no ``_executed`` bump, no response release.  A command without a
        pending entry (not expected in practice) falls back to the
        conservative base path.
        """
        obs_on = self._obs_on
        responses: List[Any] = []
        for command in commands:
            key = command_key(command)
            with self._spec_lock:
                entry = self._spec_pending.pop(key, None)
            if entry is None:  # pragma: no cover - defensive
                responses.extend(super()._run_batch([command]))
                continue
            undo = self._engine.undo.capture(self.service, command)
            response = self._execute_one(command)
            with self._spec_executed:
                self._engine.record(entry, undo, response)
                self._spec_executed.notify_all()
                if obs_on:
                    admitted = self._spec_admitted.get(key)
                    if admitted is not None:
                        self._h_spec_exec.observe(
                            self.registry.clock() - admitted)
            responses.append(response)
        return responses

    # --------------------------------------------------------- local reads

    def on_local_read(self, payload: Any) -> None:
        """Leaseholder-local read; never observes speculative state.

        While the speculation log is dirty the service state is
        provisional (a mis-speculated write may be rolled back), so the
        read can neither run inline *nor* be scheduled through the COS —
        it is deferred and flushed after the next confirmation leaves
        the log clean.  With a clean log this degenerates to the base
        fast path.
        """
        with self._deliver_lock:
            commands = [command for command in _flatten_commands(payload)
                        if not self._is_duplicate(command)]
            if not commands:
                return
            if self._spec_dirty() or not self._claim_idle_inline(
                    len(commands)):
                self._deferred_reads.append(commands)
                if self._obs_on:
                    self._m_spec_reads_deferred.inc(len(commands))
                return
            self._execute_inline(commands)

    def _flush_deferred_reads(self) -> None:
        """Run deferred reads once the log is clean (deliver lock held)."""
        if not self._deferred_reads or self._spec_dirty():
            return
        batches, self._deferred_reads = self._deferred_reads, []
        for commands in batches:
            if self._claim_idle_inline(len(commands)):
                self._execute_inline(commands)
            else:
                # Committed work still in flight: the COS path is safe —
                # the log is clean, so there is no provisional state for
                # the read to observe.
                self._schedule_commands(commands)

    # ------------------------------------------------------------ idleness

    def _spec_dirty(self) -> bool:
        """True while the service state differs from the committed prefix."""
        with self._spec_lock:
            return bool(self._spec_pending) or not self._engine.clean

    def _pipeline_idle(self) -> bool:
        """Committed-idle *and* a clean speculation log.

        Checkpoints (``take_checkpoint``) poll this, so a speculative
        replica quiesces to a confirmed cut — the snapshot never
        contains provisional effects.
        """
        if self._spec_dirty():
            return False
        return super()._pipeline_idle()
