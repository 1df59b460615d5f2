"""Exception hierarchy for the :mod:`repro` library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class ProtocolError(ReproError):
    """A distributed-protocol invariant was violated (bug or bad message)."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class SchedulerError(ReproError):
    """A COS scheduler invariant was violated."""


class CheckViolation(ReproError):
    """The schedule-space model checker observed a COS specification
    violation (see :mod:`repro.check`).

    Attributes:
        kind: Machine-readable violation class (``"double-get"``,
            ``"conflict-order"``, ``"bounded-size"``, ``"graph-leak"``,
            ``"deadlock"``, ``"lost-command"``, ``"invalid-remove"``,
            ``"crash"``).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ShutdownError(ReproError):
    """An operation was attempted on a component that has been shut down."""


class SpeculationError(ReproError):
    """The optimistic execution pipeline (:mod:`repro.spec`) was misused.

    Raised when a conservative confirmation is applied while speculative
    executions are still in flight (the engine requires a drained pipeline
    so undo records exist for every uncommitted entry), or when a replica's
    speculative drain times out.
    """


class ShardError(ReproError):
    """The multiprocess execution engine (:mod:`repro.par`) failed.

    Raised when a shard worker process reports an execution error, stops
    answering, or dies.  The engine is fail-stop: after a shard crash every
    subsequent dispatch raises :class:`ShardCrashed`, and recovery happens
    at the replica level (checkpoint transfer from a peer), matching the
    crash model of the rest of the system.
    """


class ShardCommandError(ShardError):
    """Commands raised in shard workers, which live on.

    ``responses`` answers every command of the failing call in order; a
    failed command's answer is :func:`repro.smr.service.error_response`
    of its error, the same text however the command was dispatched.
    """

    def __init__(self, message: str, responses: list):
        super().__init__(message)
        self.responses = responses


class ShardCrashed(ShardError):
    """A shard worker process died or timed out; the engine is down."""
