"""Parent-side dispatch plumbing for the multiprocess engine.

The dispatcher owns the worker processes and the queues between them: one
FIFO request queue per shard (ordering within a shard is the correctness
anchor of the barrier protocol) and one shared reply queue drained by a
collector thread.  Dispatcher threads — the :class:`ParallelReplica`
worker threads calling ``service.execute`` — block on a per-request slot
while the shard process computes, releasing the GIL to the other
dispatcher threads; that handoff is the whole point of the engine.

Crash handling is fail-stop: a dead or unresponsive worker fails every
outstanding request with :class:`~repro.errors.ShardCrashed` and poisons
the engine; recovery is the replica layer's job (checkpoint from a peer),
matching the system's crash model.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import threading
from typing import Any, Dict, List, Optional

from repro.errors import (ShardCommandError, ShardCrashed, ShardError,
                          ShutdownError)
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.par import config
from repro.par.worker import (
    ERR,
    EXEC_MANY,
    INSTALL,
    PING,
    STOP,
    shard_worker_main,
)
from repro.smr.service import error_response

__all__ = ["MpDispatcher"]

#: How often the collector wakes to check worker liveness (seconds).
_LIVENESS_INTERVAL = 0.2

#: Consecutive reply-queue failures (broken pipe / EOF while not closing)
#: the collector tolerates before declaring the engine dead.
_REPLY_FAILURE_LIMIT = 5

#: Base backoff between reply-queue failures.  A broken pipe raises
#: instantly, bypassing the blocking timeout; without a sleep the
#: collector would hot-spin a core until shutdown.
_REPLY_FAILURE_BACKOFF = 0.05


class _Slot:
    """One outstanding request: a slot the collector thread fills.

    ``shard`` and ``weight`` (commands carried — > 1 for a batch) exist so
    the ``mp_queue_depth`` gauges can be reconciled exactly on every exit
    path, including :meth:`MpDispatcher._poison`.
    """

    __slots__ = ("event", "value", "error", "shard", "weight")

    def __init__(self, shard: int, weight: int = 1) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.shard = shard
        self.weight = weight


class MpDispatcher:
    """Process pool + request/reply plumbing for one engine instance."""

    def __init__(
        self,
        service_name: str,
        service_kwargs: Dict[str, Any],
        n_shards: int,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._service_name = service_name
        self._service_kwargs = dict(service_kwargs)
        self.n_shards = n_shards
        registry = registry if registry is not None else NULL_REGISTRY
        self._depth_gauges = [
            registry.gauge("mp_queue_depth", shard=str(shard))
            for shard in range(n_shards)
        ]
        self._m_batch_size = registry.histogram("mp_batch_size")
        self._seq = itertools.count(1)
        self._pending: Dict[int, _Slot] = {}
        self._pending_lock = threading.Lock()
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._request_queues: List[Any] = []
        self._reply_queue: Any = None
        self._collector: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._crashed: Optional[ShardCrashed] = None
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._started:
            raise ShutdownError("dispatcher already started")
        self._started = True
        ctx = multiprocessing.get_context(config.default_start_method())
        self._reply_queue = ctx.Queue()
        for shard in range(self.n_shards):
            request_queue = ctx.Queue()
            self._request_queues.append(request_queue)
            process = ctx.Process(
                target=shard_worker_main,
                args=(shard, self.n_shards, self._service_name,
                      self._service_kwargs, request_queue,
                      self._reply_queue),
                name=f"repro-par-shard-{shard}",
                daemon=True,
            )
            self._processes.append(process)
            process.start()
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-par-collector",
            daemon=True)
        self._collector.start()
        # Readiness: every worker must answer a ping (this also surfaces
        # spawn-time import errors as a clean ShardCrashed).
        for shard in range(self.n_shards):
            self.request(shard, PING, timeout=config.READY_TIMEOUT)

    def stop(self) -> None:
        """Drain and join workers; idempotent."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self._crashed is None:
            for shard in range(self.n_shards):
                try:
                    seq = self._submit(shard, STOP, None)
                    self._await(seq, shard, config.STOP_TIMEOUT)
                except (ShardError, ShutdownError):
                    pass  # already dead or wedged; terminated below
        # Only now may the collector exit: the stop acks above still had to
        # flow through it.
        self._closing.set()
        for process in self._processes:
            process.join(config.STOP_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        if self._collector is not None:
            self._collector.join(config.STOP_TIMEOUT)
        for request_queue in self._request_queues:
            request_queue.close()
        if self._reply_queue is not None:
            self._reply_queue.close()

    @property
    def running(self) -> bool:
        return self._started and not self._stopped and self._crashed is None

    # --------------------------------------------------------------- requests

    def request(self, shard: int, tag: str, payload: Any = None,
                timeout: Optional[float] = None) -> Any:
        """Send one request to ``shard`` and block for its reply payload."""
        seq = self._submit(shard, tag, payload)
        return self._await(seq, shard, timeout)

    def submit(self, shard: int, tag: str, payload: Any = None) -> int:
        """Send a request without waiting; returns its seq for :meth:`wait`."""
        return self._submit(shard, tag, payload)

    def submit_many(self, shard: int, commands: List[Any]) -> int:
        """Queue a batch of commands for ``shard`` in ONE queue hop.

        The whole batch is one pickle and one worker wakeup; the reply
        (see :meth:`wait`) is ``(outcomes, busy_seconds)`` with one
        ``("ok", response)`` / ``("err", (type, message, trace))`` outcome
        per command, in submission order.  Commands in one batch must be
        pairwise non-conflicting — the caller takes them from a COS ready
        set, which guarantees exactly that.
        """
        if not commands:
            raise ShardError("submit_many needs at least one command")
        self._m_batch_size.observe(len(commands))
        return self._submit(shard, EXEC_MANY, list(commands),
                            weight=len(commands))

    def request_many(self, shard: int, commands: List[Any],
                     timeout: Optional[float] = None) -> Any:
        """Batched :meth:`request`: one hop out, one reply back."""
        seq = self.submit_many(shard, commands)
        return self._await(seq, shard, timeout)

    def wait(self, seq: int, shard: int,
             timeout: Optional[float] = None) -> Any:
        return self._await(seq, shard, timeout)

    def install(self, shard: int, seq: int, fragment: Any) -> None:
        """Release a barred shard (no reply; FIFO does the sequencing)."""
        self._request_queues[shard].put((INSTALL, seq, shard, fragment))

    def _submit(self, shard: int, tag: str, payload: Any,
                weight: int = 1) -> int:
        if not self._started:
            raise ShutdownError("dispatcher not started")
        if self._stopped and tag != STOP:
            raise ShutdownError("dispatcher is stopping")
        if self._crashed is not None:
            raise self._crashed
        seq = next(self._seq)
        slot = _Slot(shard, weight)
        with self._pending_lock:
            self._pending[seq] = slot
        self._depth_gauges[shard].inc(weight)
        self._request_queues[shard].put((tag, seq, shard, payload))
        return seq

    def _await(self, seq: int, shard: int,
               timeout: Optional[float]) -> Any:
        timeout = timeout if timeout is not None else (
            config.DISPATCH_TIMEOUT)
        with self._pending_lock:
            slot = self._pending.get(seq)
        if slot is None:  # already failed and cleared by a crash
            raise self._crashed or ShardCrashed(f"request {seq} was dropped")
        fulfilled = slot.event.wait(timeout)
        if not fulfilled:
            # The collector may have filled the slot between the wait's
            # expiry and this cleanup; a reply that raced the deadline is
            # still a reply, not a crash.
            fulfilled = slot.event.is_set()
        with self._pending_lock:
            self._pending.pop(seq, None)
        if not fulfilled:
            self._depth_gauges[shard].dec(slot.weight)
            error = ShardCrashed(
                f"shard {shard} did not answer request {seq} within "
                f"{timeout}s")
            self._poison(error)
            raise error
        if slot.error is not None:
            raise slot.error
        return slot.value

    # -------------------------------------------------------------- collector

    def _collector_loop(self) -> None:
        failures = 0  # consecutive reply-queue breakages
        while True:
            try:
                tag, seq, shard, payload = self._reply_queue.get(
                    timeout=_LIVENESS_INTERVAL)
            except queue_module.Empty:
                if self._closing.is_set():
                    return
                failures = 0  # the queue is healthy, just idle
                self._check_liveness()
                continue
            except (OSError, EOFError):
                # Broken/closed reply pipe: get() returns instantly, so
                # back off (bounded) instead of hot-spinning, and poison
                # the engine once the breakage is clearly persistent.
                if self._closing.is_set():
                    return
                failures += 1
                if failures >= _REPLY_FAILURE_LIMIT:
                    self._poison(ShardCrashed(
                        f"reply queue broken ({failures} consecutive "
                        f"failures); engine cannot receive results"))
                    return
                self._check_liveness()
                self._closing.wait(
                    min(_REPLY_FAILURE_BACKOFF * failures,
                        _LIVENESS_INTERVAL))
                continue
            failures = 0
            with self._pending_lock:
                slot = self._pending.get(seq)
            if slot is None:
                continue  # abandoned (timeout/crash cleanup)
            self._depth_gauges[shard].dec(slot.weight)
            if tag == ERR:
                error_type, message, trace = payload
                slot.error = ShardCommandError(
                    f"shard {shard} execution failed: "
                    f"{error_type}: {message}\n{trace}",
                    [error_response(error_type, message)])
            else:  # RESP / FRAG / OK all deliver their payload
                slot.value = payload
            slot.event.set()

    def _check_liveness(self) -> None:
        if self._crashed is not None:
            return
        for shard, process in enumerate(self._processes):
            if not process.is_alive():
                self._poison(ShardCrashed(
                    f"shard {shard} worker process died "
                    f"(exitcode {process.exitcode})"))
                return

    def _poison(self, error: ShardCrashed) -> None:
        """Fail every outstanding request and refuse new ones.

        The pending map is cleared under the lock so neither a late reply
        (collector) nor a waiter's own cleanup can decrement a gauge this
        method already reconciled; each waiter still holds its slot
        reference and sees the error through it.
        """
        self._crashed = error
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            if not slot.event.is_set():  # answered slots keep their reply
                # The collector will never answer this slot, so its depth
                # contribution must be retired here — otherwise the
                # mp_queue_depth gauges read N forever after a crash.
                self._depth_gauges[slot.shard].dec(slot.weight)
                slot.error = error
                slot.event.set()
