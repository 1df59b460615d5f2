"""Replica execution engines (paper Fig. 1 and Algorithm 1).

A :class:`ParallelReplica` is the paper's scheduler/worker architecture:
the atomic-broadcast delivery callback plays the *parallelizer* role and
inserts delivered commands into a COS in total order; a pool of worker
threads repeatedly gets an independent command, executes it against the
service, responds to the client, and removes it from the COS.

Classic SMR is the same machinery with ``cos_algorithm="sequential"`` —
the FIFO :class:`~repro.core.sequential.SequentialCOS` drained by a single
worker, one command per dispatch.

Replicas deduplicate commands by ``(client_id, request_id)`` at delivery
time.  Delivery order is identical at all replicas, so the dedup decision
is deterministic; duplicates of already-executed commands are answered from
the response cache, which makes client retransmission safe.

With a single total order, tracking only each client's *latest* request id
suffices.  Partitioned ordering (:mod:`repro.groups`) merges several
consensus streams, so one client's requests may arrive out of request-id
order when a batch spans groups; ``dedup_window > 0`` switches the cache to
a bounded per-client window of recent request ids, which accepts fresh
requests in any order (see docs/partitioning.md).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import time

from repro.core import ThreadedCOS, ThreadedRuntime, make_cos
from repro.core.command import Command
from repro.core.cos import DEFAULT_MAX_SIZE
from repro.errors import ShardCommandError, ShardError, ShutdownError
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.spans import span_key
from repro.smr.checkpoint import Checkpoint, CheckpointError
from repro.smr.service import Service, error_response

__all__ = ["ParallelReplica", "STOP_OP"]

#: Poison-pill operation used to shut worker threads down.
STOP_OP = "__replica_stop__"

# Called with (command, response, replica_id) after execution.
ResponseCallback = Callable[[Command, Any, int], None]


def _flatten_commands(payload: Any) -> Iterable[Command]:
    """Yield commands from an arbitrarily nested batch, in order.

    Only :class:`Command` leaves are valid.  Strings (and bytes) are
    iterables whose items are themselves strings, so recursing into them
    never terminates — and any other non-``Command`` leaf is a caller bug —
    so both are rejected with ``TypeError`` instead of ``RecursionError``.
    """
    if isinstance(payload, Command):
        yield payload
        return
    if isinstance(payload, (str, bytes, bytearray)):
        raise TypeError(
            f"batch leaves must be Command instances, got {type(payload).__name__}: "
            f"{payload!r:.80}")
    try:
        items = iter(payload)
    except TypeError:
        raise TypeError(
            f"batch leaves must be Command instances, got "
            f"{type(payload).__name__}: {payload!r:.80}") from None
    for item in items:
        yield from _flatten_commands(item)


class ParallelReplica:
    """Scheduler + worker-pool replica over a Conflict-Ordered Set."""

    def __init__(
        self,
        replica_id: int,
        service: Service,
        cos_algorithm: str = "lock-free",
        workers: int = 4,
        max_graph_size: int = DEFAULT_MAX_SIZE,
        on_response: Optional[ResponseCallback] = None,
        registry: Optional[MetricsRegistry] = None,
        dedup_window: int = 0,
    ):
        """A worker drains up to :attr:`dispatch_batch` simultaneously-ready
        commands from the COS and hands them to the service in a single
        ``execute_many`` call: 16 when the service implements it (the mp
        engine moves the whole batch over one queue hop), else 1.

        ``cos_algorithm="sequential"`` is classic SMR: strict delivery-order
        execution, so ``workers`` and ``dispatch_batch`` are both pinned to
        1 — the FIFO's queued commands may conflict, draining several at
        once is never legal there.

        ``dedup_window``: 0 (default) keeps the classic latest-request-id
        dedup cache, which is exact under a single total order.  A positive
        value keeps the last that many request ids *per client* instead,
        tolerating out-of-request-id-order arrival across merged ordering
        streams (repro.groups); it must comfortably exceed any client's
        in-flight request count."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if dedup_window < 0:
            raise ValueError(
                f"dedup_window must be >= 0, got {dedup_window}")
        # An engine-backed service (repro.par.MpService) wants more worker
        # threads than CPU-bound execution would: its threads spend their
        # time blocked on shard queues (GIL released) and must outnumber the
        # shards to keep them pipelined.  The hint only ever raises the pool
        # size, so plain services are unaffected.
        hint = getattr(service, "dispatch_parallelism", None)
        if hint is not None:
            workers = max(workers, int(hint))
        sequential = cos_algorithm == "sequential"
        if sequential:
            workers = 1
        self.replica_id = replica_id
        self.service = service
        self.workers = workers
        self._execute_many = getattr(service, "execute_many", None)
        self.dispatch_batch = (
            1 if sequential or self._execute_many is None else 16)
        self._on_response = on_response
        self.registry = registry if registry is not None else NULL_REGISTRY
        obs = self.registry
        self._obs_on = obs.enabled
        self._m_scheduled = obs.counter("replica_scheduled_total")
        self._m_executed = obs.counter("replica_executed_total")
        self._m_insert_latency = obs.histogram("replica_insert_seconds")
        self._runtime = ThreadedRuntime()
        self._cos = ThreadedCOS(
            make_cos(cos_algorithm, self._runtime, service.conflicts,
                     max_size=max_graph_size, obs=obs, workers=workers),
            self._runtime,
        )
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._state_lock = threading.Lock()
        self._deliver_lock = threading.Lock()
        self._executed = 0
        self._scheduled = 0
        self._last_instance = -1
        self._dedup_window = dedup_window
        # Response cache.  Latest-only mode (dedup_window == 0):
        # client_id -> (request_id, response or _PENDING).  Window mode:
        # client_id -> OrderedDict[request_id, response or _PENDING] in
        # insertion order, trimmed to the window size.
        self._dedup: Dict[str, Any] = {}

    _PENDING = object()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self._started:
            raise ShutdownError("replica already started")
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"replica-{self.replica_id}-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Drain workers with poison pills and join them.  Idempotent."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        self._insert_stop_pills(self.workers)
        for thread in self._threads:
            thread.join(timeout)

    def _insert_stop_pills(self, count: int) -> None:
        """Retire ``count`` workers.  Under ``_deliver_lock`` like every COS
        insert — ``lfInsert`` is single-writer (core/lock_free.py); workers
        never take it, so a delivery blocked on a full graph still drains."""
        with self._deliver_lock:
            for _ in range(count):
                self._cos.insert(Command(op=STOP_OP, writes=True))

    def resize_workers(self, workers: int) -> None:
        """Reconfigure the worker pool at runtime.

        Growing spawns threads immediately; shrinking inserts poison pills
        that retire one worker each once they reach the head of the conflict
        order (cf. the reconfigurable parallel SMR line the paper cites
        [Alchieri et al., SRDS'17]).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not self._started or self._stopping:
            raise ShutdownError("resize requires a running replica")
        delta = workers - self.workers
        if delta > 0:
            for index in range(delta):
                worker_index = len(self._threads) + index
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(worker_index,),
                    name=(f"replica-{self.replica_id}-worker-"
                          f"{worker_index}"),
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        else:
            self._insert_stop_pills(-delta)
        self.workers = workers

    # --------------------------------------------------------- SMR plumbing

    def on_deliver(self, instance: int, payload: Any) -> None:
        """Atomic-broadcast delivery: schedule a batch of commands.

        This is the parallelizer (scheduler) role of Algorithm 1 — it runs
        on the broadcast node's event-loop thread, which makes inserts
        naturally sequential in delivery order.  ``payload`` may be a single
        command, a client batch, or a protocol batch of client batches; the
        nesting is flattened in order.
        """
        with self._deliver_lock:
            self._schedule_payload(payload)
            self._last_instance = max(self._last_instance, instance)

    def on_local_read(self, payload: Any) -> None:
        """Leaseholder-local read delivery (no consensus instance).

        Scheduled through the same conflict-ordered set as ordered
        commands, so a read is executed after every conflicting write
        already delivered here — which, at a valid leaseholder, is every
        write completed anywhere (see docs/ordering.md).  The read never
        advances ``last_instance``: it has no position in the total order.

        When the execution pipeline is idle the read skips the COS and
        executes inline on the delivering thread.  The idle check and the
        ``_scheduled`` claim happen in *one* ``_state_lock`` critical
        section (:meth:`_claim_idle_inline`): there is no window between
        "observed idle" and "claimed the inline slots" in which another
        thread could read a half-claimed counter pair.  Admission of new
        work cannot race the check at all — every path that inserts into
        the COS (``on_deliver``, this method) holds ``_deliver_lock``,
        which the read holds until it completes — so the read is still
        serialized after every conflicting write, without paying two
        worker handoffs.
        """
        with self._deliver_lock:
            commands = [command for command in _flatten_commands(payload)
                        if not self._is_duplicate(command)]
            if not commands:
                return
            if self._claim_idle_inline(len(commands)):
                self._execute_inline(commands)
            else:
                self._schedule_commands(commands)

    def _pipeline_idle_locked(self) -> bool:
        """Pipeline idleness predicate; ``_state_lock`` held by caller.

        ``executed == scheduled`` means every admitted command has
        finished executing — workers bump ``_executed`` only after the
        service call returns.  Subclasses with additional in-flight work
        outside these counters (speculation) strengthen the outer
        :meth:`_pipeline_idle` instead, to keep their own locks out of
        ``_state_lock``'s shadow.
        """
        return self._executed >= self._scheduled

    def _pipeline_idle(self) -> bool:
        """True iff every admitted command has finished executing."""
        with self._state_lock:
            return self._pipeline_idle_locked()

    def _claim_idle_inline(self, count: int) -> bool:
        """Atomically check idleness and claim ``count`` inline slots."""
        with self._state_lock:
            if not self._pipeline_idle_locked():
                return False
            self._scheduled += count
            return True

    def _schedule_payload(self, payload: Any) -> None:
        self._schedule_commands(
            command for command in _flatten_commands(payload)
            if not self._is_duplicate(command))

    def _schedule_commands(self, commands: Iterable[Command]) -> None:
        obs_on = self._obs_on
        obs = self.registry
        for command in commands:
            self._scheduled += 1
            if obs_on:
                obs.span(span_key(command), "delivered")
                entered = obs.clock()
            self._cos.insert(command)
            if obs_on:
                self._m_insert_latency.observe(obs.clock() - entered)
                self._m_scheduled.inc()
                obs.span(span_key(command), "scheduled")

    def _execute_inline(self, commands: List[Command]) -> None:
        """Execute an idle-pipeline read batch on the calling thread."""
        obs = self.registry
        obs_on = self._obs_on
        if obs_on:
            started = obs.clock()
            for command in commands:
                obs.span(span_key(command), "delivered")
                obs.span(span_key(command), "executing")
        responses = [self._execute_one(command) for command in commands]
        if obs_on:
            self._m_executed.inc(len(commands))
            self._m_scheduled.inc(len(commands))
            self._m_insert_latency.observe(obs.clock() - started)
            for command in commands:
                obs.span(span_key(command), "responded")
        with self._state_lock:
            self._executed += len(commands)
            for command, response in zip(commands, responses):
                self._fill_response(command, response)
        if self._on_response is not None:
            for command, response in zip(commands, responses):
                self._on_response(command, response, self.replica_id)

    def _is_duplicate(self, command: Command) -> bool:
        if command.client_id is None:
            return False
        if self._dedup_window:
            return self._is_duplicate_windowed(command)
        with self._state_lock:
            cached = self._dedup.get(command.client_id)
            if cached is not None and command.request_id <= cached[0]:
                duplicate_of_latest = command.request_id == cached[0]
                response = cached[1]
            else:
                self._dedup[command.client_id] = (
                    command.request_id, self._PENDING,
                )
                return False
        if (duplicate_of_latest and response is not self._PENDING
                and self._on_response is not None):
            # Retransmission of the latest executed command: re-answer.
            self._on_response(command, response, self.replica_id)
        return True

    def _is_duplicate_windowed(self, command: Command) -> bool:
        """Window-mode dedup: fresh request ids are accepted in any order.

        A request is a duplicate iff its id is still in the client's
        window.  The window only forgets a request once ``dedup_window``
        *newer* requests from the same client were delivered, so as long as
        a client's in-flight requests never exceed the window, every
        retransmission is recognized — without assuming ids arrive in
        order, which merged group streams do not guarantee.
        """
        with self._state_lock:
            window = self._dedup.get(command.client_id)
            if window is None:
                window = self._dedup[command.client_id] = OrderedDict()
            response = window.get(command.request_id, self._PENDING)
            duplicate = command.request_id in window
            if not duplicate:
                window[command.request_id] = self._PENDING
                while len(window) > self._dedup_window:
                    window.popitem(last=False)
        if (duplicate and response is not self._PENDING
                and self._on_response is not None):
            self._on_response(command, response, self.replica_id)
        return duplicate

    def _fill_response(self, command: Command, response: Any) -> None:
        """Record an executed command's response (``_state_lock`` held)."""
        if command.client_id is None:
            return
        cached = self._dedup.get(command.client_id)
        if cached is None:
            return
        if self._dedup_window:
            if command.request_id in cached:
                cached[command.request_id] = response
        # Only fill the slot this command reserved: in latest-only mode a
        # newer request from the same client may own it by now.
        elif cached[0] == command.request_id:
            self._dedup[command.client_id] = (command.request_id, response)

    # -------------------------------------------------------------- workers

    def _worker_loop(self, index: int = 0) -> None:
        cos = self._cos
        obs = self.registry
        obs_on = self._obs_on
        batch_limit = self.dispatch_batch
        if obs_on:
            worker = str(index)
            m_busy = obs.histogram("worker_busy_seconds", worker=worker)
            m_commands = obs.counter("worker_commands_total", worker=worker)
        while True:
            # Nothing of the last batch may survive into the blocking
            # get(): a node keeps, through ``nxt``, every node inserted
            # after it alive, and an idle worker can sit here for long.
            handle = handles = extra = stop_handle = command = commands = None
            handle = cos.get()
            command = cos.command_of(handle)
            if command.op == STOP_OP:
                cos.remove(handle)
                return
            handles = [handle]
            commands = [command]
            while stop_handle is None and len(handles) < batch_limit:
                # Drain whatever else is ready right now: simultaneously
                # ready commands are pairwise non-conflicting, so they can
                # ride to the engine in one execute_many batch.
                extra = cos.try_get()
                if extra is None:
                    break
                command = cos.command_of(extra)
                if command.op == STOP_OP:
                    # A stop pill conflicts with everything, so it cannot
                    # normally be ready alongside live work; handle it
                    # anyway — finish the batch, then retire.
                    stop_handle = extra
                else:
                    handles.append(extra)
                    commands.append(command)
            if obs_on:
                started = obs.clock()
                for command in commands:
                    obs.span(span_key(command), "executing")
            self._run_batch(commands)
            if obs_on:
                m_busy.observe(obs.clock() - started)
                m_commands.inc(len(commands))
                self._m_executed.inc(len(commands))
                for command in commands:
                    obs.span(span_key(command), "responded")
            for handle in handles:
                cos.remove(handle)
            if stop_handle is not None:
                cos.remove(stop_handle)
                return

    def _run_batch(self, commands: List[Command]) -> List[Any]:
        """Execute one ready batch and publish its results (worker hook).

        The commands are pairwise non-conflicting and simultaneously
        ready, so ``execute_many``-capable services may run them as one
        engine dispatch.  Publishing — the ``_executed`` bump, response
        caching, and client callbacks — happens here so subclasses can
        reroute the whole execution path
        (:class:`~repro.spec.replica.SpeculativeReplica` captures undo
        records and *withholds* responses until commit instead).
        """
        responses = self._execute(commands)
        with self._state_lock:
            self._executed += len(commands)
            for command, response in zip(commands, responses):
                self._fill_response(command, response)
        if self._on_response is not None:
            for command, response in zip(commands, responses):
                self._on_response(command, response, self.replica_id)
        return responses

    def _execute(self, commands: List[Command]) -> List[Any]:
        """The responses of ``commands``: one ``execute_many`` dispatch
        where the service has it (the mp engine answers a failed command
        of the batch in its :class:`~repro.errors.ShardCommandError`),
        else one ``execute`` each."""
        if self._execute_many is not None and len(commands) > 1:
            try:
                return self._execute_many(commands)
            except ShardCommandError as error:
                return error.responses
        return [self._execute_one(command) for command in commands]

    def _execute_one(self, command: Command) -> Any:
        """``command``'s response; a service error is answered as
        :func:`~repro.smr.service.error_response`.  An engine fault still
        raises: it is this replica's, not the command's, and the other
        replicas answer the command."""
        try:
            return self.service.execute(command)
        except ShardCommandError as error:
            return error.responses[0]
        except (ShardError, ShutdownError):
            raise
        except Exception as error:  # noqa: BLE001 - the command's answer
            return error_response(type(error).__name__, str(error))

    # ------------------------------------------------------------ inspection

    @property
    def executed(self) -> int:
        """Commands executed so far."""
        with self._state_lock:
            return self._executed

    @property
    def last_instance(self) -> int:
        """Highest atomic-broadcast instance delivered so far (-1 if none)."""
        return self._last_instance

    def take_checkpoint(self, timeout: float = 5.0) -> Checkpoint:
        """Quiesce and snapshot a consistent cut (see smr/checkpoint.py).

        Delivery is blocked while in-flight commands drain; on success the
        returned checkpoint reflects every command of every instance up to
        :attr:`last_instance`.
        """
        with self._deliver_lock:
            self._quiesce(timeout)
            with self._state_lock:
                if self._dedup_window:
                    dedup = {
                        client: OrderedDict(
                            (rid, response)
                            for rid, response in window.items()
                            if response is not self._PENDING)
                        for client, window in self._dedup.items()
                    }
                else:
                    dedup = {
                        client: entry
                        for client, entry in self._dedup.items()
                        if entry[1] is not self._PENDING
                    }
            return Checkpoint(self._last_instance, self.service.snapshot(),
                              dedup)

    def _quiesce(self, timeout: float) -> None:
        """Wait until every admitted command has finished executing;
        ``_deliver_lock`` held by the caller, so nothing new is admitted."""
        # monotonic, not wall clock: an NTP step while quiescing must
        # not fire the deadline early (or postpone it forever).
        deadline = time.monotonic() + timeout
        while not self._pipeline_idle():
            if time.monotonic() > deadline:
                raise CheckpointError(
                    f"replica {self.replica_id} did not quiesce within "
                    f"{timeout}s")
            time.sleep(0.001)

    def install_checkpoint(self, checkpoint: Checkpoint,
                           timeout: float = 5.0) -> None:
        """Adopt a peer's checkpoint, before :meth:`start` or while running.

        A running replica is quiesced first, as in :meth:`take_checkpoint`:
        delivery is blocked, the pipeline drains, then service state, dedup
        table and ``last_instance`` are replaced as one cut.  Requests the
        checkpoint covers are afterwards answered from its dedup table, not
        re-executed.  A checkpoint older than what this replica already
        delivered is ignored — installing it would roll the state back.
        """
        with self._deliver_lock:
            if checkpoint.instance < self._last_instance:
                return
            self._quiesce(timeout)
            self.service.restore(checkpoint.state)
            if self._dedup_window:
                dedup: Dict[str, Any] = {
                    client: OrderedDict(window)
                    for client, window in checkpoint.dedup.items()}
            else:
                dedup = dict(checkpoint.dedup)
            with self._state_lock:
                self._dedup = dedup
            self._last_instance = checkpoint.instance

    def cached_response(self, client_id: str) -> Optional[Tuple[int, Any]]:
        """Last (request_id, response) executed for ``client_id``, if any."""
        cached = self._dedup.get(client_id)
        if cached is None:
            return None
        if self._dedup_window:
            for request_id in reversed(cached):
                if cached[request_id] is not self._PENDING:
                    return (request_id, cached[request_id])
            return None
        if cached[1] is self._PENDING:
            return None
        return cached

