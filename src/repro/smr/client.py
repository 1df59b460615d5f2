"""Closed-loop SMR clients.

A client stamps each command with its ``client_id`` and a monotonically
increasing ``request_id``, atomically broadcasts it through a contact
replica, and blocks until the first replica response arrives (crash model:
any single response is correct).  On timeout it retransmits through another
contact; replica-side deduplication makes retransmission safe.

``execute_batch`` sends several commands in one broadcast payload — the
client-side batching interface the paper added to BFT-SMaRt (§7.1).

:func:`run_closed_loop` drives several such clients at once, one thread
each, and measures them — the paper's §7.1 client model, shared by the
wall-clock benches of both live runtimes.
"""

from __future__ import annotations

import dataclasses
import queue
import statistics
import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.command import Command
from repro.errors import ShutdownError
from repro.obs.stats import quantile

__all__ = ["Client", "ClientTimeout", "ClosedLoopStats", "run_closed_loop"]

# submit(payload, contact_replica) — provided by the cluster.
SubmitFn = Callable[[Tuple[Command, ...], int], None]


class ClientTimeout(ShutdownError):
    """No replica answered within the retry budget."""


class Client:
    """Blocking, closed-loop client with retransmission."""

    def __init__(
        self,
        client_id: str,
        submit: SubmitFn,
        n_replicas: int,
        contact: int = 0,
        timeout: float = 1.0,
        max_retries: int = 5,
    ):
        self.client_id = client_id
        self._submit = submit
        self._n_replicas = n_replicas
        self._contact = contact % n_replicas
        self._timeout = timeout
        self._max_retries = max_retries
        self._next_request_id = 1
        self._responses: "queue.Queue[Tuple[int, Any]]" = queue.Queue()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- plumbing

    def deliver_response(self, command: Command, response: Any) -> None:
        """Called by the cluster when any replica answers this client."""
        self._responses.put((command.request_id, response))

    # ------------------------------------------------------------------ API

    def execute(self, command: Command) -> Any:
        """Broadcast one command and return its response."""
        return self.execute_batch([command])[0]

    def execute_batch(self, commands: Sequence[Command]) -> List[Any]:
        """Broadcast ``commands`` as one payload; return their responses.

        Responses come back in command order.  All commands of the batch
        share one payload, so the ordering protocol handles them in a
        single consensus instance when they fit the leader's batch.
        """
        if not commands:
            return []
        with self._lock:
            stamped = []
            for command in commands:
                stamped.append(
                    dataclasses.replace(
                        command,
                        client_id=self.client_id,
                        request_id=self._next_request_id,
                    )
                )
                self._next_request_id += 1
            return self._roundtrip(tuple(stamped))

    # ------------------------------------------------------------- internals

    def _roundtrip(self, payload: Tuple[Command, ...]) -> List[Any]:
        wanted = {cmd.request_id for cmd in payload}
        responses = {}
        contact = self._contact
        for attempt in range(self._max_retries + 1):
            try:
                self._submit(payload, contact)
            except ShutdownError:
                # Contact gone (crashed/stopped): count as a failed attempt
                # and try the next replica.
                contact = (contact + 1) % self._n_replicas
                continue
            # One deadline per attempt: every ``get`` below is budgeted the
            # *remaining* time, so a batch of k commands cannot stretch the
            # attempt to k * timeout while a slow replica drips responses.
            deadline = time.monotonic() + self._timeout
            try:
                while wanted - responses.keys():
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise queue.Empty
                    request_id, response = self._responses.get(timeout=remaining)
                    if request_id in wanted:
                        # Keep the first response per request; replicas all
                        # answer, later ones are redundant in crash mode.
                        responses.setdefault(request_id, response)
                return [responses[cmd.request_id] for cmd in payload]
            except queue.Empty:
                contact = (contact + 1) % self._n_replicas  # try elsewhere
        raise ClientTimeout(
            f"client {self.client_id}: no response after "
            f"{self._max_retries + 1} attempts"
        )

    @property
    def requests_issued(self) -> int:
        """Request ids consumed so far."""
        return self._next_request_id - 1


@dataclasses.dataclass(frozen=True)
class ClosedLoopStats:
    """What :func:`run_closed_loop` measured (seconds are wall clock)."""

    executed: int                     # commands answered
    errors: int                       # commands of batches that timed out
    duration: float
    latencies: Tuple[float, ...]      # per answered batch, ascending

    @property
    def throughput(self) -> float:
        return self.executed / self.duration if self.duration > 0 else 0.0

    @property
    def latency_mean(self) -> float:
        return statistics.fmean(self.latencies) if self.latencies else 0.0

    def latency_quantile(self, fraction: float) -> float:
        return quantile(self.latencies, fraction)


def run_closed_loop(clients: Sequence[Any], workloads: Sequence[Any],
                    batches: int, batch: int,
                    observe: Optional[Callable[..., Callable]] = None,
                    meanwhile: Optional[Callable[[], None]] = None,
                    ) -> ClosedLoopStats:
    """Run ``clients[i]`` over ``workloads[i]`` on one thread each:
    ``batches`` requests of ``workload.commands(batch)`` (a workload may
    return fewer), the next sent when the previous is answered or has
    timed out.  ``observe(index, client, commands, started)`` runs before
    a batch is sent and what it returns is called with the finish time
    once the batch is answered; ``meanwhile`` runs on the calling thread
    while the clients work (fault injection)."""
    per_client: List[List[float]] = [[] for _ in clients]
    sent = [0] * len(clients)
    answered = [0] * len(clients)

    def client_loop(index: int) -> None:
        client, workload = clients[index], workloads[index]
        for _ in range(batches):
            commands = workload.commands(batch)
            sent[index] += len(commands)
            started = time.monotonic()
            on_answer = (observe(index, client, commands, started)
                         if observe is not None else None)
            try:
                client.execute_batch(commands)
            except ClientTimeout:
                continue
            finished = time.monotonic()
            if on_answer is not None:
                on_answer(finished)
            answered[index] += len(commands)
            per_client[index].append(finished - started)

    threads = [threading.Thread(target=client_loop, args=(index,),
                                daemon=True)
               for index in range(len(clients))]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    if meanwhile is not None:
        meanwhile()
    for thread in threads:
        thread.join()
    duration = time.monotonic() - started
    latencies = sorted(latency for own in per_client for latency in own)
    executed = sum(answered)
    return ClosedLoopStats(executed, sum(sent) - executed, duration,
                           tuple(latencies))
