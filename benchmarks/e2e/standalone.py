"""The ``standalone-cos`` deployment: one in-process replica pipeline.

``ParallelReplica`` over the linked-list service is fed whole deliveries
the way the broadcast layer would feed it (``on_deliver``) and answers
through its response callback; codec, transport and ordering do nothing.
Paper §7.3 / Figs. 2-3 in wall-clock.

A delivery is 16 generated commands.  The closed loop delivers back to
back — ``on_deliver`` blocks while the graph is full, which is the
back-pressure — so the graph stays full; the open loop delivers on a fixed
schedule.  A command is timed from when its delivery was due to when the
response callback ran.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps import build_service
from repro.core.command import Command
from repro.obs import MetricsRegistry
from repro.smr.replica import ParallelReplica
from repro.workload import WorkloadGenerator

from deploy import SetupError, pin_process, placement, process_rss_mb
from loadgen import Record, Sample, SliceClock
from workloads import (COS_ALGORITHM, KEY_SPACE, SERVICE, STANDALONE_BATCH,
                       WORKERS, Workload)

__all__ = ["StandaloneDeployment"]

#: A delivered command with no response this long after delivery failed.
RESPONSE_TIMEOUT = 2.0

_UNANSWERED = array("d", [0.0] * STANDALONE_BATCH)
_NO_RESPONSE = [None] * STANDALONE_BATCH


class StandaloneDeployment:
    """In-process ``ParallelReplica`` plus the feeder that drives it."""

    def __init__(self, workload: Workload, seed: int, traced: bool):
        self._workload = workload
        self._seed = seed
        self._generator = WorkloadGenerator(
            workload.write_pct, key_space=KEY_SPACE, seed=seed)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if traced else None)
        self._replica: Optional[ParallelReplica] = None
        # The process measured is this one, so the books are kept small:
        # 16 bytes a command.  The generator numbers its commands 1, 2, ...;
        # command ``r`` is entry ``r - 1`` and belongs to delivery
        # ``(r - 1) // STANDALONE_BATCH``.
        #: Per delivery: when it was due, and when ``on_deliver`` returned.
        self._due: List[float] = []
        self._sent: List[float] = []
        #: Per command, filled by the worker threads: when its response
        #: came (0.0 until then), and the response.
        self._done = array("d")
        self._responses: List[Any] = []
        #: Commands ``_drain`` has waited for / ``take_records`` handed over.
        self._drained = 0
        self._taken = 0
        self.attempted = 0
        self.timeouts = 0
        self.mismatches = 0

    def start(self) -> float:
        began = time.perf_counter()
        # One interpreter lock: the threads gain nothing from a second CPU
        # and lose by being moved between them.
        pin_process(os.getpid(), {placement()[0]})
        self._service = build_service(
            SERVICE, initial_size=self._workload.initial_size)
        self._replica = ParallelReplica(
            0, self._service, COS_ALGORITHM, workers=WORKERS,
            on_response=self._on_response, registry=self.registry)
        self._replica.start()
        self._deliver(time.perf_counter())
        self._drain()
        if self.timeouts:
            self.stop()
            raise SetupError(
                f"{self._workload.name}: no response within "
                f"{RESPONSE_TIMEOUT:.0f}s of the first delivery")
        return time.perf_counter() - began

    def stop(self) -> None:
        if self._replica is not None:
            self._replica.stop(timeout=2.0)
            self._replica = None

    def cpu_sample(self) -> Sample:
        return {"process": time.process_time()}

    def rss_mb(self) -> float:
        return process_rss_mb(os.getpid())

    def scrape(self) -> List[Dict[str, Any]]:
        return [self.registry.snapshot()] if self.registry else []

    # ---------------------------------------------------------------- feeder

    def _on_response(self, command: Command, response: Any,
                     replica_id: int) -> None:
        index = command.request_id - 1
        self._responses[index] = response
        self._done[index] = time.perf_counter()

    def _deliver(self, due: float) -> None:
        batch = tuple(self._generator.commands(STANDALONE_BATCH))
        assert batch[0].request_id == len(self._done) + 1
        self._due.append(due)
        self._done.extend(_UNANSWERED)
        self._responses.extend(_NO_RESPONSE)
        self.attempted += len(batch)
        self._replica.on_deliver(len(self._due) - 1, batch)
        self._sent.append(time.perf_counter())

    def _drain(self) -> None:
        """Wait for every delivered command's response; count the missing."""
        deadline = time.perf_counter() + RESPONSE_TIMEOUT
        index = self._drained
        while index < len(self._done):
            if self._done[index]:
                index += 1
            elif time.perf_counter() > deadline:
                break
            else:
                time.sleep(0.001)
        self.timeouts += sum(
            1 for index in range(index, len(self._done))
            if not self._done[index])
        self._drained = len(self._done)

    def take_records(self) -> Tuple[Iterator[Record], List[float]]:
        """The records since the last call (read once), and no send costs."""
        first, self._taken = self._taken, self._drained
        records = (
            (self._due[index // STANDALONE_BATCH],
             self._sent[index // STANDALONE_BATCH], self._done[index])
            for index in range(first, self._drained) if self._done[index])
        return records, []

    def run_closed(self, duration: float, slices: int,
                   sample: Callable[[], Sample]) -> SliceClock:
        clock = SliceClock(time.perf_counter(), duration, slices, sample)
        while clock.tick(time.perf_counter()):
            self._deliver(time.perf_counter())
        self._drain()
        return clock

    def run_paced(self, rate: float, duration: float, slices: int,
                  sample: Callable[[], Sample]) -> SliceClock:
        start = time.perf_counter()
        clock = SliceClock(start, duration, slices, sample)
        interval = STANDALONE_BATCH / rate
        for k in range(int(duration / interval)):
            due = start + k * interval
            while True:
                now = time.perf_counter()
                clock.tick(now)
                if now >= due:
                    break
                time.sleep(due - now)
            self._deliver(due)
        clock.run_out()
        self._drain()
        return clock

    # ---------------------------------------------------------- verification

    @property
    def failed(self) -> int:
        return self.timeouts + self.mismatches

    def verify(self) -> None:
        """Replay the delivered stream sequentially; count disagreements.

        Conflicting commands execute in delivery order, so every response
        and the final state must equal those of a one-at-a-time replay
        through a fresh service.  The stream is a function of the seed, so
        it is generated again, not kept.
        """
        reference = build_service(
            SERVICE, initial_size=self._workload.initial_size)
        stream = WorkloadGenerator(
            self._workload.write_pct, key_space=KEY_SPACE, seed=self._seed)
        mismatches = 0
        for index in range(self.attempted):
            expected = reference.execute(stream.next_command())
            # An unanswered command is already counted as a timeout.
            if self._done[index] and self._responses[index] != expected:
                mismatches += 1
        if self._service.snapshot() != reference.snapshot():
            mismatches += 1
        self.mismatches = mismatches
