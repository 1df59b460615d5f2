"""In-memory message transport with fault injection.

Connects protocol nodes within one process.  Message passing is one-to-one
(the system model's ``send``/``receive``); the transport can inject
per-link delay, probabilistic loss, duplication, and partitions, all driven
by a seeded RNG so failure scenarios replay deterministically.

Two drivers share this configuration:

- :class:`ThreadedTransport` — delivers through per-node queues consumed by
  :class:`~repro.broadcast.node.ThreadedNode` event loops.
- The simulated cluster (:mod:`repro.smr.sim_cluster`) reuses
  :class:`FaultPlan` to decide the fate of each message on the virtual clock.
"""

from __future__ import annotations

import queue
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ShutdownError

__all__ = ["FaultPlan", "LinkFate", "ThreadedTransport"]


@dataclass(frozen=True)
class LinkFate:
    """What happens to one message: ``copies`` deliveries after ``delays``."""

    copies: int
    delays: Tuple[float, ...]


class FaultPlan:
    """Seeded fault-injection policy shared by both transport drivers."""

    def __init__(
        self,
        seed: int = 0,
        min_delay: float = 50e-6,
        max_delay: float = 150e-6,
        loss: float = 0.0,
        duplication: float = 0.0,
    ):
        if not 0 <= loss < 1:
            raise ConfigurationError(f"loss must be in [0, 1), got {loss}")
        if not 0 <= duplication < 1:
            raise ConfigurationError(
                f"duplication must be in [0, 1), got {duplication}"
            )
        if min_delay < 0 or max_delay < min_delay:
            raise ConfigurationError(
                f"need 0 <= min_delay <= max_delay, got [{min_delay}, {max_delay}]"
            )
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss = loss
        self.duplication = duplication
        self._partitioned: Set[frozenset] = set()

    # ------------------------------------------------------------ partitions

    def partition(self, a: int, b: int) -> None:
        """Cut the (bidirectional) link between nodes ``a`` and ``b``."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._partitioned

    # ---------------------------------------------------------------- policy

    def fate(self, src: int, dst: int) -> LinkFate:
        """Decide the fate of one message from ``src`` to ``dst``.

        Thread-safe: concurrent senders draw whole fates atomically, so the
        RNG stream is consumed in fate-sized chunks and the multiset of
        fates produced equals a serial run with the same seed.  The
        *assignment* of fates to links still depends on cross-thread call
        order, so exact replay of a threaded run is not guaranteed — use
        the simulated cluster (:mod:`repro.smr.sim_cluster`) when a
        bit-exact failure replay is needed.
        """
        if self.is_partitioned(src, dst):
            return LinkFate(0, ())
        with self._rng_lock:
            rng = self._rng
            if self.loss and rng.random() < self.loss:
                return LinkFate(0, ())
            copies = 1
            if self.duplication and rng.random() < self.duplication:
                copies = 2
            delays = tuple(
                rng.uniform(self.min_delay, self.max_delay)
                for _ in range(copies)
            )
        return LinkFate(copies, delays)


class ThreadedTransport:
    """Queue-based transport for threaded deployments.

    Each node owns an inbox; ``send`` applies the fault plan and enqueues
    ``(src, msg)`` into the destination inbox.  Delays are implemented with
    ``threading.Timer`` so they do not block the sender.
    """

    def __init__(self, n: int, plan: Optional[FaultPlan] = None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        self.n = n
        self.plan = plan or FaultPlan()
        self._inboxes: List["queue.Queue[Tuple[int, Any]]"] = [
            queue.Queue() for _ in range(n)
        ]
        self._crashed: Set[int] = set()
        self._closed = False
        self._timers: List[threading.Timer] = []
        self._lock = threading.Lock()

    def inbox(self, node_id: int) -> "queue.Queue[Tuple[int, Any]]":
        return self._inboxes[node_id]

    def crash(self, node_id: int) -> None:
        """Drop all traffic to and from ``node_id`` (crash-stop model), and
        what is queued for it: a node rebuilt in its place starts from a
        fresh inbox, not from stale pre-crash messages or the old event
        loop's stop sentinel."""
        self._crashed.add(node_id)
        self._inboxes[node_id] = queue.Queue()

    def recover(self, node_id: int) -> None:
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    def send(self, src: int, dst: int, msg: Any) -> None:
        if self._closed:
            raise ShutdownError("transport is closed")
        if src in self._crashed or dst in self._crashed:
            return
        fate = self.plan.fate(src, dst)
        for delay in fate.delays:
            if delay <= 0:
                self._inboxes[dst].put((src, msg))
                continue
            self._schedule_late(delay, src, dst, msg)

    def _schedule_late(self, delay: float, src: int, dst: int,
                       msg: Any) -> None:
        timer = threading.Timer(
            delay, lambda: self._deliver_late(timer, src, dst, msg)
        )
        timer.daemon = True
        with self._lock:
            self._timers.append(timer)
        timer.start()

    def _deliver_late(self, timer: threading.Timer, src: int, dst: int,
                      msg: Any) -> None:
        # Prune the fired timer immediately; keeping every timer until
        # close() grows without bound in long-running clusters.
        with self._lock:
            try:
                self._timers.remove(timer)
            except ValueError:
                pass  # close() raced us and already reaped it
        if self._closed or dst in self._crashed or src in self._crashed:
            return
        self._inboxes[dst].put((src, msg))

    def close(self) -> None:
        """Stop delivering; cancel outstanding delayed messages."""
        self._closed = True
        with self._lock:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
