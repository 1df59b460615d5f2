"""Threaded event-loop adapter for broadcast protocol state machines.

A :class:`ThreadedNode` owns one protocol state machine (MultiPaxos or
SequencerBroadcast), consumes its transport inbox on a dedicated thread, and
performs the actions the state machine returns: sends go to the transport,
delivers go to the application callback, timers are kept in a local heap,
and snapshot transfers (``SendSnapshot`` / ``InstallSnapshot``) go through
the two optional application hooks.

The state machine is only ever touched from the event-loop thread, so it
needs no internal locking; ``submit`` is made thread-safe by routing client
payloads through the inbox.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import queue
import threading
import time
import warnings
from typing import Any, Callable, List, Optional, Tuple

from repro.broadcast.messages import (
    Deliver,
    DeliverOptimistic,
    DeliverRead,
    InstallSnapshot,
    Send,
    SendSnapshot,
    SetTimer,
    Snapshot,
)
from repro.broadcast.transport import ThreadedTransport
from repro.errors import ReproError, ShutdownError

__all__ = ["ThreadedNode"]

_SUBMIT = object()       # inbox sentinel: client payload
_SUBMIT_READ = object()  # inbox sentinel: read-only client payload
_STOP = object()         # inbox sentinel: shut down

DeliverCallback = Callable[[int, Any], None]
ReadCallback = Callable[[Any], None]
OptimisticCallback = Callable[[Any], None]
#: Quiesce the application and return its state as a :class:`Snapshot`.
TakeSnapshot = Callable[[], Snapshot]
#: Restore the application from a peer's :class:`Snapshot`.
InstallCallback = Callable[[Snapshot], None]


class ThreadedNode:
    """Runs a protocol state machine on its own thread."""

    def __init__(
        self,
        node_id: int,
        protocol: Any,
        transport: ThreadedTransport,
        on_deliver: DeliverCallback,
        name: Optional[str] = None,
        on_read: Optional[ReadCallback] = None,
        on_optimistic: Optional[OptimisticCallback] = None,
        take_snapshot: Optional[TakeSnapshot] = None,
        install_snapshot: Optional[InstallCallback] = None,
    ):
        self.node_id = node_id
        self.protocol = protocol
        self._transport = transport
        self._on_deliver = on_deliver
        self._on_read = on_read
        self._on_optimistic = on_optimistic
        self._take_snapshot = take_snapshot
        self._install_snapshot = install_snapshot
        #: The last snapshot taken, reused while the protocol accepts it.
        self._snapshot: Optional[Snapshot] = None
        self._inbox = transport.inbox(node_id)
        self._timers: List[Tuple[float, int, str]] = []
        self._timer_seq = itertools.count()
        self._was_leader = False
        self._last_hint: Optional[int] = None
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=name or f"node-{node_id}", daemon=True
        )

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        self._thread.start()

    def submit(self, payload: Any) -> None:
        """Hand a client payload to the protocol (thread-safe)."""
        if self._stopped.is_set():
            raise ShutdownError(f"node {self.node_id} is stopped")
        self._inbox.put((_SUBMIT, payload))

    def submit_read(self, payload: Any) -> None:
        """Hand a read-only payload to the protocol (thread-safe).

        Eligible for the leaseholder's local fast path; falls back to the
        ordered path when the protocol has no read support or no read
        callback was wired.
        """
        if self._stopped.is_set():
            raise ShutdownError(f"node {self.node_id} is stopped")
        self._inbox.put((_SUBMIT_READ, payload))

    def stop(self) -> None:
        """Stop the event loop; idempotent."""
        if not self._stopped.is_set():
            self._stopped.set()
            self._inbox.put((_STOP, None))

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # ----------------------------------------------------------- event loop

    def _run(self) -> None:
        self._step(self.protocol.start())
        while True:
            timeout = self._until_next_timer()
            try:
                src, msg = self._inbox.get(timeout=timeout)
            except queue.Empty:
                self._fire_due_timers()
                continue
            if src is _STOP:
                return
            if self._stopped.is_set():
                return
            if src is _SUBMIT:
                self._step(self.protocol.submit(msg))
            elif src is _SUBMIT_READ:
                self._step(self._submit_read_actions(msg))
            else:
                self._step(self.protocol.on_message(src, msg))
            self._fire_due_timers()

    def _submit_read_actions(self, payload: Any) -> List[Any]:
        submit_read = getattr(self.protocol, "submit_read", None)
        if submit_read is None or self._on_read is None:
            return self.protocol.submit(payload)
        return submit_read(payload)

    def _until_next_timer(self) -> Optional[float]:
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    def _fire_due_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _, _, timer_name = heapq.heappop(self._timers)
            self._step(self.protocol.on_timer(timer_name))

    def _step(self, actions: List[Any]) -> None:
        """Perform one protocol call's actions, then watch for step-down.

        Losing leadership — or, on a node that never led, learning of a new
        leader — strands any not-yet-proposed client payloads in the
        protocol's ``pending`` queue: nothing would ever re-forward them to
        the new leader (clients only recover by retrying into a timeout).
        Draining on the observed was-leader → follower transition and on
        every observed leader-hint change re-forwards them exactly once per
        new information, without re-triggering on every event (which could
        recirculate hop-exhausted payloads forever); the payloads carry
        their consumed hop budget, so even repeated hint churn is bounded.
        """
        self._perform(actions)
        is_leader = bool(getattr(self.protocol, "is_leader", False))
        hint_of = getattr(self.protocol, "leader_hint", None)
        hint = hint_of() if hint_of is not None else None
        stepped_down = self._was_leader and not is_leader
        hint_changed = (
            not is_leader
            and hint is not None
            and self._last_hint is not None
            and hint != self._last_hint
        )
        if stepped_down or hint_changed:
            drain = getattr(self.protocol, "drain_pending_forwards", None)
            if drain is not None:
                self._perform(drain())
        self._was_leader = is_leader
        self._last_hint = hint

    def _perform(self, actions: List[Any]) -> None:
        for action in actions:
            kind = type(action)
            if kind is Send:
                self._transport.send(self.node_id, action.dst, action.msg)
            elif kind is Deliver:
                self._on_deliver(action.instance, action.payload)
            elif kind is DeliverRead:
                if self._on_read is None:  # pragma: no cover - defensive
                    raise TypeError(
                        "protocol emitted DeliverRead but no on_read "
                        "callback is wired")
                self._on_read(action.payload)
            elif kind is DeliverOptimistic:
                # An optimistic delivery is advisory: a node without a
                # speculative consumer simply waits for the conservative
                # delivery of the same payload.
                if self._on_optimistic is not None:
                    self._on_optimistic(action.payload)
            elif kind is SendSnapshot:
                self._send_snapshot(action)
            elif kind is InstallSnapshot:
                self._install(action.snapshot)
            elif kind is SetTimer:
                heapq.heappush(
                    self._timers,
                    (
                        time.monotonic() + action.delay,
                        next(self._timer_seq),
                        action.name,
                    ),
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown protocol action {action!r}")

    def _send_snapshot(self, action: SendSnapshot) -> None:
        """Ship the application's state, quiescing it only when the cached
        snapshot is older than the protocol allows."""
        if self._take_snapshot is None:
            return  # no application hook wired: the peer keeps asking
        snapshot = self._snapshot
        try:
            if snapshot is None or snapshot.instance < action.min_instance:
                # Every Deliver up to the protocol's frontier was performed
                # on this thread already.  The application only counts
                # instances that delivered something, so stamp the frontier
                # itself: trailing no-op instances are covered too.
                frontier = self.protocol.next_deliver - 1
                snapshot = self._take_snapshot()
                if snapshot.instance < frontier:
                    snapshot = dataclasses.replace(snapshot, instance=frontier)
                self._snapshot = snapshot
            self._transport.send(self.node_id, action.dst, snapshot)
        except ShutdownError:
            raise
        except ReproError as error:
            # Did not quiesce, or the state does not fit one frame
            # (docs/ordering.md): the peer stays behind, this node goes on.
            warnings.warn(
                f"node {self.node_id}: no snapshot sent to node "
                f"{action.dst}: {error}", RuntimeWarning)

    def _install(self, snapshot: Snapshot) -> None:
        if self._install_snapshot is None:
            return
        try:
            self._install_snapshot(snapshot)
        except ShutdownError:
            raise
        except ReproError as error:
            warnings.warn(
                f"node {self.node_id}: snapshot at instance "
                f"{snapshot.instance} not installed: {error}", RuntimeWarning)
            return
        # Only now may the protocol skip ahead: the application is there.
        self._perform(self.protocol.on_snapshot_installed(snapshot.instance))
