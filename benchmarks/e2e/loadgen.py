"""Single-process load generator: a pool of virtual clients on one transport.

The whole generator is two threads — the caller's (the *pacer*, which
decides when to send) and the :class:`~repro.net.TcpTransport` loop thread
(which receives replies) — and two connections: one outbound to the contact
replica and the replica's dial-back.  It multiplexes *virtual clients*:
every outstanding request has a ``client_id`` of its own, because the
replica deduplicates on each client's latest request id and a leased read
can overtake an ordered write of the same client.

Two modes, both timing a request from when it was *due*:

- :meth:`ClientPool.run_closed` — a closed loop: ``clients`` virtual clients
  each keep one request outstanding; a client's next request is due the
  moment its previous reply arrived.
- :meth:`ClientPool.run_paced` — an open loop at a fixed rate: request ``k``
  is due at ``start + k / rate`` whether or not earlier ones were answered,
  so a stall delays (and is charged to) every request due during it.

A request unanswered after the timeout is a *failure*; it is never retried,
so a drop cannot hide behind a retransmission.
"""

from __future__ import annotations

import queue
import threading
from bisect import bisect_right
import time
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.core.command import Command
from repro.net import ClientRequest, ClientResponse, TcpTransport, free_port
from repro.net.config import NetConfig
from repro.obs.stats import quantile
from repro.workload import READ_OP, WRITE_OP

__all__ = ["ClientPool", "SliceClock", "Record", "Sample", "phase_stats"]

#: Transport node id of the load generator (above any replica id).
CLIENT_NODE_ID = 1000

#: The replica the measured phases talk to.
CONTACT = 0

#: How often the pacer looks for requests past their timeout.
_SCAN_INTERVAL = 0.05

#: Timeout of a read-back.  A commit needs a quorum, so a follower may end
#: the saturated phase seconds of work behind the leader; its answer has to
#: be right, not prompt.
VERIFY_TIMEOUT = 20.0

#: One completed request: (due, sent, done) on ``time.perf_counter``.
Record = Tuple[float, float, float]

Sample = Dict[str, float]


class SliceClock:
    """Cuts a phase into equal slices and takes a sample at every edge.

    ``edges[k]``/``samples[k]`` are the time and the ``sample()`` reading
    at the start of slice ``k``; the last pair closes the last slice.  An
    edge is stamped when the driver actually got there, so a sample and
    its edge always agree even if the driver was late.
    """

    def __init__(self, start: float, duration: float, slices: int,
                 sample: Callable[[], Sample]):
        self._sample = sample
        self._planned = [start + duration * k / slices
                         for k in range(1, slices + 1)]
        self.edges: List[float] = [start]
        self.samples: List[Sample] = [sample()]

    @property
    def next_edge(self) -> float:
        return self._planned[len(self.edges) - 1]

    def tick(self, now: float) -> bool:
        """Record every edge reached by ``now``; False once the phase ended."""
        while len(self.edges) <= len(self._planned):
            if now < self._planned[len(self.edges) - 1]:
                return True
            self.samples.append(self._sample())
            self.edges.append(now)
        return False

    def run_out(self) -> None:
        """Sleep through what is left of the phase, recording its edges."""
        while self.tick(time.perf_counter()):
            time.sleep(max(0.0, self.next_edge - time.perf_counter()))


class _Outstanding:
    __slots__ = ("request_id", "contact", "due", "sent", "is_add", "key",
                 "must_hold")

    def __init__(self, request_id: int, contact: int, due: float,
                 sent: float, is_add: bool, key: int, must_hold: bool):
        self.request_id = request_id
        #: The replica asked; only its reply answers the request.
        self.contact = contact
        self.due = due
        self.sent = sent
        self.is_add = is_add
        self.key = key
        #: ``contains(key)`` was sent after ``add(key)`` was acknowledged.
        self.must_hold = must_hold


class ClientPool:
    """Virtual clients multiplexed over one transport.

    ``commands`` yields the workload's anonymous commands; the pool stamps
    each with the sending virtual client's identity.  ``transport`` is for
    the self-check, which substitutes an in-memory fake.
    """

    def __init__(self, config: NetConfig, commands: Iterator[Command],
                 size: int, initial_keys: int, transport: Any = None):
        self._commands = commands
        self._timeout = config.client_timeout
        self._initial_keys = initial_keys
        self._host = "127.0.0.1"
        self._port = free_port(self._host)
        self._lock = threading.Lock()
        self._slots: List[Optional[_Outstanding]] = [None] * size
        self._client_ids = [f"vc{slot}" for slot in range(size)]
        self._generation = [0] * size
        self._next_request_id = [0] * size
        self._slot_of: Dict[str, int] = {
            client_id: slot for slot, client_id in enumerate(self._client_ids)}
        self._free: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        self._sent_adds: set = set()
        #: Keys whose ``add`` a replica acknowledged (for :meth:`verify`).
        self.acked_adds: set = set()
        self.records: List[Record] = []
        self.send_costs: List[float] = []
        self.attempted = 0
        self.timeouts = 0
        self.wrong = 0
        self.strays = 0
        if transport is None:
            addresses = config.address_map()
            addresses[CLIENT_NODE_ID] = (self._host, self._port)
            transport = TcpTransport(
                CLIENT_NODE_ID, addresses, interceptor=self.on_message,
                seed=CLIENT_NODE_ID, wire=config.wire).start()
        self._transport = transport

    def close(self) -> None:
        self._transport.close()

    @property
    def failed(self) -> int:
        return self.timeouts + self.wrong

    def take_records(self) -> Tuple[List[Record], List[float]]:
        """Hand over (and forget) the records and send costs so far."""
        records, self.records = self.records, []
        costs, self.send_costs = self.send_costs, []
        return records, costs

    # ------------------------------------------------------------- sending

    def _send(self, slot: int, command: Command, due: float,
              contact: int) -> None:
        if self._slots[slot] is not None:
            raise RuntimeError(
                f"virtual client {self._client_ids[slot]} already has a "
                f"request outstanding")
        began = time.perf_counter()
        self._next_request_id[slot] += 1
        client_id = self._client_ids[slot]
        stamped = Command(command.op, command.args, client_id,
                          self._next_request_id[slot], writes=command.writes)
        key = command.args[0]
        is_add = command.op == WRITE_OP
        if is_add:
            self._sent_adds.add(key)
        request = ClientRequest(
            payload=(stamped,), reply_to=CLIENT_NODE_ID,
            reply_host=self._host, reply_port=self._port,
            client_id=client_id, read_only=not stamped.writes)
        entry = _Outstanding(
            stamped.request_id, contact, due, began, is_add, key,
            must_hold=key < self._initial_keys or key in self.acked_adds)
        self._slots[slot] = entry
        self.attempted += 1
        self._transport.send(CLIENT_NODE_ID, contact, request)
        entry.sent = time.perf_counter()
        self.send_costs.append(entry.sent - began)

    # ----------------------------------------------------------- receiving

    def on_message(self, src: int, msg: Any) -> bool:
        """Transport interceptor (loop thread): match a reply to its request.

        Only the replica that was asked answers a request: every replica
        that knows a ``client_id`` replies to an ordered command, and the
        read-back through replica ``c`` must not be satisfied by replica 0.
        """
        if not isinstance(msg, ClientResponse):
            return True
        done = time.perf_counter()
        command = msg.command
        # One step under the lock: once ``_drain`` sees the slot empty, its
        # record is booked and the slot is back in the free queue.
        with self._lock:
            slot = self._slot_of.get(command.client_id)
            entry = None if slot is None else self._slots[slot]
            if (entry is None or entry.request_id != command.request_id
                    or entry.contact != msg.replica_id):
                self.strays += 1
                return True
            self._slots[slot] = None
            if self._plausible(entry, msg.response):
                if entry.is_add:
                    self.acked_adds.add(entry.key)
                self.records.append((entry.due, entry.sent, done))
            else:
                self.wrong += 1
            self._free.put(slot)
        return True

    def _plausible(self, entry: _Outstanding, response: Any) -> bool:
        """Could a linearizable linked list have given this answer?

        Every reply is a bool.  ``contains(k)`` must be True if ``add(k)``
        was acknowledged before the read was sent (or ``k`` was
        pre-populated), and False if no ``add(k)`` was sent by the time the
        reply arrived; in between, either answer is linearizable.
        """
        if not isinstance(response, bool):
            return False
        if entry.is_add:
            return True
        if entry.must_hold:
            return response
        if entry.key not in self._sent_adds:
            return not response
        return True

    def _expire(self, now: float) -> None:
        """Fail requests past their timeout and retire their identities."""
        for slot, entry in enumerate(self._slots):
            if entry is None or now - entry.sent <= self._timeout:
                continue
            with self._lock:
                if self._slots[slot] is not entry:
                    continue  # answered while we looked
                self._slots[slot] = None
                self.timeouts += 1
                # The old identity may still be answered late; a fresh one
                # keeps "one client_id, one outstanding request" true.
                del self._slot_of[self._client_ids[slot]]
                self._generation[slot] += 1
                self._client_ids[slot] = f"vc{slot}.{self._generation[slot]}"
                self._slot_of[self._client_ids[slot]] = slot
                self._next_request_id[slot] = 0
                self._free.put(slot)

    # --------------------------------------------------------------- modes

    def _reset_free(self, clients: int) -> None:
        if clients > len(self._slots):
            raise ValueError(
                f"pool has {len(self._slots)} virtual clients, "
                f"{clients} requested")
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        for slot in range(clients):
            self._free.put(slot)

    def _take_free(self, until: float) -> Optional[int]:
        try:
            return self._free.get(
                timeout=max(0.0, until - time.perf_counter()))
        except queue.Empty:
            return None

    def _drain(self) -> None:
        """Wait until every outstanding request was answered or timed out."""
        while any(entry is not None for entry in self._slots):
            time.sleep(0.001)
            self._expire(time.perf_counter())

    def first_reply(self, deadline: float) -> bool:
        """Send one request at a time until one is answered (set-up)."""
        answered = len(self.records)
        while time.perf_counter() < deadline:
            self._reset_free(1)
            self._send(self._free.get(), next(self._commands),
                       time.perf_counter(), CONTACT)
            self._drain()
            if len(self.records) > answered:
                return True
        return False

    def run_closed(self, clients: int, duration: float, slices: int,
                   sample: Callable[[], Sample]) -> SliceClock:
        """Closed loop: ``clients`` virtual clients, one request each."""
        self._reset_free(clients)
        clock = SliceClock(time.perf_counter(), duration, slices, sample)
        next_scan = clock.edges[0] + _SCAN_INTERVAL
        while True:
            now = time.perf_counter()
            if not clock.tick(now):
                break
            if now >= next_scan:
                self._expire(now)
                next_scan = now + _SCAN_INTERVAL
            slot = self._take_free(min(clock.next_edge, next_scan))
            if slot is not None:
                self._send(slot, next(self._commands), time.perf_counter(),
                           CONTACT)
        self._drain()
        return clock

    def run_paced(self, rate: float, clients: int, duration: float,
                  slices: int, sample: Callable[[], Sample]) -> SliceClock:
        """Open loop: request ``k`` is due at ``start + k / rate``."""
        self._reset_free(clients)
        start = time.perf_counter()
        clock = SliceClock(start, duration, slices, sample)
        next_scan = start + _SCAN_INTERVAL
        for k in range(int(rate * duration)):
            due = start + k / rate
            slot = None
            while slot is None:
                now = time.perf_counter()
                clock.tick(now)
                if now >= next_scan:
                    self._expire(now)
                    next_scan = now + _SCAN_INTERVAL
                if now < due:
                    time.sleep(min(due, next_scan) - now)
                    continue
                # Pool exhausted: the request waits, and is charged for it.
                slot = self._take_free(next_scan)
            self._send(slot, next(self._commands), due, CONTACT)
        clock.run_out()
        self._drain()
        return clock

    # -------------------------------------------------------- verification

    def verify(self, contacts: Sequence[int]) -> None:
        """Ask every contact for every acknowledged ``add``.

        ``contains(k)`` through replica ``c`` must be True for each key
        whose ``add`` was acknowledged: no acknowledged write is lost and
        the replicas agree.  A wrong or missing answer is a failed request
        like any other.  Verification is the last thing a pool does.
        """
        self._timeout = VERIFY_TIMEOUT
        for contact in contacts:
            self._reset_free(min(32, len(self._slots)))
            for key in sorted(self.acked_adds):
                slot = None
                while slot is None:
                    now = time.perf_counter()
                    self._expire(now)
                    slot = self._take_free(now + _SCAN_INTERVAL)
                self._send(slot, Command(READ_OP, (key,), writes=False),
                           time.perf_counter(), contact)
            self._drain()


def phase_stats(records: Iterable[Record], clock: SliceClock,
                ) -> Dict[str, List[float]]:
    """Per-slice figures of one phase.

    ``completed[k]`` counts replies that arrived in slice ``k``; latency
    percentiles are over the requests that were *due* in slice ``k``
    (``done - due``, seconds), lateness over ``sent - due``.
    """
    edges = clock.edges
    slices = len(edges) - 1
    completed = [0] * slices
    latencies: List[List[float]] = [[] for _ in range(slices)]
    lateness: List[List[float]] = [[] for _ in range(slices)]
    waits: List[List[float]] = [[] for _ in range(slices)]

    def slice_of(moment: float) -> Optional[int]:
        index = bisect_right(edges, moment) - 1
        return index if 0 <= index < slices else None

    for due, sent, done in records:
        index = slice_of(done)
        if index is not None:
            completed[index] += 1
        index = slice_of(due)
        if index is not None:
            latencies[index].append(done - due)
            lateness[index].append(sent - due)
            waits[index].append(done - sent)
    for group in (latencies, lateness, waits):
        for values in group:
            values.sort()
    return {
        "edges": list(edges),
        "seconds": [edges[k + 1] - edges[k] for k in range(slices)],
        "completed": [float(count) for count in completed],
        "lat_p50": [quantile(values, 0.50) for values in latencies],
        "lat_p99": [quantile(values, 0.99) for values in latencies],
        "late_p99": [quantile(values, 0.99) for values in lateness],
        "wait_p50": [quantile(values, 0.50) for values in waits],
        "samples": [float(len(values)) for values in latencies],
    }
