"""Selector-reactor TCP transport with the ``ThreadedTransport`` contract.

One :class:`TcpTransport` serves one node (a replica or a client process).
All of its socket I/O happens on one daemon **reactor thread** running a
``selectors`` loop over non-blocking sockets — one writer per socket is
what keeps frame order and the partial-write state trivial:

- a TCP **server** socket (bound and listening before :meth:`start`
  returns) accepts connections; each readable event is one ``recv_into``
  a preallocated buffer, fed to an incremental :class:`Framer`; every whole
  frame is decoded and either intercepted (client envelopes) or enqueued
  into the node's inbox — the same ``queue.Queue[(src, msg)]`` that
  :class:`~repro.broadcast.node.ThreadedNode` consumes;
- :meth:`send` encodes on the caller's thread, appends the frame to the
  peer's bounded outbox and wakes the reactor through a socketpair —
  **only if no wake-up is already pending**, and not at all from the
  reactor thread itself;
- each tick the reactor joins what is queued for a peer, up to
  :data:`WRITE_BATCH` bytes, into **one** ``socket.send``; a partial write
  keeps its offset and resumes on ``EVENT_WRITE``.  A peer is dialled when
  it first has a frame, and redialled with exponential backoff plus jitter
  (timers in a heap that sets the ``select`` timeout) while it is down;
- :meth:`close` stops the reactor, which makes one last non-blocking flush
  to the peers it is connected to and closes every socket.

Loss semantics: TCP gives per-connection FIFO.  When a connection dies the
frames not yet wholly written return to the *front* of the outbox, in
order (a partly written one is re-sent whole; a wholly written one is
never sent twice), but whatever the kernel had accepted is gone, and a
down peer's outbox drops its oldest frames at the queue bound — exactly
the fair-lossy link model the broadcast protocols already tolerate.

Both directions are bounded.  A connection stops being read while an
inbox it feeds holds :data:`INBOX_LIMIT` frames, so a node that consumes
slower than its peers send pushes back through TCP; the sender's outbox
then fills and drops its oldest frames, counted per peer.  ``send`` never
blocks, so no node ever waits on another: the slow node's backlog turns
into loss at a bounded queue, which catch-up or a snapshot heals.
"""

from __future__ import annotations

import errno
import heapq
import queue
import random
import selectors
import socket
import sys
import threading
import time
from collections import deque, namedtuple
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ShutdownError
from repro.net.codec import CodecError, wire_codec
from repro.net.messages import GroupEnvelope
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

__all__ = ["Framer", "GroupChannel", "TcpTransport"]

#: Outbound frames buffered per peer while it is unreachable.
DEFAULT_QUEUE_LIMIT = 1024

#: Frames an inbox may hold before its connections stop being read.
INBOX_LIMIT = 256

#: How often paused connections look at the inboxes again.
_PAUSE_POLL = 0.002

#: Queued frames are joined into one ``send`` until they reach this size.
WRITE_BATCH = 64 * 1024

#: Size of the one receive buffer every connection is read into.
_RECV_SIZE = 128 * 1024

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

#: (src, msg) -> True if consumed before the inbox (client envelopes).
Interceptor = Callable[[int, Any], bool]


class Framer:
    """Incremental splitter of one connection's byte stream into frames.

    Pure: :meth:`feed` it chunks cut anywhere, :meth:`next` returns the
    decoded ``(src, msg)`` pairs in order, ``None`` when no whole frame is
    held.  A header is validated (magic, version, ``MAX_FRAME``) as soon as
    it is complete, so nothing is ever awaited or accumulated on the
    strength of a corrupt length; :class:`CodecError` ends the stream.
    """

    __slots__ = ("_codec", "_buf", "_body", "consumed")

    def __init__(self, codec: Any):
        self._codec = codec
        self._buf = bytearray()
        self._body = -1   # body length of the frame at the head, once known
        #: Bytes of the frames returned so far, headers included.
        self.consumed = 0

    def feed(self, chunk: Any) -> None:
        self._buf += chunk

    def next(self) -> Optional[Tuple[int, Any]]:
        buf, header_size = self._buf, self._codec.header_size
        if self._body < 0:
            if len(buf) < header_size:
                return None
            self._body = self._codec.body_length(bytes(buf[:header_size]))
        end = header_size + self._body
        if len(buf) < end:
            return None
        body = bytes(buf[header_size:end])
        del buf[:end]   # O(1): a bytearray drops its front by offset
        self._body = -1
        self.consumed += end
        return self._codec.decode_frame(body)


class _Conn:
    """An accepted connection: reactor thread only."""

    __slots__ = ("sock", "framer", "held", "paused")

    def __init__(self, sock: socket.socket, codec: Any):
        self.sock: Optional[socket.socket] = sock
        self.framer = Framer(codec)
        #: The decoded frame a paused connection is holding.
        self.held: Optional[Tuple[int, Any]] = None
        #: Stopped at INBOX_LIMIT: its socket is not with the selector.
        self.paused = False


#: One peer's instruments (docs/observability.md).
_PeerObs = namedtuple("_PeerObs", "depth drops frames bytes reconnects writes")


class _Peer:
    """Outbound state for one destination.

    ``outbox`` is shared with senders under the transport lock; the rest
    belongs to the reactor thread.
    """

    __slots__ = ("dst", "outbox", "sock", "address", "connected", "events",
                 "batch", "buf", "offset", "failures", "retry_at", "obs")

    def __init__(self, dst: int, obs: _PeerObs):
        self.dst = dst
        self.outbox: Deque[bytes] = deque()
        self.sock: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None   # as dialled
        self.connected = False
        self.events = 0                  # selector interest of ``sock``
        #: Frames taken from the outbox and being written as ``buf``, of
        #: which ``offset`` bytes are out.  The depth gauge counts them.
        self.batch: List[bytes] = []
        self.buf = b""
        self.offset = 0
        self.failures = 0
        self.retry_at: Optional[float] = None
        self.obs = obs


class TcpTransport:
    """TCP driver for one protocol node."""

    def __init__(
        self,
        node_id: int,
        addresses: Dict[int, Tuple[str, int]],
        interceptor: Optional[Interceptor] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        seed: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        wire: str = "binary",
    ):
        if node_id not in addresses:
            raise ConfigurationError(
                f"addresses must contain node {node_id}'s own endpoint")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self.node_id = node_id
        # The binary codec, the only one ``wire`` can name (docs/wire.md).
        self._codec = wire_codec(wire)
        self._obs = registry if registry is not None else NULL_REGISTRY
        self._obs_on = self._obs.enabled
        self._m_recv_frames = self._obs.counter("net_frames_received_total")
        self._m_recv_bytes = self._obs.counter("net_bytes_received_total")
        self._m_codec_tx_frames = self._obs.counter(
            "net_codec_frames_total", codec=self._codec.name, direction="tx")
        self._m_codec_tx_bytes = self._obs.counter(
            "net_codec_bytes_total", codec=self._codec.name, direction="tx")
        self._m_inbox_depth = self._obs.gauge("net_inbox_depth")
        self._m_reader_pauses = self._obs.counter("net_reader_pauses_total")
        self._m_reads = self._obs.counter("net_reads_total")
        self._m_wakeups = self._obs.counter("net_wakeups_total")
        self._addresses = dict(addresses)
        self._interceptor = interceptor
        self._queue_limit = queue_limit
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._jitter = random.Random(seed)
        self._inbox: "queue.Queue[Tuple[int, Any]]" = queue.Queue()
        #: Every inbox received frames end up in: the node's own, plus one
        #: per :class:`GroupChannel` on this transport.
        self._fed_inboxes = [self._inbox]
        self._closed = False
        #: Guards the outboxes, ``_peers`` (as a dict), ``_dirty`` and
        #: ``_wake_pending``.
        self._lock = threading.Lock()
        self._peers: Dict[int, _Peer] = {}
        #: Peers with new frames or a changed endpoint since the last tick.
        self._dirty: set = set()
        #: True while the reactor is owed a look at ``_dirty`` that it will
        #: take unprompted; it starts owing one, so nothing sent before
        #: :meth:`start` needs the socketpair.
        self._wake_pending = True
        self._thread: Optional[threading.Thread] = None
        # Reactor thread only; start() adds the selector and its sockets.
        self._conns: set = set()
        self._paused: List[_Conn] = []
        self._timers: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._timer_seq = 0
        self._recv_buf = bytearray(_RECV_SIZE)
        self._recv_view = memoryview(self._recv_buf)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "TcpTransport":
        """Bind, listen, and start the reactor thread; returns self.

        The endpoint is bound on the caller's thread, so a bind failure
        raises here with no thread to unwind; the transport is left closed.
        """
        host, port = self._addresses[self.node_id]
        try:
            self._listener = socket.create_server((host, port), backlog=128)
        except OSError as error:
            self._closed = True
            raise ConfigurationError(
                f"node {self.node_id} failed to bind {(host, port)}: "
                f"{error}") from error
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ, (self._on_accept, None))
        self._selector.register(self._wake_r, _READ, (self._on_wake, None))
        self._thread = threading.Thread(
            target=self._run, name=f"tcp-{self.node_id}", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and sending; idempotent, joins the reactor thread.

        Guaranteed on the way out: every frame :meth:`send` accepted for a
        peer this transport is *connected* to is handed to the kernel, as
        far as the kernel takes it without blocking.  Nothing is guaranteed
        for a peer still being dialled, nor for what a full socket refuses.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._wake()
            self._thread.join(timeout=5)

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------- transport contract

    def inbox(self, node_id: int) -> "queue.Queue[Tuple[int, Any]]":
        if node_id != self.node_id:
            raise ConfigurationError(
                f"transport of node {self.node_id} has no inbox for "
                f"node {node_id}; each process owns exactly one node")
        return self._inbox

    def inbox_depth(self) -> int:
        """Frames waiting in the fullest inbox this transport feeds."""
        return max(inbox.qsize() for inbox in self._fed_inboxes)

    def send(self, src: int, dst: int, msg: Any) -> None:
        """Frame and enqueue ``msg`` for peer ``dst`` (thread-safe)."""
        if self._closed:
            raise ShutdownError("transport is closed")
        if dst == self.node_id:
            # Loopback without the sockets (leader proposing to itself
            # never pays a network round trip).
            self._dispatch(src, msg)
            return
        if dst not in self._addresses:
            raise ConfigurationError(f"unknown peer {dst}")
        # Codec errors surface to the sender.
        frame = self._codec.encode_frame(src, msg)
        dropped = False
        with self._lock:
            peer = self._peers.get(dst) or self._new_peer(dst)
            outbox = peer.outbox
            if len(outbox) >= self._queue_limit:
                outbox.popleft()  # drop-oldest: fair-lossy link, not a log
                dropped = True
            outbox.append(frame)
            wake = self._mark_dirty(peer)
        if self._obs_on:
            self._m_codec_tx_frames.inc()
            self._m_codec_tx_bytes.inc(len(frame))
            if dropped:
                peer.obs.drops.inc()
            peer.obs.depth.set(len(outbox) + len(peer.batch))
        if wake:
            self._wake()

    def add_peer(self, node_id: int, host: str, port: int) -> None:
        """Register (or re-register) a dynamic peer endpoint (thread-safe).

        Used for clients, which are not part of the static replica map.
        Re-registering with a changed endpoint redials: frames not yet
        written go to the new endpoint.
        """
        if self._closed:
            raise ShutdownError("transport is closed")
        if node_id == self.node_id:
            return
        previous = self._addresses.get(node_id)
        self._addresses[node_id] = (host, port)
        if previous not in (None, (host, port)):
            with self._lock:
                peer = self._peers.get(node_id)
                wake = peer is not None and self._mark_dirty(peer)
            if wake:
                self._wake()

    def peers(self) -> Dict[int, Tuple[str, int]]:
        return dict(self._addresses)

    # ------------------------------------------------- sender-side plumbing

    def _new_peer(self, dst: int) -> _Peer:
        """Lock held."""
        label = str(dst)
        peer = self._peers[dst] = _Peer(dst, _PeerObs(
            self._obs.gauge("net_outbox_depth", peer=label),
            self._obs.counter("net_outbox_drops_total", peer=label),
            self._obs.counter("net_frames_sent_total", peer=label),
            self._obs.counter("net_bytes_sent_total", peer=label),
            self._obs.counter("net_reconnects_total", peer=label),
            self._obs.counter("net_writes_total", peer=label)))
        return peer

    def _mark_dirty(self, peer: _Peer) -> bool:
        """Lock held: queue ``peer`` for the reactor's next look; True if
        the caller must wake it.  Not if a wake-up is already owed, nor
        from the reactor thread, which looks again before it sleeps."""
        self._dirty.add(peer)
        if (self._wake_pending
                or threading.get_ident() == self._thread.ident):
            return False
        self._wake_pending = True
        return True

    def _wake(self) -> None:
        if self._obs_on:
            self._m_wakeups.inc()
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # the reactor is gone and took the pair with it

    # ---------------------------------------------------------- reactor loop

    def _run(self) -> None:
        select = self._selector.select
        timers = self._timers
        try:
            while True:
                self._serve_dirty()
                if self._closed:
                    break
                timeout = None
                if timers:
                    timeout = max(0.0, timers[0][0] - time.monotonic())
                for key, mask in select(timeout):
                    handler, arg = key.data
                    handler(arg, mask)
                while timers and timers[0][0] <= time.monotonic():
                    _, _, handler, arg = heapq.heappop(timers)
                    handler(arg)
        finally:
            self._closed = True
            self._teardown()

    def _teardown(self) -> None:
        """Last flush to connected peers, then close every socket."""
        for peer in list(self._peers.values()):
            if peer.connected:
                self._flush(peer)   # as far as the kernel takes it
            if peer.sock is not None:
                peer.sock.close()
        for sock in [conn.sock for conn in self._conns] + [
                self._listener, self._wake_r, self._wake_w, self._selector]:
            sock.close()

    def _call_later(self, delay: float, handler: Callable[[Any], None],
                    arg: Any) -> float:
        when = time.monotonic() + delay
        self._timer_seq += 1
        heapq.heappush(self._timers, (when, self._timer_seq, handler, arg))
        return when

    def _on_wake(self, _arg: Any, _mask: int) -> None:
        try:
            self._wake_r.recv(64)
        except OSError:
            pass

    def _serve_dirty(self) -> None:
        """Flush (or dial) every peer that got frames since the last look,
        and lower the wake-up flag: a send() from now on wakes the reactor.
        """
        while self._dirty or self._wake_pending:
            with self._lock:
                dirty, self._dirty = self._dirty, set()
                self._wake_pending = False
            for peer in dirty:
                if peer.address not in (None, self._addresses[peer.dst]):
                    # add_peer moved the endpoint: start over there.
                    if peer.sock is not None:
                        self._disconnect(peer)
                    peer.address = peer.retry_at = None
                    peer.failures = 0
                if peer.connected:
                    if not peer.events & _WRITE:   # else EVENT_WRITE resumes
                        self._flush(peer)
                elif (peer.sock is None and peer.retry_at is None
                        and peer.outbox):
                    self._dial(peer)

    # ------------------------------------------------------------ inbound path

    def _on_accept(self, _arg: Any, _mask: int) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:   # nothing (more) to accept
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock, self._codec)
            self._conns.add(conn)
            self._selector.register(sock, _READ, (self._on_readable, conn))

    def _on_readable(self, conn: _Conn, _mask: int) -> None:
        if conn.sock is None:   # dropped earlier in this tick
            return
        try:
            count = conn.sock.recv_into(self._recv_buf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            count = 0
        if self._obs_on:
            self._m_reads.inc()
        if not count:
            self._drop_conn(conn)
            return
        conn.framer.feed(self._recv_view[:count])
        if self._drain(conn):
            # Not read meanwhile: the kernel buffers fill and the peer's
            # writes stall.
            conn.paused = True
            self._selector.unregister(conn.sock)
            if not self._paused:
                self._call_later(_PAUSE_POLL, self._resume, None)
            self._paused.append(conn)

    def _drain(self, conn: _Conn) -> bool:
        """Dispatch every whole frame ``conn`` holds, in order; True if it
        had to stop at :data:`INBOX_LIMIT`, holding one decoded frame."""
        framer = conn.framer
        consumed, frames, depth, stalled = framer.consumed, 0, 0, False
        try:
            while True:
                fresh = conn.held is None
                if fresh:
                    conn.held = framer.next()
                    if conn.held is None:
                        break
                    frames += 1
                depth = self.inbox_depth()
                if depth >= INBOX_LIMIT:
                    stalled = True
                    if fresh and self._obs_on:
                        self._m_reader_pauses.inc()
                    break
                (src, msg), conn.held = conn.held, None
                self._dispatch(src, msg)
        except CodecError:
            # Corrupt frame — or a peer not speaking this codec (the
            # magic/version check lands here): drop the connection.
            self._drop_conn(conn)
        except Exception:
            # An interceptor failed: report it, lose that connection, and
            # keep the reactor (and every other connection) alive.
            sys.excepthook(*sys.exc_info())
            self._drop_conn(conn)
        if self._obs_on and frames:
            self._m_recv_frames.inc(frames)
            self._m_recv_bytes.inc(framer.consumed - consumed)
            self._m_inbox_depth.set(depth)
        return stalled

    def _resume(self, _arg: Any) -> None:
        """Timer: paused connections go on once the consumer caught up."""
        paused, self._paused = self._paused, []
        for conn in paused:
            if self._drain(conn):
                self._paused.append(conn)
            elif conn.sock is not None:
                conn.paused = False
                self._selector.register(
                    conn.sock, _READ, (self._on_readable, conn))
        if self._paused:
            self._call_later(_PAUSE_POLL, self._resume, None)

    def _drop_conn(self, conn: _Conn) -> None:
        sock, conn.sock = conn.sock, None
        if sock is not None:
            self._conns.discard(conn)
            if not conn.paused:
                self._selector.unregister(sock)
            sock.close()

    def _dispatch(self, src: int, msg: Any) -> None:
        if self._closed:
            return
        if self._interceptor is not None and self._interceptor(src, msg):
            return
        self._inbox.put((src, msg))

    # ----------------------------------------------------------- outbound path

    def _dial(self, peer: _Peer) -> None:
        peer.retry_at = None
        peer.address = self._addresses[peer.dst]
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer.sock = sock
        try:
            error = sock.connect_ex(peer.address)
        except OSError:   # unresolvable host
            error = errno.EHOSTUNREACH
        if error not in (0, errno.EINPROGRESS):
            self._disconnect(peer)
            return
        peer.events = _WRITE   # writable = the connect finished
        self._selector.register(sock, _WRITE, (self._on_peer, peer))

    def _on_peer(self, peer: _Peer, mask: int) -> None:
        sock = peer.sock
        if sock is None:   # disconnected earlier in this tick
            return
        if not peer.connected:
            if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._disconnect(peer)
                return
            peer.connected = True
            if self._obs_on and peer.failures:
                peer.obs.reconnects.inc()
            peer.failures = 0
        elif mask & _READ:
            # Peers answer over connections of their own and never write
            # to one they accepted: readable means closed or reset.
            self._disconnect(peer)
            return
        if mask & _WRITE:
            self._flush(peer)

    def _flush(self, peer: _Peer) -> None:
        """Write what ``peer`` has queued until it is empty or would block."""
        sock, obs_on = peer.sock, self._obs_on
        while True:
            if not peer.batch:
                with self._lock:
                    outbox, size = peer.outbox, 0
                    while outbox and size < WRITE_BATCH:
                        frame = outbox.popleft()
                        peer.batch.append(frame)
                        size += len(frame)
                if not peer.batch:
                    self._watch(peer, _READ)
                    return
                peer.buf = (peer.batch[0] if len(peer.batch) == 1
                            else b"".join(peer.batch))
                peer.offset = 0
            try:
                with memoryview(peer.buf) as view:
                    sent = sock.send(view[peer.offset:])
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._disconnect(peer)
                return
            if obs_on:
                peer.obs.writes.inc()
            peer.offset += sent
            if peer.offset < len(peer.buf):
                self._watch(peer, _READ | _WRITE)   # kernel buffer is full
                return
            if obs_on:
                peer.obs.frames.inc(len(peer.batch))
                peer.obs.bytes.inc(len(peer.buf))
                peer.obs.depth.set(len(peer.outbox))
            peer.batch, peer.buf = [], b""

    def _watch(self, peer: _Peer, events: int) -> None:
        if peer.events != events:
            peer.events = events
            self._selector.modify(peer.sock, events, (self._on_peer, peer))

    def _disconnect(self, peer: _Peer) -> None:
        """Close ``peer``'s socket; requeue what was not wholly written and
        redial, after a backoff, if anything is left to send."""
        if peer.events:
            self._selector.unregister(peer.sock)
        peer.sock.close()
        peer.sock, peer.connected, peer.events = None, False, 0
        peer.failures += 1
        written, sent = 0, 0
        for frame in peer.batch:
            if written + len(frame) > peer.offset:
                break
            written += len(frame)
            sent += 1
        unsent = peer.batch[sent:]
        peer.batch, peer.buf, peer.offset = [], b"", 0
        with self._lock:
            outbox = peer.outbox
            outbox.extendleft(reversed(unsent))
            dropped = max(0, len(outbox) - self._queue_limit)
            for _ in range(dropped):
                outbox.popleft()
            pending = bool(outbox)
        if self._obs_on:
            peer.obs.frames.inc(sent)
            peer.obs.bytes.inc(written)
            peer.obs.drops.inc(dropped)
        if pending:
            peer.retry_at = self._call_later(
                self._backoff(peer.failures), self._redial, peer)

    def _redial(self, peer: _Peer) -> None:
        if peer.retry_at is not None and peer.retry_at <= time.monotonic():
            self._dial(peer)

    def _backoff(self, failures: int) -> float:
        """Exponential backoff with jitter in [0.5, 1.5] of the nominal."""
        nominal = min(self._backoff_max,
                      self._backoff_base * (2 ** min(failures - 1, 16)))
        return nominal * (0.5 + self._jitter.random())


class GroupChannel:
    """One consensus group's view of a replica's shared :class:`TcpTransport`.

    A replica process with ``n_groups > 1`` hosts one protocol node per
    group behind a single endpoint.  A channel satisfies exactly the
    contract :class:`~repro.broadcast.node.ThreadedNode` needs — an
    ``inbox(node_id)`` queue and a ``send(src, dst, msg)`` — while the
    socket work happens on the shared transport: outbound messages are
    wrapped in a :class:`GroupEnvelope`, inbound ones arrive already
    unwrapped via :meth:`deliver` (the replica's transport interceptor).
    Single-group deployments never construct one.
    """

    def __init__(self, transport: TcpTransport, group: int):
        self._transport = transport
        self.group = group
        self._inbox: "queue.Queue[Tuple[int, Any]]" = queue.Queue()
        transport._fed_inboxes.append(self._inbox)

    def inbox(self, node_id: int) -> "queue.Queue[Tuple[int, Any]]":
        del node_id  # one node per (group, process); no routing needed
        return self._inbox

    def send(self, src: int, dst: int, msg: Any) -> None:
        self._transport.send(src, dst, GroupEnvelope(self.group, msg))

    def deliver(self, src: int, msg: Any) -> None:
        self._inbox.put((src, msg))
