"""Asyncio TCP transport with the ``ThreadedTransport`` send/inbox contract.

One :class:`TcpTransport` serves one node (a replica or a client process).
It runs a private asyncio event loop on a daemon thread:

- a TCP **server** listens on the node's endpoint; every received frame is
  decoded and either intercepted (client envelopes) or enqueued into the
  node's inbox queue — the same ``queue.Queue[(src, msg)]`` that
  :class:`~repro.broadcast.node.ThreadedNode` consumes;
- each known peer gets a lazily started **pump task** draining a bounded
  per-peer outbound queue over one connection, reconnecting with
  exponential backoff plus jitter when the peer is down;
- :meth:`close` cancels the pumps, closes connections and the server, and
  stops the loop (graceful: a best-effort flush happens first).

Loss semantics: TCP gives per-connection FIFO, but a peer crash drops the
frames buffered for it beyond the queue bound, and reconnection loses
whatever was in flight — exactly the fair-lossy link model the broadcast
protocols already tolerate.

Both directions are bounded.  A connection handler stops reading while an
inbox it feeds holds :data:`INBOX_LIMIT` frames, so a node that consumes
slower than its peers send pushes back through TCP; the sender's outbox
then fills and drops its oldest frames, counted per peer.  ``send`` never
blocks, so no node ever waits on another: the slow node's backlog turns
into loss at a bounded queue, which catch-up or a snapshot heals.
"""

from __future__ import annotations

import asyncio
import queue
import random
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError, ShutdownError
from repro.net.codec import CodecError, wire_codec
from repro.net.messages import GroupEnvelope
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

__all__ = ["GroupChannel", "TcpTransport"]

#: Outbound frames buffered per peer while it is unreachable.
DEFAULT_QUEUE_LIMIT = 1024

#: Frames an inbox may hold before the connection handlers stop reading.
INBOX_LIMIT = 256

#: How often a paused connection handler looks at the inboxes again.
_PAUSE_POLL = 0.002

#: (src, msg) -> True if consumed before the inbox (client envelopes).
Interceptor = Callable[[int, Any], bool]


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
        wire: str = "json",
    ):
        if node_id not in addresses:
            raise ConfigurationError(
                f"addresses must contain node {node_id}'s own endpoint")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self.node_id = node_id
        # Both endpoints of a connection must be configured with the same
        # wire codec; see docs/wire.md for the (non-)negotiation rules.
        self._codec = wire_codec(wire)
        self._obs = registry if registry is not None else NULL_REGISTRY
        self._obs_on = self._obs.enabled
        self._peer_obs: Dict[int, Tuple[Any, Any, Any]] = {}
        self._m_recv_frames = self._obs.counter("net_frames_received_total")
        self._m_recv_bytes = self._obs.counter("net_bytes_received_total")
        self._m_codec_rx_frames = self._obs.counter(
            "net_codec_frames_total", codec=self._codec.name, direction="rx")
        self._m_codec_rx_bytes = self._obs.counter(
            "net_codec_bytes_total", codec=self._codec.name, direction="rx")
        self._m_codec_tx_frames = self._obs.counter(
            "net_codec_frames_total", codec=self._codec.name, direction="tx")
        self._m_codec_tx_bytes = self._obs.counter(
            "net_codec_bytes_total", codec=self._codec.name, direction="tx")
        self._m_inbox_depth = self._obs.gauge("net_inbox_depth")
        self._m_reader_pauses = self._obs.counter("net_reader_pauses_total")
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
        self._loop = asyncio.new_event_loop()
        self._outboxes: Dict[int, asyncio.Queue] = {}   # loop thread only
        self._pumps: Dict[int, asyncio.Task] = {}       # loop thread only
        #: Frames popped from an outbox but not yet written+drained, per
        #: peer (0 or 1); loop thread only.  The depth gauge counts these,
        #: otherwise a down peer's last frame disappears from the gauge
        #: while the pump retries it forever.
        self._inflight: Dict[int, int] = {}
        self._connections: set = set()                  # loop thread only
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop_main, name=f"tcp-{node_id}", daemon=True)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "TcpTransport":
        """Bind the server and start the loop thread; returns self.

        Both failure paths (bind error, readiness timeout) tear the loop
        thread down before raising: the thread is joined, the event loop is
        closed, and the transport is marked closed.  Without that, a bind
        conflict used to leak a live daemon thread and an open event loop
        per failed start.
        """
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            # The loop thread already returned (and closed the loop) after
            # setting the startup error; join so no thread outlives start().
            self._thread.join(timeout=5)
            self._closed = True
            raise ConfigurationError(
                f"node {self.node_id} failed to bind "
                f"{self._addresses[self.node_id]}: {self._startup_error}")
        if not self._ready.is_set():
            # Startup hung: stop the loop from outside, then join.  The
            # loop thread's finally-block closes the loop on its way out.
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass  # loop closed between the timeout and now
            self._thread.join(timeout=5)
            self._closed = True
            raise ConfigurationError(
                f"node {self.node_id} transport did not start")
        return self

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.set_exception_handler(self._on_loop_exception)
        try:
            self._loop.run_until_complete(self._bind())
        except OSError as error:
            self._startup_error = error
            self._loop.close()
            self._ready.set()
            return
        except RuntimeError as error:
            # start() timed out waiting and stopped the loop mid-bind.
            self._startup_error = error
            self._loop.close()
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            # Drain cancellations scheduled by close() so the loop's tasks
            # finish cleanly before the thread exits.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    @staticmethod
    def _on_loop_exception(loop, context: Dict[str, Any]) -> None:
        # Cancelling stream-handler tasks at shutdown makes asyncio.streams'
        # connection_made done-callback re-raise CancelledError into the
        # loop's exception handler; that is expected teardown, not an error.
        if isinstance(context.get("exception"), asyncio.CancelledError):
            return
        loop.default_exception_handler(context)

    async def _bind(self) -> None:
        host, port = self._addresses[self.node_id]
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port)

    def close(self) -> None:
        """Stop serving and sending; idempotent and graceful."""
        if self._closed:
            return
        self._closed = True
        if not self._thread.is_alive():
            self._loop.close()
            return

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            # Closing the accepted connections first lets handler tasks end
            # through EOF instead of cancellation.
            for writer in list(self._connections):
                writer.close()
            pumps = list(self._pumps.values())
            for task in pumps:
                task.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            await asyncio.sleep(0.02)  # one tick for handlers to see EOF
            self._loop.stop()

        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(_shutdown()))
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
        if self._obs_on:
            self._m_codec_tx_frames.inc()
            self._m_codec_tx_bytes.inc(len(frame))
        try:
            self._loop.call_soon_threadsafe(self._enqueue, dst, frame)
        except RuntimeError as error:  # loop already closed
            raise ShutdownError("transport is closed") from error

    def add_peer(self, node_id: int, host: str, port: int) -> None:
        """Register (or re-register) a dynamic peer endpoint (thread-safe).

        Used for clients, which are not part of the static replica map.
        Re-registering with a changed endpoint reroutes future frames.
        """
        if self._closed:
            raise ShutdownError("transport is closed")
        if node_id == self.node_id:
            return
        previous = self._addresses.get(node_id)
        self._addresses[node_id] = (host, port)
        if previous is not None and previous != (host, port):
            try:
                self._loop.call_soon_threadsafe(self._drop_pump, node_id)
            except RuntimeError as error:
                raise ShutdownError("transport is closed") from error

    def peers(self) -> Dict[int, Tuple[str, int]]:
        return dict(self._addresses)

    # -------------------------------------------------------- instrumentation

    def _peer_instruments(self, dst: int):
        """Cached per-peer instruments (docs/observability.md)."""
        cached = self._peer_obs.get(dst)
        if cached is None:
            peer = str(dst)
            cached = (
                self._obs.gauge("net_outbox_depth", peer=peer),
                self._obs.counter("net_outbox_drops_total", peer=peer),
                self._obs.counter("net_frames_sent_total", peer=peer),
                self._obs.counter("net_bytes_sent_total", peer=peer),
                self._obs.counter("net_reconnects_total", peer=peer),
            )
            self._peer_obs[dst] = cached
        return cached

    # ------------------------------------------------------------ inbound path

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        codec = self._codec
        header_size = codec.header_size
        try:
            while True:
                header = await reader.readexactly(header_size)
                try:
                    length = codec.body_length(header)
                except CodecError:
                    # Corrupt prefix — or a peer speaking the other wire
                    # codec (the binary magic/version check lands here).
                    break
                body = await reader.readexactly(length)
                try:
                    src, msg = codec.decode_frame(body)
                except CodecError:
                    break  # corrupt peer: drop the connection
                depth = self.inbox_depth()
                if self._obs_on:
                    self._m_recv_frames.inc()
                    self._m_recv_bytes.inc(header_size + length)
                    self._m_codec_rx_frames.inc()
                    self._m_codec_rx_bytes.inc(header_size + length)
                    self._m_inbox_depth.set(depth)
                if depth >= INBOX_LIMIT:
                    await self._wait_for_room()
                self._dispatch(src, msg)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _wait_for_room(self) -> None:
        """Hold one connection's next frame until the consumer caught up.

        Nothing is read from the socket meanwhile, so the kernel buffers
        fill and the peer's pump stalls in ``drain()``.
        """
        if self._obs_on:
            self._m_reader_pauses.inc()
        while self.inbox_depth() >= INBOX_LIMIT and not self._closed:
            await asyncio.sleep(_PAUSE_POLL)

    def _dispatch(self, src: int, msg: Any) -> None:
        if self._closed:
            return
        if self._interceptor is not None and self._interceptor(src, msg):
            return
        self._inbox.put((src, msg))

    # ----------------------------------------------------------- outbound path

    def _enqueue(self, dst: int, frame: bytes) -> None:
        """Loop thread: queue a frame and make sure the pump runs."""
        if self._closed:
            return
        outbox = self._outboxes.get(dst)
        if outbox is None:
            outbox = asyncio.Queue()
            self._outboxes[dst] = outbox
        if outbox.qsize() >= self._queue_limit:
            outbox.get_nowait()  # drop-oldest: fair-lossy link, not a log
            if self._obs_on:
                self._peer_instruments(dst)[1].inc()
        outbox.put_nowait(frame)
        if self._obs_on:
            self._peer_instruments(dst)[0].set(
                outbox.qsize() + self._inflight.get(dst, 0))
        pump = self._pumps.get(dst)
        if pump is None or pump.done():
            self._pumps[dst] = self._loop.create_task(self._pump(dst))

    def _drop_pump(self, dst: int) -> None:
        """Loop thread: kill a peer's pump so it redials the new address."""
        pump = self._pumps.pop(dst, None)
        if pump is not None:
            pump.cancel()

    async def _pump(self, dst: int) -> None:
        """Drain one peer's outbox over a (re)connecting stream."""
        outbox = self._outboxes[dst]
        writer: Optional[asyncio.StreamWriter] = None
        failures = 0
        obs_on = self._obs_on
        if obs_on:
            m_depth, _, m_frames, m_bytes, m_reconnects = (
                self._peer_instruments(dst))
        try:
            while not self._closed:
                frame = await outbox.get()
                self._inflight[dst] = 1
                if obs_on:
                    m_depth.set(outbox.qsize() + 1)
                while not self._closed:
                    if writer is None:
                        host, port = self._addresses[dst]
                        try:
                            _, writer = await asyncio.open_connection(
                                host, port)
                            if obs_on and failures:
                                m_reconnects.inc()
                            failures = 0
                        except OSError:
                            writer = None
                            failures += 1
                            await asyncio.sleep(self._backoff(failures))
                            continue
                    try:
                        writer.write(frame)
                        await writer.drain()
                        self._inflight[dst] = 0
                        if obs_on:
                            m_frames.inc()
                            m_bytes.inc(len(frame))
                            m_depth.set(outbox.qsize())
                        break
                    except (ConnectionError, OSError):
                        writer.close()
                        writer = None
                        failures += 1
                        await asyncio.sleep(self._backoff(failures))
        except asyncio.CancelledError:
            pass
        finally:
            self._inflight[dst] = 0  # a cancelled pump's frame is lost
            if writer is not None:
                writer.close()

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
