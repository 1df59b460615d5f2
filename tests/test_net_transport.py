"""Unit tests for the selector-reactor TCP transport (repro.net.transport)."""

import math
import queue
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.net import bincodec
from repro.net.codec import MAX_FRAME, WIRE_NAMES, CodecError, wire_codec
from repro.net.config import free_port
from repro.net.messages import GroupEnvelope
from repro.net.transport import (INBOX_LIMIT, WRITE_BATCH, Framer,
                                 GroupChannel, TcpTransport)
from repro.obs.registry import MetricsRegistry


def make_pair(**kwargs):
    """Two started transports that know each other's endpoints."""
    addresses = {0: ("127.0.0.1", free_port()),
                 1: ("127.0.0.1", free_port())}
    left = TcpTransport(0, addresses, **kwargs).start()
    right = TcpTransport(1, addresses, **kwargs).start()
    return left, right


def drain_until(inbox, count, timeout=5.0):
    """Collect ``count`` messages or fail the test."""
    received = []
    deadline = time.monotonic() + timeout
    while len(received) < count:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"only {len(received)}/{count} arrived"
        try:
            received.append(inbox.get(timeout=remaining))
        except queue.Empty:
            continue
    return received


class TestContract:
    def test_inbox_is_own_node_only(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            assert transport.inbox(0) is transport.inbox(0)
            with pytest.raises(ConfigurationError):
                transport.inbox(1)
        finally:
            transport.close()

    def test_own_endpoint_required(self):
        with pytest.raises(ConfigurationError):
            TcpTransport(5, {0: ("127.0.0.1", free_port())})

    def test_unknown_peer_rejected(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            with pytest.raises(ConfigurationError):
                transport.send(0, 9, "hello")
        finally:
            transport.close()

    def test_send_after_close_raises(self):
        left, right = make_pair()
        right.close()
        left.close()
        assert left.closed
        with pytest.raises(ShutdownError):
            left.send(0, 1, "late")

    def test_close_is_idempotent(self):
        left, right = make_pair()
        left.close()
        left.close()
        right.close()

    def test_bind_conflict_is_reported(self):
        port = free_port()
        first = TcpTransport(0, {0: ("127.0.0.1", port)}).start()
        try:
            second = TcpTransport(0, {0: ("127.0.0.1", port)})
            with pytest.raises(ConfigurationError):
                second.start()
        finally:
            first.close()


class TestDelivery:
    def test_send_receive_in_order(self):
        left, right = make_pair()
        try:
            for index in range(20):
                left.send(0, 1, ("msg", index))
            received = drain_until(right.inbox(1), 20)
            assert received == [(0, ("msg", index)) for index in range(20)]
        finally:
            left.close()
            right.close()

    def test_both_directions(self):
        left, right = make_pair()
        try:
            left.send(0, 1, "ping")
            assert right.inbox(1).get(timeout=5) == (0, "ping")
            right.send(1, 0, "pong")
            assert left.inbox(0).get(timeout=5) == (1, "pong")
        finally:
            left.close()
            right.close()

    def test_self_send_loops_back_without_sockets(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            transport.send(0, 0, "to-myself")
            assert transport.inbox(0).get(timeout=5) == (0, "to-myself")
        finally:
            transport.close()

    def test_commands_cross_the_wire(self):
        left, right = make_pair()
        try:
            command = Command("add", (3,), writes=True,
                              client_id="c1", request_id=2)
            left.send(0, 1, (command,))
            src, payload = right.inbox(1).get(timeout=5)
            assert src == 0
            assert payload == (command,)
            assert isinstance(payload, tuple)
        finally:
            left.close()
            right.close()

    def test_interceptor_consumes_before_inbox(self):
        seen = []
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}

        def interceptor(src, msg):
            if isinstance(msg, str) and msg.startswith("client:"):
                seen.append((src, msg))
                return True
            return False

        left = TcpTransport(0, addresses).start()
        right = TcpTransport(1, addresses, interceptor=interceptor).start()
        try:
            left.send(0, 1, "client:hello")
            left.send(0, 1, ("protocol", 1))
            assert right.inbox(1).get(timeout=5) == (0, ("protocol", 1))
            assert seen == [(0, "client:hello")]
            assert right.inbox(1).empty()
        finally:
            left.close()
            right.close()


class TestReconnect:
    def test_reconnects_after_peer_restart(self):
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses, backoff_base=0.02,
                            backoff_max=0.1).start()
        right = TcpTransport(1, addresses).start()
        try:
            left.send(0, 1, "before")
            assert right.inbox(1).get(timeout=5) == (0, "before")
            right.close()

            # Same endpoint, new transport — as a restarted replica would.
            right = TcpTransport(1, addresses).start()
            deadline = time.monotonic() + 10
            delivered = None
            sequence = 0
            while delivered is None and time.monotonic() < deadline:
                # Frames written into the dying connection may be lost
                # (fair-lossy); keep sending until one lands.
                left.send(0, 1, ("after", sequence))
                sequence += 1
                try:
                    delivered = right.inbox(1).get(timeout=0.1)
                except queue.Empty:
                    continue
            assert delivered is not None, "never reconnected"
            assert delivered[1][0] == "after"
        finally:
            left.close()
            right.close()

    def test_add_peer_registers_dynamic_endpoint(self):
        server = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        client_port = free_port()
        client = TcpTransport(
            1000,
            {1000: ("127.0.0.1", client_port),
             0: server.peers()[0]},
        ).start()
        try:
            with pytest.raises(ConfigurationError):
                server.send(0, 1000, "who are you")
            server.add_peer(1000, "127.0.0.1", client_port)
            server.send(0, 1000, "now I know you")
            assert client.inbox(1000).get(timeout=5) == (0, "now I know you")
        finally:
            client.close()
            server.close()

    def test_bounded_outbox_drops_oldest(self):
        # Peer 1's endpoint is allocated but nothing listens: frames pile
        # up in the bounded outbox and the oldest fall off.
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        limit = 4
        left = TcpTransport(0, addresses, queue_limit=limit,
                            backoff_base=0.02, backoff_max=0.1).start()
        try:
            total = 20
            for index in range(total):
                left.send(0, 1, ("queued", index))
            time.sleep(0.1)  # let the pump fail at least once

            right = TcpTransport(1, addresses).start()
            try:
                received = []
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    try:
                        received.append(right.inbox(1).get(timeout=0.3))
                    except queue.Empty:
                        if received:
                            break
                # The pump holds at most one frame beyond the queue bound.
                assert 1 <= len(received) <= limit + 1
                assert received[-1] == (0, ("queued", total - 1)), (
                    "the newest frame must survive the drop-oldest policy")
            finally:
                right.close()
        finally:
            left.close()


class TestReceiveBackPressure:
    """The reader stops at INBOX_LIMIT waiting frames (docs/deployment.md):
    the backlog of a slow consumer stays in TCP, not in process memory."""

    FRAMES = 4 * INBOX_LIMIT

    def _assert_pauses_then_delivers_everything(self, right, inbox, send):
        for index in range(self.FRAMES):
            send(index)
        deadline = time.monotonic() + 5
        while inbox.qsize() < INBOX_LIMIT:
            assert time.monotonic() < deadline, "inbox never filled"
            time.sleep(0.01)
        time.sleep(0.2)  # the sender is long done; nothing more may land
        assert inbox.qsize() == right.inbox_depth() == INBOX_LIMIT
        # Consuming makes room: every frame arrives, in order, and the
        # depth never passed the limit on the way.
        received = []
        while len(received) < self.FRAMES:
            assert right.inbox_depth() <= INBOX_LIMIT
            received.extend(drain_until(inbox, 1))
        assert [msg[-1] for _, msg in received] == list(range(self.FRAMES))

    def test_reader_pauses_at_the_limit_and_resumes(self):
        registry = MetricsRegistry()
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses, queue_limit=self.FRAMES).start()
        right = TcpTransport(1, addresses, registry=registry).start()
        try:
            self._assert_pauses_then_delivers_everything(
                right, right.inbox(1),
                lambda index: left.send(0, 1, ("msg", index)))
            snapshot = registry.snapshot()
            assert snapshot["net_reader_pauses_total"]["value"] >= 1
            assert 0 < snapshot["net_inbox_depth"]["value"] <= INBOX_LIMIT
        finally:
            left.close()
            right.close()

    def test_group_channel_inboxes_count(self):
        channels = []

        def demux(src, msg):
            channels[msg.group].deliver(src, msg.msg)
            return True

        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses, queue_limit=self.FRAMES).start()
        right = TcpTransport(1, addresses, interceptor=demux).start()
        channels.extend(GroupChannel(right, group) for group in range(2))
        try:
            self._assert_pauses_then_delivers_everything(
                right, channels[1].inbox(1),
                lambda index: left.send(
                    0, 1, GroupEnvelope(1, ("msg", index))))
            assert channels[0].inbox(1).empty()
        finally:
            left.close()
            right.close()

    def test_close_releases_a_paused_reader(self):
        left, right = make_pair(queue_limit=self.FRAMES)
        try:
            for index in range(self.FRAMES):
                left.send(0, 1, ("msg", index))
            deadline = time.monotonic() + 5
            while right.inbox_depth() < INBOX_LIMIT:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            began = time.monotonic()
            right.close()
            left.close()
        assert time.monotonic() - began < 3
        assert not right._thread.is_alive()


def counter(registry, name, **labels):
    return registry.counter(name, **labels).value


def wait_for(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"{what} never held"
        time.sleep(0.005)


class TestSemanticsKept:
    """What the asyncio transport did and the reactor must still do."""

    def test_codec_error_on_send_reaches_the_sender(self):
        left, right = make_pair()
        try:
            with pytest.raises(CodecError):
                left.send(0, 1, object())
            left.send(0, 1, "still fine")
            assert right.inbox(1).get(timeout=5) == (0, "still fine")
        finally:
            left.close()
            right.close()

    def test_unencodable_structure_on_send_reaches_the_sender(self):
        # A value that contains itself, or nests past the recursion limit,
        # is a CodecError for the sender too, and the link stays usable.
        looped = []
        looped.append(looped)
        deep = []
        for _ in range(5_000):
            deep = [deep]
        left, right = make_pair()
        try:
            for value in (looped, deep):
                with pytest.raises(CodecError):
                    left.send(0, 1, value)
            left.send(0, 1, "still fine")
            assert right.inbox(1).get(timeout=5) == (0, "still fine")
        finally:
            left.close()
            right.close()

    def test_corrupt_peer_loses_its_connection_and_nothing_else(self):
        left, right = make_pair()
        try:
            left.send(0, 1, "before")
            assert right.inbox(1).get(timeout=5) == (0, "before")
            with socket.create_connection(right.peers()[1]) as rogue:
                rogue.sendall(b"\x00\x00\x00\x05hello")  # no magic
                rogue.settimeout(5)
                assert rogue.recv(16) == b"", "corrupt connection kept open"
            left.send(0, 1, "after")
            assert right.inbox(1).get(timeout=5) == (0, "after")
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("body", [
        bytes.fromhex("0901070000"),        # a dict whose key is a list
        b"\x07\x01" * 5000 + b"\x00",       # 5,000 nested one-item lists
    ], ids=["list-as-dict-key", "deep-nesting"])
    def test_malformed_body_costs_its_sender_the_connection_only(
            self, monkeypatch, body):
        # A frame with a valid header and a body the decoders choke on is a
        # corrupt frame, not an interceptor failure: no traceback.
        hooked = []
        monkeypatch.setattr(sys, "excepthook",
                            lambda *exc_info: hooked.append(exc_info))
        left, right = make_pair()
        try:
            left.send(0, 1, "before")
            assert right.inbox(1).get(timeout=5) == (0, "before")
            frame = b"\x00" + body                  # src 0, then the message
            with socket.create_connection(right.peers()[1]) as rogue:
                rogue.sendall(bincodec.HEADER.pack(
                    bincodec.MAGIC, bincodec.WIRE_VERSION, len(frame)) + frame)
                rogue.settimeout(5)
                assert rogue.recv(16) == b"", "corrupt connection kept open"
            left.send(0, 1, "after")
            assert right.inbox(1).get(timeout=5) == (0, "after")
        finally:
            left.close()
            right.close()
        assert hooked == []

    def test_interceptor_runs_on_the_transport_thread(self):
        names = queue.Queue()

        def interceptor(src, msg):
            names.put(threading.current_thread().name)
            return True

        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses).start()
        right = TcpTransport(1, addresses, interceptor=interceptor).start()
        try:
            left.send(0, 1, "over the wire")
            assert names.get(timeout=5) == "tcp-1"
        finally:
            left.close()
            right.close()

    def test_failing_interceptor_costs_one_connection_not_the_reactor(
            self, capsys):
        def interceptor(src, msg):
            if msg == "poison":
                raise RuntimeError("interceptor bug")
            return False

        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses, backoff_base=0.01).start()
        right = TcpTransport(1, addresses, interceptor=interceptor).start()
        try:
            left.send(0, 1, "poison")
            wait_for(lambda: "interceptor bug" in capsys.readouterr().err,
                     what="the traceback on stderr")
            deadline = time.monotonic() + 5
            delivered = None
            while delivered is None and time.monotonic() < deadline:
                left.send(0, 1, "after")   # lands once left has redialled
                try:
                    delivered = right.inbox(1).get(timeout=0.05)
                except queue.Empty:
                    pass
            assert delivered == (0, "after")
        finally:
            left.close()
            right.close()

    def test_nodelay_on_both_ends_of_every_connection(self):
        left, right = make_pair()
        try:
            left.send(0, 1, "dial")
            assert right.inbox(1).get(timeout=5) == (0, "dial")
            socks = [left._peers[1].sock] + [c.sock for c in right._conns]
            assert len(socks) == 2
            for sock in socks:
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        finally:
            left.close()
            right.close()

    def test_backoff_is_the_seeded_exponential_with_jitter(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())},
                                 backoff_base=0.05, backoff_max=2.0, seed=7)
        jitter = random.Random(7)
        for failures in (1, 2, 3, 6, 7, 40):
            nominal = min(2.0, 0.05 * 2 ** min(failures - 1, 16))
            assert transport._backoff(failures) == pytest.approx(
                nominal * (0.5 + jitter.random()))

    def test_add_peer_with_a_changed_endpoint_redials(self):
        server = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        clients = []
        try:
            for generation in range(2):
                port = free_port()
                clients.append(TcpTransport(
                    1000, {1000: ("127.0.0.1", port)}).start())
                server.add_peer(1000, "127.0.0.1", port)
                server.send(0, 1000, ("hello", generation))
                assert clients[-1].inbox(1000).get(timeout=5) == (
                    0, ("hello", generation))
            assert clients[0].inbox(1000).empty()
        finally:
            for client in clients:
                client.close()
            server.close()


class TestClose:
    def test_close_flushes_what_send_accepted_for_a_connected_peer(self):
        # Regression: close() promised "a best-effort flush" and made none;
        # frames accepted just before it never left the process.
        left, right = make_pair()
        try:
            left.send(0, 1, "connect")
            assert right.inbox(1).get(timeout=5) == (0, "connect")
            for index in range(200):
                left.send(0, 1, ("last words", index))
            left.close()
            received = drain_until(right.inbox(1), 200)
            assert [msg[1] for _, msg in received] == list(range(200))
        finally:
            left.close()
            right.close()

    def test_close_before_start_and_twice(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())})
        transport.close()
        transport.close()
        assert transport.closed


MESSAGES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=12),
              st.builds(Command, st.sampled_from(["add", "contains"]),
                        st.tuples(st.integers(0, 99)),
                        st.text(max_size=4), st.integers(0, 9),
                        writes=st.booleans())),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=6)


@pytest.mark.parametrize("wire", WIRE_NAMES)
class TestFramer:
    """The pure half of the read path: bytes in, ``(src, msg)`` out."""

    @staticmethod
    def _frames(framer):
        out = []
        while (frame := framer.next()) is not None:
            out.append(frame)
        return out

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 1000), MESSAGES),
                          max_size=8),
           cuts=st.lists(st.integers(1, 48), min_size=1, max_size=12))
    def test_any_chunking_yields_the_same_frames(self, wire, pairs, cuts):
        codec = wire_codec(wire)
        stream = b"".join(codec.encode_frame(src, msg) for src, msg in pairs)
        for sizes in (cuts, [1]):           # as drawn; one byte at a time
            framer, out, pos, turn = Framer(codec), [], 0, 0
            while pos < len(stream):
                size = sizes[turn % len(sizes)]
                framer.feed(memoryview(stream)[pos:pos + size])
                out.extend(self._frames(framer))
                pos, turn = pos + size, turn + 1
            assert out == pairs
            assert framer.consumed == len(stream)

    def test_oversized_length_is_rejected_at_the_header(self, wire):
        codec = wire_codec(wire)
        header = codec.encode_frame(0, "x")[:codec.header_size]
        oversized = header[:-4] + (MAX_FRAME + 1).to_bytes(4, "big")
        framer = Framer(codec)
        framer.feed(oversized[:-1])
        assert framer.next() is None        # header incomplete: no verdict
        framer.feed(oversized[-1:])
        with pytest.raises(CodecError):     # complete: no body byte needed
            framer.next()

    def test_corrupt_header_is_rejected_before_any_body(self, wire):
        codec = wire_codec(wire)
        good = codec.encode_frame(0, "x")
        for corrupt in (b"XX" + good[2:],            # magic
                        good[:2] + b"\xff" + good[3:]):   # version
            framer = Framer(codec)
            framer.feed(corrupt[:codec.header_size])
            with pytest.raises(CodecError):
                framer.next()

    def test_a_bad_body_ends_the_stream_after_the_good_frames(self, wire):
        codec = wire_codec(wire)
        good = codec.encode_frame(3, ("ok", 1))
        bad = bytearray(codec.encode_frame(3, ("ok", 2)))
        bad[-1] ^= 0xFF
        framer = Framer(codec)
        framer.feed(good + bytes(bad))
        assert framer.next() == (3, ("ok", 1))
        with pytest.raises(CodecError):
            framer.next()


class TestWritePath:
    """Coalesced writes, partial writes, requeue on disconnect."""

    def test_frames_queued_while_dialling_leave_coalesced(self):
        registry = MetricsRegistry()
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        count = 3000
        # Padded so the queue spans more than two write batches.
        pad = "." * 40
        left = TcpTransport(0, addresses, queue_limit=count,
                            backoff_base=0.02, backoff_max=0.05,
                            registry=registry).start()
        try:
            for index in range(count):   # nobody listens yet
                left.send(0, 1, ("queued", index, pad))
            right = TcpTransport(1, addresses).start()
            try:
                received = []
                while len(received) < count:
                    received.extend(drain_until(right.inbox(1), 1))
                assert [msg[1] for _, msg in received] == list(range(count))
            finally:
                right.close()
            sent_bytes = counter(registry, "net_bytes_sent_total", peer="1")
            assert sent_bytes > 2 * WRITE_BATCH
            # Frames are counted as frames; they left in a handful of writes.
            assert counter(registry, "net_frames_sent_total",
                           peer="1") == count
            assert 1 <= counter(registry, "net_writes_total", peer="1") <= (
                math.ceil(sent_bytes / WRITE_BATCH))
            assert counter(registry, "net_outbox_drops_total", peer="1") == 0
        finally:
            left.close()

    def test_big_frame_to_a_paused_reader_resumes_on_writable(self):
        # PR 17's in-band Snapshot travels as one frame of up to 16 MiB.
        registry = MetricsRegistry()
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        small = INBOX_LIMIT + 8
        left = TcpTransport(0, addresses, registry=registry).start()
        right = TcpTransport(1, addresses).start()
        try:
            for index in range(small):
                left.send(0, 1, ("small", index))
            wait_for(lambda: right.inbox_depth() == INBOX_LIMIT,
                     what="a full inbox")
            wait_for(lambda: counter(registry, "net_frames_sent_total",
                                     peer="1") == small, what="small frames out")
            writes = counter(registry, "net_writes_total", peer="1")
            blob = "s" * (4 * 1024 * 1024)
            left.send(0, 1, ("blob", blob))
            left.send(0, 1, ("small", small))
            time.sleep(0.2)   # the reader is paused: the write must stall
            assert right.inbox_depth() == INBOX_LIMIT
            received = []
            while len(received) < small + 2:
                assert right.inbox_depth() <= INBOX_LIMIT
                received.extend(drain_until(right.inbox(1), 1, timeout=20))
            assert received[small] == (0, ("blob", blob))
            assert [msg[1] for _, msg in received if msg[0] == "small"] == (
                list(range(small + 1)))
            # More than the kernel takes at once: the rest went out on
            # EVENT_WRITE, from the kept offset.
            assert counter(registry, "net_writes_total",
                           peer="1") - writes >= 2
        finally:
            left.close()
            right.close()

    def test_receiver_restart_mid_burst_neither_reorders_nor_repeats(self):
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        total = 6000
        seen = {"old": [], "new": []}

        def receiver(generation):
            def interceptor(src, msg):
                seen[generation].append(msg[1])
                return True
            return TcpTransport(1, addresses, interceptor=interceptor).start()

        left = TcpTransport(0, addresses, queue_limit=total,
                            backoff_base=0.01, backoff_max=0.02).start()
        right = receiver("old")
        try:
            for index in range(total):
                left.send(0, 1, ("id", index))
                if index == total // 3:
                    wait_for(lambda: seen["old"], what="the first arrival")
                    right.close()           # mid-burst
                elif index == total // 2:
                    right = receiver("new")  # same port
            wait_for(lambda: seen["new"][-1:] == [total - 1], timeout=10,
                     what="the newest frame at the new receiver")
        finally:
            left.close()
            right.close()
        old, new = seen["old"], seen["new"]
        assert old == list(range(len(old))), "the old stream had a gap"
        assert all(a < b for a, b in zip(new, new[1:])), (
            "requeued frames went out of order")
        assert not set(old) & set(new), "a wholly written frame was re-sent"
        # Only what the dying connection swallowed may be missing.
        assert new[0] >= len(old) and len(new) > total // 2

    def test_many_senders_lose_no_wakeup(self):
        # The outbox, the dirty set and the wake-up flag are shared between
        # sender threads and the reactor: a lost wake-up strands the tail.
        senders, each = 6, 1500
        left, right = make_pair(queue_limit=senders * each)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def burst(sender):
                for index in range(each):
                    left.send(0, 1, (sender, index))

            threads = [threading.Thread(target=burst, args=(sender,))
                       for sender in range(senders)]
            for thread in threads:
                thread.start()
            received = []
            while len(received) < senders * each:
                received.extend(drain_until(right.inbox(1), 1, timeout=20))
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            for sender in range(senders):
                assert [msg[1] for _, msg in received
                        if msg[0] == sender] == list(range(each))
        finally:
            sys.setswitchinterval(interval)
            left.close()
            right.close()
