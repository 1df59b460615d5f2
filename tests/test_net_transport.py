"""Unit tests for the asyncio TCP transport (repro.net.transport)."""

import queue
import time

import pytest

from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.net.config import free_port
from repro.net.messages import GroupEnvelope
from repro.net.transport import INBOX_LIMIT, GroupChannel, TcpTransport
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
