"""Unit tests for the SMR client (retry, batching, response matching)."""

import threading

import pytest

from repro.core.command import Command
from repro.errors import ShutdownError
from repro.smr.client import (Client, ClientTimeout, ClosedLoopStats,
                              run_closed_loop)


def read(key):
    return Command("contains", (key,), writes=False)


class FakeServer:
    """Captures submissions and optionally answers like a replica."""

    def __init__(self, respond=True, fail_contacts=()):
        self.submissions = []
        self.respond = respond
        self.fail_contacts = set(fail_contacts)
        self.client = None

    def submit(self, payload, contact):
        if contact in self.fail_contacts:
            raise ShutdownError("replica down")
        self.submissions.append((payload, contact))
        if self.respond:
            for command in payload:
                self.client.deliver_response(command, f"resp-{command.args[0]}")


def make_client(server, **kwargs):
    client = Client("c1", server.submit, n_replicas=3,
                    timeout=kwargs.pop("timeout", 0.05), **kwargs)
    server.client = client
    return client


class TestClient:
    def test_execute_returns_response(self):
        server = FakeServer()
        client = make_client(server)
        assert client.execute(read(7)) == "resp-7"

    def test_commands_stamped_with_identity(self):
        server = FakeServer()
        client = make_client(server)
        client.execute(read(1))
        client.execute(read(2))
        (first, _), (second, _) = server.submissions
        assert first[0].client_id == "c1"
        assert first[0].request_id == 1
        assert second[0].request_id == 2
        assert client.requests_issued == 2

    def test_batch_preserves_order(self):
        server = FakeServer()
        client = make_client(server)
        responses = client.execute_batch([read(5), read(6), read(7)])
        assert responses == ["resp-5", "resp-6", "resp-7"]

    def test_empty_batch(self):
        server = FakeServer()
        client = make_client(server)
        assert client.execute_batch([]) == []

    def test_duplicate_responses_ignored(self):
        server = FakeServer(respond=False)
        client = make_client(server)

        def answer():
            while not server.submissions:
                pass
            (payload, _), = server.submissions
            for _ in range(3):  # three replicas answer
                client.deliver_response(payload[0], "same")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        assert client.execute(read(1)) == "same"
        thread.join()

    def test_timeout_then_retry_other_contact(self):
        server = FakeServer(respond=False)
        client = make_client(server, timeout=0.02)
        with pytest.raises(ClientTimeout):
            client.execute(read(1))
        contacts = [contact for _, contact in server.submissions]
        assert len(set(contacts)) > 1  # rotated through replicas

    def test_dead_contact_skipped(self):
        server = FakeServer(fail_contacts={0})
        client = make_client(server, contact=0)
        assert client.execute(read(3)) == "resp-3"
        assert server.submissions[0][1] == 1  # fell over to replica 1

    def test_all_dead_times_out(self):
        server = FakeServer(fail_contacts={0, 1, 2})
        client = make_client(server)
        with pytest.raises(ClientTimeout):
            client.execute(read(1))

    def test_stale_response_for_old_request_ignored(self):
        server = FakeServer(respond=False)
        client = make_client(server, timeout=0.2)

        def answer():
            while not server.submissions:
                pass
            (payload, _), = server.submissions
            stale = Command("contains", (9,), client_id="c1", request_id=999,
                            writes=False)
            client.deliver_response(stale, "stale")
            client.deliver_response(payload[0], "fresh")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        assert client.execute(read(1)) == "fresh"
        thread.join()


class Feed:
    """A workload of ``count`` reads, handed out ``n`` at a time."""

    def __init__(self, count, first=0):
        self.keys = iter(range(first, first + count))

    def commands(self, n):
        return [read(key) for _, key in zip(range(n), self.keys)]


class TestClosedLoop:
    def test_every_answered_command_is_counted(self):
        server = FakeServer()
        client = make_client(server)
        stats = run_closed_loop([client], [Feed(12)], batches=3, batch=4)
        assert (stats.executed, stats.errors) == (12, 0)
        assert [len(payload) for payload, _ in server.submissions] == [4] * 3
        assert stats.duration > 0 and stats.throughput > 0

    def test_a_short_workload_cuts_the_last_batch(self):
        server = FakeServer()
        client = make_client(server)
        stats = run_closed_loop([client], [Feed(10)], batches=3, batch=4)
        assert (stats.executed, stats.errors) == (10, 0)
        assert [len(payload) for payload, _ in server.submissions] == [
            4, 4, 2]

    def test_a_timed_out_batch_is_counted_and_the_loop_goes_on(self):
        class DropsSecond(FakeServer):
            def submit(self, payload, contact):
                self.respond = payload[0].request_id != 5
                super().submit(payload, contact)

        server = DropsSecond()
        client = make_client(server, timeout=0.02, max_retries=1)
        stats = run_closed_loop([client], [Feed(12)], batches=3, batch=4)
        assert (stats.executed, stats.errors) == (8, 4)
        # The dropped batch was retried once, then the third one was sent.
        assert [payload[0].request_id
                for payload, _ in server.submissions] == [1, 5, 5, 9]

    def test_each_client_runs_on_its_own_thread(self):
        # Each submit waits for the other client's: one thread driving both
        # clients in turn would time every batch out.
        barrier = threading.Barrier(2, timeout=5)

        class Rendezvous(FakeServer):
            def submit(self, payload, contact):
                barrier.wait()
                super().submit(payload, contact)

        servers = [Rendezvous(), Rendezvous()]
        clients = [make_client(server, timeout=5) for server in servers]
        stats = run_closed_loop(clients, [Feed(6), Feed(6, first=100)],
                                batches=3, batch=2)
        assert (stats.executed, stats.errors) == (12, 0)
        assert [len(server.submissions) for server in servers] == [3, 3]

    def test_throughput_is_answered_commands_per_second(self):
        assert ClosedLoopStats(10, 2, 2.0).throughput == 5.0
        assert ClosedLoopStats(0, 0, 0.0).throughput == 0.0
