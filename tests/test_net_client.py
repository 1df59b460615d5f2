"""Client identity on a TCP deployment.

Replicas dedup requests by client id and route responses by transport node
id, so two clients that share either get each other's answers (or none).
``net client`` draws a fresh client id per process; a :class:`NetClient`'s
node id is its reply endpoint, so no two live clients share one.
"""

from __future__ import annotations

import ipaddress

import pytest

from repro.core.command import Command
from repro.errors import ConfigurationError
from repro.net.cli import _client_id
from repro.net.client import CLIENT_ID_BASE, NetClient
from repro.net.cluster import TcpCluster
from repro.net.config import free_port, loopback_config
from repro.smr.client import run_closed_loop

OPS = 24


class Feed:
    """``count`` adds of keys from ``first`` on (none in the seed
    population), ``n`` at a time."""

    def __init__(self, count, first):
        self.keys = iter(range(first, first + count))

    def commands(self, n):
        return [Command("add", (key,), writes=True)
                for _, key in zip(range(n), self.keys)]


class TestNodeId:
    def test_node_id_is_the_reply_endpoint(self):
        config = loopback_config(n_replicas=3)
        port = free_port()
        client = NetClient("a", config, port=port)
        try:
            assert client.node_id == CLIENT_ID_BASE + (
                int(ipaddress.ip_address("127.0.0.1")) << 16 | port)
            assert client.node_id not in config.address_map()
        finally:
            client.close()

    def test_clients_of_one_process_get_distinct_node_ids(self):
        config = loopback_config(n_replicas=3)
        clients = [NetClient(f"c{index}", config) for index in range(3)]
        try:
            assert len({client.node_id for client in clients}) == 3
        finally:
            for client in clients:
                client.close()

    def test_host_must_be_an_ip_address(self):
        with pytest.raises(ConfigurationError, match="IP address"):
            NetClient("a", loopback_config(n_replicas=3), host="localhost")


class TestClientsOfOneCluster:
    """Clients built as ``net client`` builds them, in one process."""

    def test_concurrent_clients_are_all_executed(self):
        config = loopback_config(n_replicas=3)
        with TcpCluster(config) as cluster:
            clients = [NetClient(_client_id(), config, contact=contact)
                       for contact in (0, 1)]
            try:
                stats = run_closed_loop(
                    clients, [Feed(OPS, 10_000), Feed(OPS, 20_000)],
                    batches=OPS // 4, batch=4)
            finally:
                for client in clients:
                    client.close()
            assert (stats.executed, stats.errors) == (2 * OPS, 0)
            assert cluster.wait_converged(2 * OPS)
            assert cluster.total_executed() == [2 * OPS] * 3

    def test_a_later_client_is_not_answered_from_an_earlier_ones_cache(self):
        # Its request ids restart at 1: under a shared client id the
        # replicas would take every one of them for a duplicate.
        config = loopback_config(n_replicas=3)
        with TcpCluster(config) as cluster:
            for first in (10_000, 20_000):
                client = NetClient(_client_id(), config)
                try:
                    assert client.execute_batch(
                        Feed(4, first).commands(4)) == [True] * 4
                finally:
                    client.close()
            assert cluster.wait_converged(8)
            assert cluster.total_executed() == [8] * 3
