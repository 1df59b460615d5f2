"""Partitioned deployments over real sockets and real processes.

Two layers above the threaded grouped cluster (test_groups_cluster.py):

* ``TcpCluster`` with ``n_groups > 1`` — every
  :class:`~repro.net.replica.ReplicaServer` hosts one protocol node per
  group behind a single TCP endpoint, with protocol messages
  travelling in :class:`~repro.net.messages.GroupEnvelope` wrappers and
  client batches routed by partition (docs/partitioning.md).

* ``Supervisor`` with named process groups — the
  :class:`~repro.net.supervisor.ProcessGroup` regression: bouncing one
  group must not touch any other group's OS processes, and the cluster
  must serve traffic again afterwards.
"""

from __future__ import annotations

import time

import pytest

from repro.core.command import Command
from repro.errors import ConfigurationError
from repro.net.client import NetClient
from repro.net.cluster import TcpCluster
from repro.net.config import loopback_config
from repro.net.supervisor import ProcessGroup, Supervisor
from repro.workload import WorkloadGenerator

N_COMMANDS = 40


def _grouped_config(**overrides):
    base = dict(
        n_replicas=3,
        n_groups=2,
        service="linked-list-keyed",
        lease_reads=False,
        record_history=True,
        client_timeout=5.0,
    )
    base.update(overrides)
    return loopback_config(**base)


def _commands(cross: float, count: int = N_COMMANDS, seed: int = 3):
    return WorkloadGenerator(
        write_pct=100.0,
        key_space=64,
        seed=seed,
        cross_partition_fraction=cross,
        n_partitions=2 if cross > 0 else None,
    ).commands(count)


class TestGroupedTcpCluster:
    def test_cross_partition_workload_converges_identically(self):
        with TcpCluster(_grouped_config()) as cluster:
            client = cluster.client()
            commands = _commands(cross=0.25)
            for start in range(0, len(commands), 8):
                client.execute_batch(commands[start:start + 8])
            assert cluster.wait_converged(N_COMMANDS, timeout=20.0), (
                cluster.total_executed())
            positions = [server.merge.merged_positions()
                         for server in cluster.servers]
            snapshots = [server.service.snapshot()
                         for server in cluster.servers]
            assert len(positions[0]) == N_COMMANDS
            assert positions[1] == positions[0]
            assert positions[2] == positions[0]
            assert snapshots[1] == snapshots[0]
            assert snapshots[2] == snapshots[0]
            crossed = sum(server.merge.merger.emitted_cross
                          for server in cluster.servers[:1])
            assert crossed > 0, "workload never exercised rendezvous"

    def test_grouped_restart_replica_is_rejected(self):
        with TcpCluster(_grouped_config()) as cluster:
            cluster.crash(2)
            with pytest.raises(ConfigurationError,
                               match="single-group only"):
                cluster.restart_replica(2)

    def test_single_group_server_builds_no_group_plumbing(self):
        from repro.net.replica import ReplicaServer

        config = loopback_config(n_replicas=3, service="linked-list-keyed")
        server = ReplicaServer(0, config)
        assert server.merge is None and server.partition_map is None
        assert server.nodes == [server.node]

    def test_config_accepts_sequential_cos_and_mp_engine_with_groups(self):
        # Rejected while the grouped server was a separate copy that never
        # plumbed them; tests/test_stack_compositions.py runs them.
        for extra in ({"cos_algorithm": "sequential"}, {"engine": "mp"}):
            loopback_config(n_replicas=3, n_groups=2,
                            service="linked-list-keyed", **extra).validate()


class TestProcessGroups:
    def test_supervisor_rejects_bad_group_specs(self):
        config = loopback_config(n_replicas=3)
        with pytest.raises(ConfigurationError, match="in groups"):
            Supervisor(config, groups={"a": [0, 1], "b": [1, 2]})
        with pytest.raises(ConfigurationError, match="no process group"):
            Supervisor(config, groups={"a": [0, 1]})
        with pytest.raises(ConfigurationError, match="empty"):
            ProcessGroup("a", config, "unused.json", [])
        with pytest.raises(ConfigurationError, match="out of range"):
            ProcessGroup("a", config, "unused.json", [0, 7])
        with pytest.raises(ConfigurationError, match="twice"):
            ProcessGroup("a", config, "unused.json", [0, 0])

    def test_restart_group_leaves_other_groups_untouched(self):
        config = _grouped_config(client_timeout=3.0)
        groups = {"left": [0], "right": [1, 2]}
        with Supervisor(config, groups=groups) as supervisor:
            supervisor.wait_ready()
            assert supervisor.group_names() == ["left", "right"]
            with NetClient("groups-net", config, timeout=3.0) as client:
                # The keyed list seeds keys 0..49: write fresh keys so
                # ``add`` answers True.
                first = client.execute_batch(
                    [Command("add", (900 + key,), writes=True)
                     for key in range(8)])
                assert first == [True] * 8

                left_before = supervisor.group("left").pids()
                right_before = supervisor.group("right").pids()
                supervisor.restart_group("left")
                assert supervisor.group("right").pids() == right_before, (
                    "restarting one group touched another group's "
                    "processes")
                assert (supervisor.group("left").pids()[0]
                        != left_before[0])
                assert sorted(supervisor.alive()) == [0, 1, 2]

                # Replica 0 rejoins with empty learner state; give its
                # catch-up a beat before timing client traffic against it.
                time.sleep(1.0)
                second = client.execute_batch(
                    [Command("add", (800 + key,), writes=True)
                     for key in range(8)])
                assert second == [True] * 8

            with pytest.raises(ConfigurationError, match="unknown"):
                supervisor.group("middle")
        assert supervisor.alive() == []
