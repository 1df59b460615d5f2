"""Differential tests of the threaded partitioned cluster.

The partitioned deployment's safety claim (docs/partitioning.md): every
replica merges its groups' ordered streams into the *same* total order —
cross-partition commands land at the identical merged position everywhere,
and conflicting commands release in the same per-class order — even when
seeded loss/duplication/reordering shapes each group's ordering traffic
differently per replica.  These tests drive a real
:class:`~repro.smr.cluster.ThreadedCluster` with ``n_groups > 1``
(threaded engine, real workload generator) and compare replicas against
each other, and the grouped deployment against a single-group baseline.

Note on counters: lease-served reads execute only at the leaseholder, so
tests that wait for *every* replica to reach an executed count run with
``lease_reads=False`` (writes and reads all take the ordered path).
"""

from __future__ import annotations

import pytest

from repro.broadcast import FaultPlan
from repro.core.command import Command
from repro.smr.cluster import ClusterConfig, ThreadedCluster
from repro.workload import WorkloadGenerator

N_COMMANDS = 60


def _config(n_groups: int, **overrides) -> ClusterConfig:
    base = dict(
        n_groups=n_groups,
        n_replicas=3,
        service="linked-list-keyed",
        lease_reads=False,
        record_history=True,
        client_timeout=5.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _workload(n_groups: int, cross: float, seed: int = 3,
              write_pct: float = 100.0):
    return WorkloadGenerator(
        write_pct=write_pct,
        key_space=64,
        seed=seed,
        client_id=None,
        cross_partition_fraction=cross,
        n_partitions=n_groups if cross > 0 else None,
    )


def _drive(cluster: ThreadedCluster, commands):
    # The client re-stamps commands with its own id and request ids
    # 1..len(commands) in stream order (repro.smr.client).
    client = cluster.client()
    for start in range(0, len(commands), 6):
        client.execute_batch(commands[start:start + 6])
    return client


def _merged_positions(cluster: ThreadedCluster):
    return [merge.merged_positions() for merge in cluster.merges]


def _class_histories(cluster: ThreadedCluster):
    return [merge.class_histories() for merge in cluster.merges]


def _assert_replicas_agree(cluster: ThreadedCluster) -> None:
    positions = _merged_positions(cluster)
    histories = _class_histories(cluster)
    snapshots = [service.snapshot() for service in cluster.services()]
    for replica in range(1, cluster.config.n_replicas):
        assert positions[replica] == positions[0], (
            f"replica {replica} merged positions diverge")
        assert histories[replica] == histories[0], (
            f"replica {replica} per-class history diverges")
        assert snapshots[replica] == snapshots[0], (
            f"replica {replica} service state diverges")


class TestConvergence:
    def test_cross_partition_workload_converges_identically(self):
        commands = _workload(2, cross=0.25).commands(N_COMMANDS)
        with ThreadedCluster(_config(2)) as cluster:
            _drive(cluster, commands)
            assert cluster.wait_converged(N_COMMANDS, timeout=20.0), (
                cluster.total_executed())
            _assert_replicas_agree(cluster)
            positions = _merged_positions(cluster)[0]
            assert len(positions) == N_COMMANDS
            # The stream really exercised the rendezvous path.
            cross = [c for c in commands if len(c.args) > 1]
            assert cross, "seeded workload produced no cross commands"

    def test_cross_commands_anchor_in_lowest_group(self):
        commands = _workload(2, cross=0.4, seed=5).commands(N_COMMANDS)
        with ThreadedCluster(_config(2)) as cluster:
            client = _drive(cluster, commands)
            assert cluster.wait_converged(N_COMMANDS, timeout=20.0)
            positions = _merged_positions(cluster)[0]
            for index, command in enumerate(commands):
                if len(command.args) <= 1:
                    continue
                groups = cluster.partition_map.groups_of(command)
                key = (client.client_id, index + 1)
                assert positions[key][0] == min(groups)

    def test_three_groups_mixed_reads_and_writes(self):
        commands = _workload(3, cross=0.2, seed=9,
                             write_pct=70.0).commands(N_COMMANDS)
        with ThreadedCluster(_config(3)) as cluster:
            _drive(cluster, commands)
            assert cluster.wait_converged(N_COMMANDS, timeout=20.0), (
                cluster.total_executed())
            _assert_replicas_agree(cluster)


class TestUnderFaults:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_merge_under_seeded_loss_and_reordering(self, seed):
        # Each group's ordering traffic gets its own seeded fault plan:
        # jittered delays reorder, loss forces retransmission/catch-up.
        plans = (
            FaultPlan(seed=seed, min_delay=0.0, max_delay=2e-3, loss=0.05,
                      duplication=0.05),
            FaultPlan(seed=seed + 10, min_delay=0.0, max_delay=1e-3,
                      loss=0.02),
        )
        commands = _workload(2, cross=0.25, seed=seed).commands(N_COMMANDS)
        with ThreadedCluster(_config(2, fault_plans=plans)) as cluster:
            _drive(cluster, commands)
            assert cluster.wait_converged(N_COMMANDS, timeout=30.0), (
                cluster.total_executed())
            _assert_replicas_agree(cluster)

    def test_survives_one_replica_crash(self):
        commands = _workload(2, cross=0.25, seed=7).commands(N_COMMANDS)
        with ThreadedCluster(_config(2)) as cluster:
            _drive(cluster, commands[:30])
            assert cluster.wait_converged(30, timeout=20.0)
            cluster.crash(2)
            _drive(cluster, commands[30:])
            assert cluster.wait_converged(N_COMMANDS, timeout=30.0,
                                          replicas=[0, 1]), (
                cluster.total_executed())
            positions = _merged_positions(cluster)
            histories = _class_histories(cluster)
            assert positions[1] == positions[0]
            assert histories[1] == histories[0]


class TestAgainstSingleGroupBaseline:
    def test_grouped_state_matches_single_group(self):
        # The add-only workload is order-insensitive at the state level,
        # so grouped and ungrouped deployments must end in the same
        # service state; this is the cheap cross-deployment differential
        # (order determinism itself is pinned replica-vs-replica above).
        commands = _workload(2, cross=0.25, seed=11).commands(N_COMMANDS)
        snapshots = []
        for n_groups in (1, 2):
            with ThreadedCluster(_config(n_groups)) as cluster:
                _drive(cluster, commands)
                assert cluster.wait_converged(N_COMMANDS, timeout=20.0)
                snapshots.append(cluster.services()[0].snapshot())
        assert snapshots[0] == snapshots[1]

    def test_single_group_has_no_rendezvous_traffic(self):
        commands = _workload(2, cross=0.0, seed=13).commands(20)
        with ThreadedCluster(_config(1)) as cluster:
            _drive(cluster, commands)
            assert cluster.wait_converged(20, timeout=20.0)
            # One group is the classic wiring: no merge stage exists at
            # all, let alone rendezvous traffic through one.
            assert cluster.merges == [None] * 3
            assert cluster.partition_map is None
