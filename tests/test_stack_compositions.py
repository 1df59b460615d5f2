"""Cross-feature conformance matrix of the one live replica stack.

Every stage of the replica pipeline is built in exactly one place
(:mod:`repro.smr.stack`), so its options must compose: consensus groups x
execution engine x COS algorithm, on both live runtimes.  Each cell drives
the same seeded keyed workload (25 % cross-partition commands when there
is more than one group), then requires every replica's state to agree with
the others *and* with a sequential reference execution of the stream.

Two cells were impossible before the grouped fork was folded in — the
grouped copy never plumbed them and ``NetConfig.validate`` rejected them:
``n_groups=2`` x ``engine="mp"`` and ``n_groups=2`` x
``cos_algorithm="sequential"``.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import build_service
from repro.net.cluster import TcpCluster
from repro.net.config import loopback_config
from repro.smr.cluster import ClusterConfig, ThreadedCluster
from repro.workload import WorkloadGenerator

SERVICE = "linked-list-keyed"
N_COMMANDS = 48
BATCH = 6


def _commands(n_groups: int):
    cross = 0.25 if n_groups > 1 else 0.0
    return WorkloadGenerator(
        write_pct=70.0, key_space=96, seed=17,
        cross_partition_fraction=cross,
        n_partitions=n_groups if cross else None,
    ).commands(N_COMMANDS)


def _reference(commands):
    """(responses, final snapshot) of executing the stream sequentially."""
    service = build_service(SERVICE)
    return ([service.execute(command) for command in commands],
            service.snapshot())


def _threaded(**options):
    return ThreadedCluster(ClusterConfig(
        service=SERVICE, client_timeout=5.0, **options))


def _tcp(**options):
    return TcpCluster(loopback_config(
        n_replicas=3, service=SERVICE, client_timeout=5.0, **options))


@pytest.mark.parametrize("runtime", (_threaded, _tcp),
                         ids=("threaded-cluster", "tcp-cluster"))
@pytest.mark.parametrize("cos_algorithm", ("lock-free", "sequential"))
@pytest.mark.parametrize("engine", ("threaded", "mp"))
@pytest.mark.parametrize("n_groups", (1, 2))
def test_composition_matches_sequential_reference(
        n_groups, engine, cos_algorithm, runtime):
    commands = _commands(n_groups)
    if n_groups > 1:
        assert any(len(c.args) > 1 for c in commands), (
            "seeded workload produced no cross-partition commands")
    expected_responses, reference = _reference(commands)
    with runtime(n_groups=n_groups, engine=engine,
                 cos_algorithm=cos_algorithm) as cluster:
        client = cluster.client()
        responses = []
        for start in range(0, N_COMMANDS, BATCH):
            responses += client.execute_batch(commands[start:start + BATCH])
        if n_groups == 1:
            # One total order, closed-loop client: the replicated service
            # must answer exactly like the sequential one.  (Across groups
            # a batch's cross-partition commands may legally reorder
            # against its single-partition ones; states still must agree.)
            assert responses == expected_responses
        # Lease-served reads execute at the leaseholder only, so executed
        # counts legitimately differ per replica: poll the states instead.
        deadline = time.monotonic() + 20.0
        while True:
            snapshots = [service.snapshot()
                         for service in cluster.services()]
            if (all(snapshot == reference for snapshot in snapshots)
                    or time.monotonic() > deadline):
                break
            time.sleep(0.05)
    for replica_id, snapshot in enumerate(snapshots):
        assert snapshot == reference, (
            f"replica {replica_id} diverges from the sequential reference")
