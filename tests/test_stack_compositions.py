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
``cos_algorithm="sequential"``.  Two more opened when both runtimes'
configs became one ``DeploymentSpec``: speculation and ``service_kwargs``
over TCP.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import build_service
from repro.errors import ConfigurationError
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


def _reference(commands, **service_kwargs):
    """(responses, final snapshot) of executing the stream sequentially."""
    service = build_service(SERVICE, **service_kwargs)
    return ([service.execute(command) for command in commands],
            service.snapshot())


def _threaded(**options):
    return ThreadedCluster(ClusterConfig(
        service=SERVICE, client_timeout=5.0, **options))


def _tcp(**options):
    return TcpCluster(loopback_config(
        n_replicas=3, service=SERVICE, client_timeout=5.0, **options))


RUNTIMES = pytest.mark.parametrize(
    "runtime", (_threaded, _tcp), ids=("threaded-cluster", "tcp-cluster"))


def _assert_matches_reference(runtime, n_groups=1, **options):
    """Drive the seeded stream through ``runtime(**options)``; every
    replica must end in the sequential reference's state (and, in one
    total order, the client must have seen its responses)."""
    commands = _commands(n_groups)
    if n_groups > 1:
        assert any(len(c.args) > 1 for c in commands), (
            "seeded workload produced no cross-partition commands")
    expected_responses, reference = _reference(
        commands, **options.get("service_kwargs", {}))
    with runtime(n_groups=n_groups, **options) as cluster:
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


@RUNTIMES
@pytest.mark.parametrize("cos_algorithm", ("lock-free", "sequential"))
@pytest.mark.parametrize("engine", ("threaded", "mp"))
@pytest.mark.parametrize("n_groups", (1, 2))
def test_composition_matches_sequential_reference(
        n_groups, engine, cos_algorithm, runtime):
    _assert_matches_reference(runtime, n_groups=n_groups, engine=engine,
                              cos_algorithm=cos_algorithm)


@RUNTIMES
def test_speculation_over_the_sequencer_matches_reference(runtime):
    """Optimistic execution is a field of the shared spec, so the TCP
    runtime speculates too (``OptimisticAnnounce`` crosses the wire)."""
    _assert_matches_reference(runtime, speculative=True,
                              protocol="sequencer")


@pytest.mark.parametrize("engine", ("threaded", "mp"))
def test_service_kwargs_reach_tcp_replicas(engine):
    """Both engines build the service from (service, service_kwargs): a
    replica that ignored them would start from the default 50 entries."""
    _assert_matches_reference(_tcp, engine=engine,
                              service_kwargs={"initial_size": 7})


@RUNTIMES
def test_checkpoint_restart_is_refused_at_several_groups(runtime):
    """Stated once (``stack.install_checkpoint``), so both runtimes refuse:
    a checkpoint names one instance frontier, not one per group."""
    with runtime(n_groups=2) as cluster:
        cluster.crash(2)
        with pytest.raises(ConfigurationError, match="single-group only"):
            cluster.restart_replica(2)
        # Refused before anything was rebuilt: the survivors still serve.
        client = cluster.client()
        commands = _commands(2)[:BATCH]
        assert len(client.execute_batch(commands)) == BATCH
