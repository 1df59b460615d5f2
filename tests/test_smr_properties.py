"""Property-based and chaos tests for the full SMR stack.

The fundamental SMR property: whatever the interleaving of clients,
networks, and worker pools, every replica's state must equal the state of a
single sequential reference executing the same commands in delivery order —
and all replicas must agree with each other.
"""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import KVStoreService, LinkedListService
from repro.broadcast import FaultPlan
from repro.core.command import Command
from repro.smr import ClusterConfig, ThreadedCluster


def wait_until(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@st.composite
def kv_programs(draw):
    """A few clients' worth of KV operations."""
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["put", "get", "delete", "cas"]))
        key = f"k{draw(st.integers(0, 4))}"
        if kind == "put":
            ops.append(("put", key, draw(st.integers(0, 9))))
        elif kind == "get":
            ops.append(("get", key))
        elif kind == "delete":
            ops.append(("delete", key))
        else:
            ops.append(("cas", key, draw(st.integers(0, 9)),
                        draw(st.integers(0, 9))))
    return ops


def to_command(op):
    kind = op[0]
    if kind == "put":
        return KVStoreService.put(op[1], op[2])
    if kind == "get":
        return KVStoreService.get(op[1])
    if kind == "delete":
        return KVStoreService.delete(op[1])
    return KVStoreService.cas(op[1], op[2], op[3])


class TestReplicasMatchSequentialReference:
    @given(program=kv_programs(),
           algorithm=st.sampled_from(["lock-free", "coarse-grained",
                                      "class-based"]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_client_program(self, program, algorithm):
        # With one client the delivery order equals the submission order,
        # so a sequential reference predicts both responses and state.
        reference = KVStoreService()
        expected_responses = [reference.execute(to_command(op))
                              for op in program]
        config = ClusterConfig(
            service_factory=KVStoreService,
            cos_algorithm=algorithm,
            workers=3,
        )
        with ThreadedCluster(config) as cluster:
            client = cluster.client()
            responses = [client.execute(to_command(op)) for op in program]
            assert responses == expected_responses
            # A lease-served read executes at the leaseholder only, so the
            # replicas' executed counts may differ: wait on their states.
            assert wait_until(lambda: all(
                s.snapshot() == reference.snapshot()
                for s in cluster.services()))
            snapshots = [s.snapshot() for s in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]
            assert snapshots[0] == reference.snapshot()


class TestChaos:
    def test_lossy_duplicating_network_under_concurrent_clients(self):
        """Loss + duplication + delay + a crash + a recovery, live traffic."""
        config = ClusterConfig(
            service_factory=lambda: LinkedListService(initial_size=50),
            cos_algorithm="lock-free",
            workers=4,
            stable_storage=True,
            heartbeat_interval=0.03,
            leader_timeout=0.15,
            client_timeout=1.0,
            fault_plans=(FaultPlan(seed=11, min_delay=0.0, max_delay=0.002,
                                   loss=0.03, duplication=0.05),),
        )
        with ThreadedCluster(config) as cluster:
            errors = []

            def client_loop(index):
                try:
                    client = cluster.client(contact=index % 3)
                    for op in range(30):
                        key = 1000 + index * 100 + op
                        assert client.execute(
                            Command("add", (key,), writes=True)) is True
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append(error)

            threads = [threading.Thread(target=client_loop, args=(i,),
                                        daemon=True) for i in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            cluster.crash(2)
            time.sleep(0.3)
            cluster.restart_replica(2)
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert not errors, errors
            # All 120 adds executed exactly once everywhere (dedup holds
            # despite duplication and retransmission).
            assert wait_until(
                lambda: all(len(s.snapshot()) == 170
                            for s in cluster.services()), timeout=20)
            snapshots = [sorted(s.snapshot()) for s in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_partition_heals(self):
        plan = FaultPlan(min_delay=0.0, max_delay=0.0)
        config = ClusterConfig(
            service_factory=KVStoreService,
            cos_algorithm="lock-free",
            workers=2,
            heartbeat_interval=0.03,
            leader_timeout=0.12,
            fault_plans=(plan,),
        )
        with ThreadedCluster(config) as cluster:
            client = cluster.client()
            client.execute(KVStoreService.put("a", 1))
            # Isolate replica 2 from both peers; majority keeps working.
            plan.partition(2, 0)
            plan.partition(2, 1)
            client.execute(KVStoreService.put("b", 2))
            plan.heal_all()
            client.execute(KVStoreService.put("c", 3))
            assert wait_until(
                lambda: cluster.stacks[2].service.snapshot()
                == {"a": 1, "b": 2, "c": 3}, timeout=10)
