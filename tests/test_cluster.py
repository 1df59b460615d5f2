"""End-to-end tests of the threaded SMR cluster."""

import threading

import pytest

from repro.apps import BankService, KVStoreService, LinkedListService
from repro.core.command import Command
from repro.errors import ConfigurationError
from repro.smr import ClientTimeout, ClusterConfig, ThreadedCluster
from repro.workload import WorkloadGenerator


def linked_list_config(**overrides):
    defaults = dict(
        service_factory=lambda: LinkedListService(initial_size=50),
        cos_algorithm="lock-free",
        workers=3,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestBasicOperation:
    @pytest.mark.parametrize("algorithm", ("lock-free", "coarse-grained",
                                           "fine-grained", "sequential"))
    def test_round_trips_all_algorithms(self, algorithm):
        with ThreadedCluster(linked_list_config(
                cos_algorithm=algorithm,
                workers=1 if algorithm == "sequential" else 3)) as cluster:
            client = cluster.client()
            assert client.execute(
                Command("contains", (5,), writes=False)) is True
            assert client.execute(Command("add", (500,), writes=True)) is True
            assert client.execute(Command("add", (500,), writes=True)) is False

    def test_batch_round_trip(self):
        with ThreadedCluster(linked_list_config()) as cluster:
            client = cluster.client()
            responses = client.execute_batch(
                [Command("add", (1000 + i,), writes=True) for i in range(25)])
            assert responses == [True] * 25

    def test_replicas_converge(self):
        with ThreadedCluster(linked_list_config()) as cluster:
            client = cluster.client()
            workload = WorkloadGenerator(30.0, key_space=200, seed=5)
            for _ in range(8):
                client.execute_batch(workload.commands(10))
            assert cluster.wait_converged(80, timeout=5.0)
            snapshots = [sorted(s.snapshot()) for s in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_sequencer_protocol(self):
        with ThreadedCluster(linked_list_config(
                protocol="sequencer")) as cluster:
            client = cluster.client()
            assert client.execute(
                Command("contains", (1,), writes=False)) is True

    def test_multiple_clients_different_contacts(self):
        with ThreadedCluster(linked_list_config()) as cluster:
            clients = [cluster.client(contact=i) for i in range(3)]
            for index, client in enumerate(clients):
                assert client.execute(
                    Command("add", (900 + index,), writes=True)) is True
            assert cluster.wait_converged(3, timeout=5.0)

    def test_client_ids_unique(self):
        with ThreadedCluster(linked_list_config()) as cluster:
            cluster.client("dup")
            with pytest.raises(ConfigurationError):
                cluster.client("dup")


class TestConfiguration:
    def test_even_paxos_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(service_factory=LinkedListService,
                          n_replicas=4).validate()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(service_factory=LinkedListService,
                          protocol="carrier-pigeon").validate()

    def test_sequencer_allows_even_count(self):
        config = ClusterConfig(service_factory=LinkedListService,
                               protocol="sequencer", n_replicas=2)
        config.validate()


class TestFaultTolerance:
    def test_follower_crash_preserves_service(self):
        with ThreadedCluster(linked_list_config()) as cluster:
            client = cluster.client()
            client.execute(Command("add", (700,), writes=True))
            cluster.crash(2)
            assert client.execute(
                Command("contains", (700,), writes=False)) is True
            # Survivors agree once both executed the add (the first reply
            # only proves one of them did).
            assert cluster.wait_converged(1, timeout=5.0, replicas=[0, 1])
            snapshots = [sorted(cluster.replicas[i].service.snapshot())
                         for i in (0, 1)]
            assert snapshots[0] == snapshots[1]

    def test_leader_crash_preserves_service(self):
        config = linked_list_config(
            leader_timeout=0.1, heartbeat_interval=0.03, client_timeout=1.5)
        with ThreadedCluster(config) as cluster:
            client = cluster.client(contact=1)
            client.execute(Command("add", (800,), writes=True))
            cluster.crash(0)  # the initial paxos leader
            # The client retries through surviving replicas; a new leader
            # must emerge and serve the request.
            assert client.execute(
                Command("contains", (800,), writes=False)) is True

    def test_majority_crash_times_out(self):
        config = linked_list_config(client_timeout=0.2)
        with ThreadedCluster(config) as cluster:
            client = cluster.client(timeout=0.2)
            client.execute(Command("contains", (1,), writes=False))
            cluster.crash(1)
            cluster.crash(2)
            cluster.crash(0)
            with pytest.raises(ClientTimeout):
                client.execute(Command("contains", (2,), writes=False))


class TestBankEndToEnd:
    def test_concurrent_transfers_conserve_money(self):
        config = ClusterConfig(service_factory=BankService,
                               cos_algorithm="lock-free", workers=4)
        with ThreadedCluster(config) as cluster:
            funding = cluster.client()
            funding.execute_batch(
                [BankService.deposit(f"a{i}", 100) for i in range(8)])

            def hammer(index):
                import random
                rng = random.Random(index)
                client = cluster.client(contact=index % 3)
                for _ in range(20):
                    src, dst = rng.sample(range(8), 2)
                    client.execute(
                        BankService.transfer(f"a{src}", f"a{dst}",
                                             rng.randint(1, 10)))

            threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert cluster.wait_converged(88, timeout=5.0)
            for service in cluster.services():
                assert service.total_money() == 800


class TestKVEndToEnd:
    def test_keyed_conflicts_converge(self):
        config = ClusterConfig(service_factory=KVStoreService,
                               cos_algorithm="lock-free", workers=4)
        with ThreadedCluster(config) as cluster:
            client = cluster.client()
            for index in range(60):
                client.execute(KVStoreService.put(f"k{index % 6}", index))
            assert cluster.wait_converged(60, timeout=5.0)
            snapshots = [s.snapshot() for s in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]
            assert snapshots[0] == {f"k{i}": 54 + i for i in range(6)}


class TestSpeculativeCluster:
    def test_speculative_round_trip_and_convergence(self):
        from repro.spec.replica import SpeculativeReplica

        with ThreadedCluster(ClusterConfig(
                service_factory=KVStoreService, protocol="sequencer",
                speculative=True, workers=2)) as cluster:
            client = cluster.client()
            for i in range(20):
                assert client.execute(
                    KVStoreService.put(f"k{i}", i)) is None
            assert client.execute(KVStoreService.get("k7")) == 7
            assert cluster.wait_converged(21, timeout=5.0)
            assert all(isinstance(r, SpeculativeReplica)
                       for r in cluster.replicas)
            # The commands really went through the optimistic pipeline.
            assert all(r.speculation_stats["hits"] > 0
                       for r in cluster.replicas)
            snapshots = [s.snapshot() for s in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_speculative_requires_the_sequencer(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(service_factory=KVStoreService,
                          speculative=True).validate()
