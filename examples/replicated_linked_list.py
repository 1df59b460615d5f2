#!/usr/bin/env python
"""The paper's linked-list service, end to end (paper §7.2).

Replays the paper's workload on a real threaded deployment: a 3-replica
cluster serving a linked list, many closed-loop client threads issuing a
read/write mix, and a schedulable choice of COS algorithm.  Prints the
measured throughput per scheduler and verifies replica consistency.

Under CPython this demonstrates *correct concurrent scheduling*, not
multi-core speedup (see DESIGN.md §2); the simulated experiments in
benchmarks/ reproduce the paper's performance figures.

Run:  python examples/replicated_linked_list.py [write_pct] [clients]
"""

import sys
import threading
import time

from repro.apps import LinkedListService
from repro.smr import ClusterConfig, ThreadedCluster
from repro.workload import WorkloadGenerator


def run_clients(cluster: ThreadedCluster, n_clients: int, write_pct: float,
                duration: float) -> int:
    """Closed-loop clients hammering the cluster; returns commands done."""
    done = [0] * n_clients
    stop = threading.Event()

    def client_loop(index: int) -> None:
        client = cluster.client(contact=index % cluster.config.n_replicas)
        workload = WorkloadGenerator(write_pct, key_space=2_000,
                                     seed=100 + index)
        while not stop.is_set():
            batch = workload.commands(10)
            client.execute_batch(batch)
            done[index] += len(batch)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=2.0)
    return sum(done)


def main() -> None:
    write_pct = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    n_clients = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    duration = 2.0

    for algorithm in ("sequential", "coarse-grained", "fine-grained",
                      "lock-free"):
        config = ClusterConfig(
            service_factory=lambda: LinkedListService(initial_size=1_000),
            cos_algorithm=algorithm,
            workers=1 if algorithm == "sequential" else 4,
        )
        with ThreadedCluster(config) as cluster:
            executed = run_clients(cluster, n_clients, write_pct, duration)
            # Followers may still be executing what the clients already saw
            # answered by the fastest replica: give them time to drain.
            deadline = time.monotonic() + 5.0
            while True:
                snapshots = [sorted(s.snapshot()) for s in cluster.services()]
                agree = all(snap == snapshots[0] for snap in snapshots)
                if agree or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            print(
                f"{algorithm:15s} {executed / duration:10.0f} cmds/s  "
                f"(write_pct={write_pct}%, clients={n_clients}, "
                f"replicas consistent: {agree})"
            )
            if not agree:
                raise SystemExit("replica divergence — this is a bug")


if __name__ == "__main__":
    main()
