#!/usr/bin/env python
"""Fault tolerance demo: a replicated bank surviving a replica crash.

Accounts live in a :class:`~repro.apps.bank.BankService` replicated over a
3-replica Multi-Paxos cluster (f = 1).  Client threads fire concurrent
transfers between random accounts — which the lock-free scheduler overlaps
whenever they touch disjoint accounts — while one replica is crash-stopped
mid-run.  At the end the surviving replicas must agree and the total money
must be conserved.

Run:  python examples/bank_transfers.py
"""

import random
import threading
import time

from repro.apps import BankService
from repro.smr import ClusterConfig, ThreadedCluster

N_ACCOUNTS = 20
INITIAL_BALANCE = 1_000
N_CLIENTS = 6
TRANSFERS_PER_CLIENT = 40


def main() -> None:
    config = ClusterConfig(
        service_factory=BankService,
        n_replicas=3,
        cos_algorithm="lock-free",
        workers=4,
        # the crashed replica stops answering: rely on the other replicas
        client_timeout=1.0,
    )
    with ThreadedCluster(config) as cluster:
        accounts = [f"acct-{i}" for i in range(N_ACCOUNTS)]
        funding = cluster.client()
        funding.execute_batch(
            [BankService.deposit(account, INITIAL_BALANCE)
             for account in accounts]
        )
        expected_total = N_ACCOUNTS * INITIAL_BALANCE
        print(f"funded {N_ACCOUNTS} accounts with {expected_total} total")

        def transfer_loop(index: int) -> None:
            rng = random.Random(index)
            client = cluster.client(contact=index % 3)
            for _ in range(TRANSFERS_PER_CLIENT):
                src, dst = rng.sample(accounts, 2)
                client.execute(
                    BankService.transfer(src, dst, rng.randint(1, 50)))

        threads = [
            threading.Thread(target=transfer_loop, args=(i,), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()

        time.sleep(0.15)
        print("crashing replica 2 mid-run (f = 1 tolerated)...")
        cluster.crash(2)

        for thread in threads:
            thread.join(timeout=30.0)
        time.sleep(0.4)  # drain

        survivors = [cluster.stacks[i].service for i in (0, 1)]
        totals = [service.total_money() for service in survivors]
        snapshots = [service.snapshot() for service in survivors]
        print(f"surviving replica totals: {totals}")
        print(f"survivors agree: {snapshots[0] == snapshots[1]}")
        print(f"money conserved: {totals[0] == expected_total}")
        if snapshots[0] != snapshots[1] or totals[0] != expected_total:
            raise SystemExit("invariant violated — this is a bug")
        print("done: service stayed live and consistent through the crash")


if __name__ == "__main__":
    main()
