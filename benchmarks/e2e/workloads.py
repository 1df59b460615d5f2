"""The benchmark's workloads and the settings they all share.

Every workload runs the paper's linked-list service (key space 500) under
the lock-free COS with 4 workers — the paper's algorithm and the deployed
default.  The SMR workloads run 3 replica processes under Multi-Paxos with
the binary wire codec, contact replica 0, and no injected message delay.
Paced rates are fixed absolute numbers, never a share of measured capacity,
so a parent commit and a change are offered the same load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Workload", "WORKLOADS", "KEY_SPACE", "WORKERS", "COS_ALGORITHM",
           "SERVICE", "N_REPLICAS", "CLOSED_CLIENTS", "PACED_CLIENTS",
           "SLICES", "STANDALONE_BATCH"]

SERVICE = "linked-list"
KEY_SPACE = 500
WORKERS = 4
COS_ALGORITHM = "lock-free"
N_REPLICAS = 3
#: Closed loop: virtual clients with one single-command request each.
CLOSED_CLIENTS = 32
#: Open loop: pool the paced phase draws its virtual clients from.
PACED_CLIENTS = 256
#: Every wall-clock metric is the median over this many slices of a phase.
SLICES = 5
#: Commands per in-process delivery of the standalone workload.
STANDALONE_BATCH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    write_pct: float
    #: Open-loop arrival rate of the paced phase, commands per second.
    paced_rate: float
    #: Entries the service starts with.
    initial_size: int
    #: In-process replica pipeline instead of the 3-process TCP cluster.
    standalone: bool = False


# Why each exists is in BENCHMARK.json (``why``) and README.md; in short,
# each stresses layers the others bypass.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # Paper Figs. 4-6 mix: leased reads and ordered writes, every layer.
        Workload("smr-mixed", write_pct=15.0, paced_rate=1500.0,
                 initial_size=50),
        # Everything ordered, every pair conflicts: Paxos + COS chain.
        Workload("smr-writes", write_pct=100.0, paced_rate=500.0,
                 initial_size=50),
        # Leased reads bypass Paxos and the COS: codec + transport + client.
        Workload("smr-reads", write_pct=0.0, paced_rate=2000.0,
                 initial_size=50),
        # Paper Figs. 2-3: full graph, COS + dispatch only, no wire.
        Workload("standalone-cos", write_pct=15.0, paced_rate=1000.0,
                 initial_size=1000, standalone=True),
    )
}
