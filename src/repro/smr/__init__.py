"""State machine replication layer: services, replicas, clients, clusters."""

from repro.smr.checkpoint import Checkpoint, CheckpointError
from repro.smr.client import Client, ClientTimeout
from repro.smr.cluster import ClusterConfig, ThreadedCluster
from repro.smr.replica import STOP_OP, ParallelReplica
from repro.smr.service import Service

__all__ = [
    "Service",
    "ParallelReplica",
    "STOP_OP",
    "Client",
    "ClientTimeout",
    "ClusterConfig",
    "ThreadedCluster",
    "Checkpoint",
    "CheckpointError",
]
