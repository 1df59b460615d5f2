"""State machine replication layer: services, replicas, clients, clusters."""

from repro._lazy import exports

#: Resolved on first use (PEP 562): a replica process builds its stack
#: from :mod:`repro.smr.stack` without the in-process cluster and client it
#: never runs.
__getattr__, __all__ = exports(__name__, {
    ".checkpoint": ("Checkpoint", "CheckpointError"),
    ".client": ("Client", "ClientTimeout"),
    ".cluster": ("ClusterConfig", "ThreadedCluster"),
    ".replica": ("STOP_OP", "ParallelReplica"),
    ".service": ("Service",),
})
