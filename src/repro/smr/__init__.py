"""State machine replication layer: services, replicas, clients, clusters."""

import importlib
from typing import Any

from repro.smr.checkpoint import Checkpoint, CheckpointError
from repro.smr.replica import STOP_OP, ParallelReplica
from repro.smr.service import Service

#: Public name -> defining submodule, resolved on first use (PEP 562): a
#: replica process builds its stack from :mod:`repro.smr.stack` without the
#: in-process cluster and client it never runs.
_LAZY = {
    "Client": "client",
    "ClientTimeout": "client",
    "ClusterConfig": "cluster",
    "ThreadedCluster": "cluster",
}

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


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
