"""In-process loopback TCP cluster.

:class:`TcpCluster` mirrors :class:`~repro.smr.cluster.ThreadedCluster`'s
API — ``client()``, ``crash()``, ``restart_replica()``, ``services()``,
``total_executed()`` — but every replica is a :class:`ReplicaServer` with
its own real localhost socket, and clients talk TCP.  All of it lives in one
process, which is what the test suite wants: the crash-and-recover
scenarios that run against the threaded cluster run here unchanged over
real sockets, without the cost of spawning interpreters.

(The genuinely multi-process deployment — one interpreter and GIL per
replica — is :class:`repro.net.supervisor.Supervisor`.)

With ``n_groups > 1`` every server hosts one ordering node per consensus
group — the partitioned deployment of docs/partitioning.md — and the same
client/crash API applies.  (Checkpoint-based ``restart_replica`` is
single-group only for now.)
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List, Optional

from repro.net.client import NetClient
from repro.net.config import NetConfig, loopback_config
from repro.net.replica import ReplicaServer
from repro.smr.service import Service
from repro.smr.stack import restart_replica

__all__ = ["TcpCluster"]


class TcpCluster:
    """A running replicated service over localhost TCP, in one process."""

    def __init__(self, config: Optional[NetConfig] = None, **overrides):
        self.config = config or loopback_config(**overrides)
        self.servers: List[ReplicaServer] = [
            ReplicaServer(replica_id, self.config)
            for replica_id in range(self.config.n_replicas)
        ]
        self._clients: List[NetClient] = []
        self._client_counter = itertools.count(1)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "TcpCluster":
        for server in self.servers:
            server.start()
        return self

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        for server in self.servers:
            server.stop()

    def __enter__(self) -> "TcpCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ client

    def client(self, client_id: Optional[str] = None, contact: int = 0,
               timeout: Optional[float] = None) -> NetClient:
        if client_id is None:
            client_id = f"net-client-{next(self._client_counter)}"
        client = NetClient(client_id, self.config, contact=contact,
                           timeout=timeout)
        self._clients.append(client)
        return client

    # ------------------------------------------------------------------ faults

    def crash(self, replica_id: int) -> None:
        """Crash-stop one replica.  In one process that is its stop: its
        peers see its sockets close either way."""
        self.servers[replica_id].stop()

    def restart_replica(self, replica_id: int,
                        from_peer: Optional[int] = None) -> None:
        """Rebuild a crashed replica from a live peer's checkpoint
        (:func:`repro.smr.stack.restart_replica`), on the same endpoint.

        Peers' transports redial the endpoint automatically (reconnect
        backoff).  Single-group only; grouped replicas recover via protocol
        catch-up — kill/restart a process deployment instead.  (A
        single-group Paxos replica started blank converges too: its peers
        send the checkpoint in-band once it asks below their log floor.)
        """
        self.servers[replica_id] = restart_replica(
            self.servers, replica_id, from_peer,
            lambda cut: ReplicaServer(replica_id, self.config,
                                      checkpoint=cut))

    # --------------------------------------------------------------- helpers

    def services(self) -> List[Service]:
        return [server.service for server in self.servers]

    def total_executed(self) -> List[int]:
        return [server.replica.executed for server in self.servers]

    def wait_converged(self, expected_executed: int,
                       timeout: float = 10.0) -> bool:
        """Block until every live replica executed >= the expected count."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            live = [server.replica.executed for server in self.servers
                    if server.running]
            if live and min(live) >= expected_executed:
                return True
            time.sleep(0.01)
        return False
