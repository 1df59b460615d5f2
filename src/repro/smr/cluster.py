"""Threaded SMR cluster: wiring for a full in-process deployment.

Assembles transport + atomic broadcast nodes + replicas + clients into a
running replicated service, the in-process equivalent of the paper's
3-machine BFT-SMaRt deployment (§7.1):

- every replica runs one broadcast protocol node per consensus group
  (Multi-Paxos by default; one group unless ``n_groups > 1``) and an
  execution stage, both built by :mod:`repro.smr.stack`;
- clients submit batches through a contact replica and wait for the first
  response;
- :meth:`ThreadedCluster.crash` kills a replica (crash-stop) to exercise
  fault tolerance with ``f = 1`` out of ``n = 3``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broadcast import FaultPlan, ThreadedNode, ThreadedTransport
from repro.broadcast.storage import InMemoryStableStore
from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.groups.stage import MergeStage
from repro.smr.client import Client
from repro.smr.deployment import DeploymentSpec
from repro.smr.replica import ParallelReplica
from repro.smr.service import Service
from repro.smr.stack import (build_execution, build_nodes,
                             install_checkpoint, recovery_peer, route)

__all__ = ["ClusterConfig", "ThreadedCluster"]

ServiceFactory = Callable[[], Service]


@dataclass(frozen=True, kw_only=True)
class ClusterConfig(DeploymentSpec):
    """A :class:`DeploymentSpec` run in one process, plus its test hooks."""

    n_replicas: int = 3
    #: Builds each replica's service instead of ``service`` /
    #: ``service_kwargs`` (threaded engine only: a live instance cannot
    #: cross into the mp engine's shard processes).
    service_factory: Optional[ServiceFactory] = None
    #: Persist acceptor state per node so crashed replicas can rejoin
    #: safely (see repro.broadcast.storage).
    stable_storage: bool = False
    #: ``fault_plans[g]`` shapes group ``g``'s ordering traffic (shorter
    #: tuples are padded with their last entry); empty is a perfect network.
    fault_plans: Tuple[FaultPlan, ...] = ()

    def plan_for(self, group: int) -> FaultPlan:
        if not self.fault_plans:
            return FaultPlan(min_delay=0.0, max_delay=0.0)
        return self.fault_plans[min(group, len(self.fault_plans) - 1)]

    def validate(self) -> None:
        super().validate()
        if self.engine == "mp" and self.service_factory is not None:
            raise ConfigurationError(
                "engine='mp' builds the service from its service name: shard "
                "worker processes rebuild it from (service, service_kwargs), "
                "a live service_factory instance cannot cross process "
                "boundaries")


class ThreadedCluster:
    """A running in-process replicated service."""

    def __init__(self, config: ClusterConfig):
        config.validate()
        self.config = config
        #: One transport per consensus group: groups never exchange
        #: messages, the rendezvous is replica-local.
        self.transports: List[ThreadedTransport] = [
            ThreadedTransport(config.n_replicas, config.plan_for(group))
            for group in range(config.n_groups)
        ]
        self._stores: Dict[Tuple[int, int], Dict[Any, Any]] = {}
        self._clients: Dict[str, Client] = {}
        self._clients_lock = threading.Lock()
        self._client_counter = itertools.count(1)
        # Slots filled (and, on restart, refilled) by _build_stack.
        self.replicas: List[ParallelReplica] = [None] * config.n_replicas
        #: merges[replica] — the replica's merge stage; None at one group.
        self.merges: List[Optional[MergeStage]] = [None] * config.n_replicas
        #: group_nodes[group][replica] — one ordering node per pair.
        self.group_nodes: List[List[ThreadedNode]] = [
            [None] * config.n_replicas for _ in range(config.n_groups)]
        for replica_id in range(config.n_replicas):
            self._build_stack(replica_id)
        #: Routes client batches to groups; None at one group.
        self.partition_map = (self.merges[0].partition_map
                              if config.n_groups > 1 else None)
        self._started = False

    @property
    def nodes(self) -> List[ThreadedNode]:
        """Group 0's node per replica — *the* nodes at one group."""
        return self.group_nodes[0]

    def _build_stack(self, replica_id: int,
                     checkpoint: Optional[Any] = None) -> None:
        """Build one replica's stack; started by the caller."""
        config = self.config
        replica = build_execution(
            config, replica_id, on_response=self._route_response,
            service_factory=config.service_factory)
        stores = None
        if config.stable_storage:
            stores = [
                InMemoryStableStore(
                    self._stores.setdefault((group, replica_id), {}))
                for group in range(config.n_groups)]
        # Refuses a grouped restart before the transport is touched.
        first_instance = install_checkpoint(config, replica, checkpoint)
        if checkpoint is not None:
            # A rebuilt replica: drop what its predecessor left queued.
            self.transports[0].reset_inbox(replica_id)
            self.transports[0].recover(replica_id)
        nodes, self.merges[replica_id] = build_nodes(
            config, replica_id, replica, self.transports,
            first_instance=first_instance, stable_stores=stores)
        self.replicas[replica_id] = replica
        for group, node in enumerate(nodes):
            self.group_nodes[group][replica_id] = node

    def _start_replica(self, replica_id: int) -> None:
        self.replicas[replica_id].start()
        for nodes in self.group_nodes:
            nodes[replica_id].start()

    def _engines(self) -> List[Any]:
        """The MpService of every replica (lifecycle calls the Service
        interface doesn't have); empty under the threaded engine."""
        if self.config.engine != "mp":
            return []
        return [replica.service for replica in self.replicas]

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "ThreadedCluster":
        if self._started:
            raise ShutdownError("cluster already started")
        self._started = True
        # Engines first: with the fork start method the shard processes
        # should multiply the process before replica/node threads exist.
        for engine in self._engines():
            engine.start()
        for replica_id in range(self.config.n_replicas):
            self._start_replica(replica_id)
        return self

    def stop(self) -> None:
        for nodes in self.group_nodes:
            for node in nodes:
                node.stop()
        for transport in self.transports:
            transport.close()
        for replica in self.replicas:
            replica.stop()
        for engine in self._engines():
            engine.stop()  # idempotent; after replicas so drains complete

    def __enter__(self) -> "ThreadedCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ client

    def client(self, client_id: Optional[str] = None, contact: int = 0,
               timeout: Optional[float] = None) -> Client:
        """Create (and register) a client of this cluster."""
        if client_id is None:
            client_id = f"client-{next(self._client_counter)}"
        client = Client(
            client_id,
            self._submit,
            self.config.n_replicas,
            contact=contact,
            timeout=timeout if timeout is not None else self.config.client_timeout,
        )
        with self._clients_lock:
            if client_id in self._clients:
                raise ConfigurationError(f"duplicate client id {client_id!r}")
            self._clients[client_id] = client
        return client

    def _live_node(self, nodes: List[ThreadedNode],
                   contact: int) -> ThreadedNode:
        node = nodes[contact % len(nodes)]
        if not node.running:
            node = next((n for n in nodes if n.running), None)
            if node is None:
                raise ShutdownError("no replica is running")
        return node

    def _submit(self, payload: Tuple[Command, ...], contact: int) -> None:
        route(self.partition_map, payload,
              [self._live_node(nodes, contact) for nodes in self.group_nodes],
              self.config.lease_reads)

    def _route_response(self, command: Command, response: Any,
                        replica_id: int) -> None:
        with self._clients_lock:
            client = self._clients.get(command.client_id)
        if client is not None:
            client.deliver_response(command, response)

    # ------------------------------------------------------------------ faults

    def crash(self, replica_id: int) -> None:
        """Crash-stop one replica: no more messages in or out (in any
        group), no execution."""
        for transport, nodes in zip(self.transports, self.group_nodes):
            transport.crash(replica_id)
            nodes[replica_id].stop()
        for nodes in self.group_nodes:
            # A step in flight finishes first: once this returns the
            # replica is not running, and may be restarted.
            nodes[replica_id].join(timeout=2.0)
        replica = self.replicas[replica_id]
        replica.stop(timeout=1.0)
        if self.config.engine == "mp":
            replica.service.stop()

    def restart_replica(self, replica_id: int,
                        from_peer: Optional[int] = None) -> None:
        """Rebuild a crashed replica from a live peer's checkpoint.

        The peer briefly quiesces to produce a consistent cut; the new
        replica installs it and rejoins the broadcast group at
        ``checkpoint.instance + 1``.  Heartbeat anti-entropy pulls any
        instances decided since the checkpoint.  With
        ``config.stable_storage`` the rebuilt protocol node also recovers
        its acceptor promises, so rejoining cannot violate agreement.
        """
        from_peer = recovery_peer(
            [node.running for node in self.nodes], replica_id, from_peer)
        checkpoint = self.replicas[from_peer].take_checkpoint()
        self._build_stack(replica_id, checkpoint)
        if self.config.engine == "mp":
            # Starting the fresh engine installs the checkpoint state
            # stashed by install_checkpoint.
            self.replicas[replica_id].service.start()
        self._start_replica(replica_id)

    # --------------------------------------------------------------- helpers

    def services(self) -> List[Service]:
        """The replicas' service instances (for consistency checks)."""
        return [replica.service for replica in self.replicas]

    def total_executed(self) -> List[int]:
        return [replica.executed for replica in self.replicas]

    def wait_converged(self, expected: int, timeout: float = 10.0,
                       replicas: Optional[List[int]] = None) -> bool:
        """Poll until the given replicas (default: all) executed
        ``expected`` commands and their merge stages drained; False on
        timeout (callers assert details)."""
        targets = (replicas if replicas is not None
                   else range(self.config.n_replicas))
        deadline = time.monotonic() + timeout
        while True:
            if all(self.replicas[r].executed >= expected
                   and (self.merges[r] is None
                        or self.merges[r].merge_idle())
                   for r in targets):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
