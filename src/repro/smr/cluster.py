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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.broadcast import FaultPlan, ThreadedNode, ThreadedTransport
from repro.broadcast.storage import InMemoryStableStore
from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.smr.checkpoint import Checkpoint
from repro.smr.client import Client
from repro.smr.deployment import DeploymentSpec
from repro.smr.service import Service
from repro.smr.stack import ReplicaStack, restart_replica, route

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
        if self.service_factory is not None and self.engine != "threaded":
            raise ConfigurationError(
                "engine='mp' builds the service from its service name: shard "
                "worker processes rebuild it from (service, service_kwargs), "
                "a live service_factory instance cannot cross process "
                "boundaries")


class _Endpoint:
    """One replica's end of the cluster's shared in-memory transports: it
    opens by being readmitted to every group's transport and closes by
    being cut off from all of them, as a crash is."""

    def __init__(self, transports: List[ThreadedTransport], replica_id: int):
        self._transports = transports
        self._replica_id = replica_id

    def start(self) -> None:
        for transport in self._transports:
            transport.recover(self._replica_id)

    def close(self) -> None:
        for transport in self._transports:
            transport.crash(self._replica_id)


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
        #: stacks[replica]; a restart replaces its slot.
        self.stacks: List[ReplicaStack] = [
            self._build_stack(replica_id)
            for replica_id in range(config.n_replicas)]
        #: Routes client batches to groups; None at one group.
        self.partition_map = self.stacks[0].partition_map

    def _build_stack(self, replica_id: int,
                     checkpoint: Optional[Checkpoint] = None) -> ReplicaStack:
        config = self.config
        stores = None
        if config.stable_storage:
            stores = [
                InMemoryStableStore(
                    self._stores.setdefault((group, replica_id), {}))
                for group in range(config.n_groups)]
        return ReplicaStack(
            config, replica_id, _Endpoint(self.transports, replica_id),
            self.transports, on_response=self._route_response,
            checkpoint=checkpoint, stable_stores=stores,
            service_factory=config.service_factory)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "ThreadedCluster":
        ReplicaStack.start_all(self.stacks)
        return self

    def stop(self) -> None:
        for stack in self.stacks:
            stack.stop()
        # Every node is joined: nothing sends into the closed transports.
        for transport in self.transports:
            transport.close()

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

    def _live_node(self, nodes: Sequence[ThreadedNode],
                   contact: int) -> ThreadedNode:
        node = nodes[contact % len(nodes)]
        if not node.running:
            node = next((n for n in nodes if n.running), None)
            if node is None:
                raise ShutdownError("no replica is running")
        return node

    def _submit(self, payload: Tuple[Command, ...], contact: int) -> None:
        group_nodes = zip(*(stack.nodes for stack in self.stacks))
        route(self.partition_map, payload,
              [self._live_node(nodes, contact) for nodes in group_nodes],
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
        self.stacks[replica_id].stop()

    def restart_replica(self, replica_id: int,
                        from_peer: Optional[int] = None) -> None:
        """Rebuild a crashed replica from a live peer's checkpoint
        (:func:`repro.smr.stack.restart_replica`).

        Heartbeat anti-entropy pulls any instances decided since the
        checkpoint.  With ``config.stable_storage`` the rebuilt protocol
        node also recovers its acceptor promises, so rejoining cannot
        violate agreement.
        """
        self.stacks[replica_id] = restart_replica(
            self.stacks, replica_id, from_peer,
            lambda cut: self._build_stack(replica_id, cut))

    # --------------------------------------------------------------- helpers

    def services(self) -> List[Service]:
        """The replicas' service instances (for consistency checks)."""
        return [stack.service for stack in self.stacks]

    def total_executed(self) -> List[int]:
        return [stack.replica.executed for stack in self.stacks]

    def wait_converged(self, expected: int, timeout: float = 10.0,
                       replicas: Optional[List[int]] = None) -> bool:
        """Poll until the given replicas (default: all) executed
        ``expected`` commands and their merge stages drained; False on
        timeout (callers assert details)."""
        targets = (replicas if replicas is not None
                   else range(self.config.n_replicas))
        deadline = time.monotonic() + timeout
        while True:
            if all(self.stacks[r].replica.executed >= expected
                   and (self.stacks[r].merge is None
                        or self.stacks[r].merge.merge_idle())
                   for r in targets):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
