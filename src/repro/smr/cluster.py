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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broadcast import FaultPlan, ThreadedNode, ThreadedTransport
from repro.broadcast.storage import InMemoryStableStore
from repro.core.command import Command
from repro.core.cos import DEFAULT_MAX_SIZE
from repro.errors import ConfigurationError, ShutdownError
from repro.groups.stage import MergeStage
from repro.smr.client import Client
from repro.smr.replica import ParallelReplica
from repro.smr.service import Service
from repro.smr.stack import build_execution, build_nodes, route

__all__ = ["ClusterConfig", "ThreadedCluster"]

ServiceFactory = Callable[[], Service]


@dataclass
class ClusterConfig:
    """Parameters of a threaded cluster deployment."""

    service_factory: Optional[ServiceFactory] = None
    n_replicas: int = 3
    #: Consensus groups (state partitions) per replica.  1 is the classic
    #: single-order deployment; > 1 orders each partition in its own group
    #: and merges the streams per replica (docs/partitioning.md).
    n_groups: int = 1
    #: Record merged positions + per-class release order on every replica
    #: (differential suites; grows with the run).  Only with n_groups > 1.
    record_history: bool = False
    protocol: str = "paxos"            # "paxos" | "sequencer"
    cos_algorithm: str = "lock-free"   # any of COS_ALGORITHMS, or "sequential"
    workers: int = 4
    #: Execution engine per replica: "threaded" (worker threads call the
    #: service directly) or "mp" (repro.par shard worker processes).
    engine: str = "threaded"
    #: Shard worker processes per replica when ``engine == "mp"``.
    mp_workers: int = 2
    #: Registered service name (repro.apps.SERVICES) + factory kwargs.
    #: Required for the mp engine — worker processes rebuild the service
    #: from this spec, live instances don't cross process boundaries.
    #: For the threaded engine it is an alternative to ``service_factory``.
    service: Optional[str] = None
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    max_graph_size: int = DEFAULT_MAX_SIZE
    batch_size: int = 64
    heartbeat_interval: float = 0.05
    leader_timeout: float = 0.25
    #: Nagle-style proposer linger (paxos only).  ``None`` picks a tenth of
    #: the heartbeat interval; 0 proposes immediately.
    propose_linger: Optional[float] = None
    #: One cumulative ack per batch window instead of Decide broadcasts.
    cumulative_acks: bool = True
    #: Leader-lease window (paxos only).  ``None`` picks 0.8x the leader
    #: timeout; 0 disables leases (and with them local lease reads).
    lease_duration: Optional[float] = None
    lease_margin: Optional[float] = None
    #: Serve all-read batches at the leaseholder without a consensus round.
    lease_reads: bool = True
    client_timeout: float = 2.0
    #: Optimistic (speculative) execution over the sequencer fast path:
    #: replicas execute on optimistic delivery and withhold responses
    #: until the conservative order confirms (repro.spec,
    #: docs/speculation.md).  Requires ``protocol="sequencer"`` and the
    #: threaded engine.
    speculative: bool = False
    #: Persist acceptor state per node so crashed replicas can rejoin
    #: safely (see repro.broadcast.storage).
    stable_storage: bool = False
    fault_plan: FaultPlan = field(default_factory=lambda: FaultPlan(
        min_delay=0.0, max_delay=0.0))
    #: Per-group override: ``fault_plans[g]`` shapes group ``g``'s ordering
    #: traffic (shorter tuples are padded with their last entry); empty
    #: means ``fault_plan`` everywhere.
    fault_plans: Tuple[FaultPlan, ...] = ()

    def plan_for(self, group: int) -> FaultPlan:
        if not self.fault_plans:
            return self.fault_plan
        return self.fault_plans[min(group, len(self.fault_plans) - 1)]

    def validate(self) -> None:
        if self.protocol not in ("paxos", "sequencer"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "paxos" and self.n_replicas % 2 == 0:
            raise ConfigurationError(
                f"paxos needs an odd replica count, got {self.n_replicas}"
            )
        if self.n_replicas < 1:
            raise ConfigurationError("need at least one replica")
        if self.n_groups < 1:
            raise ConfigurationError(
                f"n_groups must be >= 1, got {self.n_groups}")
        if self.engine not in ("threaded", "mp"):
            raise ConfigurationError(f"unknown engine {self.engine!r}")
        if self.engine == "mp":
            if self.service is None:
                raise ConfigurationError(
                    "engine='mp' requires a service name (service=...): "
                    "shard worker processes rebuild the service from its "
                    "spec, a live service_factory instance cannot cross "
                    "process boundaries")
            if self.mp_workers < 1:
                raise ConfigurationError(
                    f"mp_workers must be >= 1, got {self.mp_workers}")
        if self.service_factory is None and self.service is None:
            raise ConfigurationError(
                "need a service_factory or a service name")
        if self.speculative:
            if self.protocol != "sequencer":
                raise ConfigurationError(
                    "speculative execution rides the sequencer's optimistic "
                    "delivery; use protocol='sequencer'")
            if self.engine != "threaded":
                raise ConfigurationError(
                    "speculative execution requires the threaded engine "
                    "(undo capture is not plumbed through shard processes)")
            if self.n_groups > 1:
                raise ConfigurationError(
                    "speculative execution is single-group only (the merge "
                    "stage has no optimistic stream)")


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
            service_factory=config.service_factory,
            service_kwargs=config.service_kwargs,
            speculative=config.speculative)
        stores = None
        if config.stable_storage:
            stores = [
                InMemoryStableStore(
                    self._stores.setdefault((group, replica_id), {}))
                for group in range(config.n_groups)]
        first_instance = 0
        if checkpoint is not None:
            replica.install_checkpoint(checkpoint)
            first_instance = checkpoint.instance + 1
        nodes, self.merges[replica_id] = build_nodes(
            config, replica_id, replica, self.transports,
            first_instance=first_instance, stable_stores=stores,
            record_history=config.record_history)
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
        if self.config.n_groups > 1:
            raise ConfigurationError(
                "restart_replica is single-group only: a checkpoint names "
                "one instance frontier, not one per group")
        if self.nodes[replica_id].running:
            raise ConfigurationError(
                f"replica {replica_id} is still running; crash it first")
        if from_peer is None:
            candidates = [
                index for index, node in enumerate(self.nodes)
                if index != replica_id and node.running
            ]
            if not candidates:
                raise ShutdownError("no live peer to recover from")
            from_peer = candidates[0]
        checkpoint = self.replicas[from_peer].take_checkpoint()
        self.transports[0].reset_inbox(replica_id)
        self.transports[0].recover(replica_id)
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
