"""One replica bound to a TCP endpoint.

:class:`ReplicaServer` assembles exactly the stages
:class:`~repro.smr.cluster.ThreadedCluster` wires per replica — ordering
node(s), an optional merge stage, an execution stage, all built by
:mod:`repro.smr.stack` — but over a :class:`~repro.net.transport
.TcpTransport`.  The protocol and replica code run unchanged; only the
driver differs.

With ``config.n_groups > 1`` the process hosts one protocol node per
consensus group behind its single endpoint: every protocol message
travels in a :class:`~repro.net.messages.GroupEnvelope`, which the
transport interceptor demultiplexes into per-group
:class:`~repro.net.transport.GroupChannel` inboxes (docs/partitioning.md).
A single-group replica constructs none of that.

Client traffic: the transport interceptor turns an incoming
:class:`~repro.net.messages.ClientRequest` into a partition-aware
:func:`~repro.smr.stack.route` and records where that client listens; the
replica's response callback sends a
:class:`~repro.net.messages.ClientResponse` back to that endpoint.  Every
replica answers every command it executes (first response wins at the
client), matching the paper's crash-model deployment.

Run one as a process with ``python -m repro net replica`` (see
:mod:`repro.net.cli`), or in-process via :class:`repro.net.cluster.TcpCluster`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.broadcast import ThreadedNode
from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.net.config import NetConfig
from repro.net.messages import ClientRequest, ClientResponse, GroupEnvelope
from repro.net.transport import GroupChannel, TcpTransport
from repro.obs import MetricsHTTPServer, MetricsRegistry
from repro.smr.checkpoint import Checkpoint
from repro.smr.service import Service
from repro.smr.stack import (build_execution, build_nodes,
                             install_checkpoint, route)

__all__ = ["ReplicaServer"]


class ReplicaServer:
    """Protocol node(s) + execution stage listening on a TCP endpoint."""

    def __init__(self, replica_id: int, config: NetConfig,
                 checkpoint: Optional[Checkpoint] = None):
        config.validate()
        if not 0 <= replica_id < config.n_replicas:
            raise ConfigurationError(
                f"replica_id {replica_id} out of range for "
                f"{config.n_replicas} replicas")
        grouped = config.n_groups > 1
        self.replica_id = replica_id
        self.config = config
        # One registry per replica process records the whole stack — COS,
        # replica engine, and transport (docs/observability.md).
        self.registry = MetricsRegistry(trace=config.trace)
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self.replica = build_execution(
            config, replica_id, on_response=self._respond,
            registry=self.registry)
        self.service: Service = self.replica.service
        #: The MpService under ``engine="mp"`` (it needs lifecycle calls
        #: the Service interface doesn't have).
        self._engine = self.service if config.engine == "mp" else None
        first_instance = install_checkpoint(config, self.replica, checkpoint)
        self.transport = TcpTransport(
            replica_id,
            config.address_map(),
            interceptor=(self._intercept_grouped if grouped
                         else self._intercept),
            seed=replica_id,
            registry=self.registry,
            wire=config.wire,
        )
        #: One envelope adapter per group; none at one group, where the
        #: node sits on the transport itself.
        self._channels: List[GroupChannel] = []
        if grouped:
            self._channels = [GroupChannel(self.transport, group)
                              for group in range(config.n_groups)]
        #: nodes[group]; ``merge`` is None at one group.
        self.nodes, self.merge = build_nodes(
            config, replica_id, self.replica,
            self._channels or [self.transport], name="net-node",
            first_instance=first_instance, registry=self.registry,
            on_install=self._reanswer)
        #: Routes client batches to groups; None at one group.
        self.partition_map = self.merge.partition_map if grouped else None
        # client_id -> transport node id of the client's response endpoint.
        self._reply_to: Dict[str, int] = {}
        self._reply_lock = threading.Lock()
        self._started = False

    @property
    def node(self) -> ThreadedNode:
        """Group 0's ordering node — *the* node at one group."""
        return self.nodes[0]

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "ReplicaServer":
        if self._started:
            raise ShutdownError("replica server already started")
        self._started = True
        # The engine forks first: shard processes should not inherit live
        # sockets or transport threads.  Starting it also installs any
        # checkpoint stashed by install_checkpoint.
        if self._engine is not None:
            self._engine.start()
        self.transport.start()
        if self.config.metrics_addresses:
            host, port = self.config.metrics_addresses[self.replica_id]
            self._metrics_server = MetricsHTTPServer(
                self.registry, host=host, port=port).start()
        self.replica.start()
        for node in self.nodes:
            node.start()
        return self

    def stop(self) -> None:
        """Graceful teardown: event loops, sockets, then workers."""
        for node in self.nodes:
            node.stop()
        for node in self.nodes:
            # A step still in flight sends: let it finish while the
            # transport is open.
            if node.running:
                node.join(timeout=2.0)
        self.transport.close()
        self.replica.stop(timeout=2.0)
        if self._engine is not None:
            self._engine.stop()
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None

    def __enter__(self) -> "ReplicaServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and all(node.running for node in self.nodes)

    @property
    def metrics_address(self) -> Optional[Any]:
        """(host, port) actually bound by the /metrics server, if any."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.address

    # ------------------------------------------------------------ client path

    def _intercept(self, src: int, msg: Any) -> bool:
        """Transport hook: consume client envelopes before the inbox."""
        if not isinstance(msg, ClientRequest):
            return False
        self.transport.add_peer(msg.reply_to, msg.reply_host, msg.reply_port)
        with self._reply_lock:
            self._reply_to[msg.client_id] = msg.reply_to
        try:
            # ``msg.read_only`` is deliberately not consulted: route
            # derives read-only-ness from the commands themselves.
            route(self.partition_map, msg.payload, self.nodes,
                  self.config.lease_reads)
        except ShutdownError:
            pass  # stopping; the client will retry elsewhere
        return True

    def _intercept_grouped(self, src: int, msg: Any) -> bool:
        """Interceptor when ``n_groups > 1``: demux group envelopes first."""
        if isinstance(msg, GroupEnvelope):
            if 0 <= msg.group < len(self._channels):
                self._channels[msg.group].deliver(src, msg.msg)
            return True  # out-of-range group: corrupt peer, drop
        return self._intercept(src, msg)

    def _reanswer(self) -> None:
        """A peer's snapshot was installed: answer from its dedup table.

        The snapshot jumped over commands this replica would have executed
        and answered.  No other replica can answer for it — only the
        contact holds a client's reply route — so every client with a
        route here is sent its latest cached response again (a client that
        already has it drops the duplicate).
        """
        with self._reply_lock:
            clients = list(self._reply_to)
        for client_id in clients:
            cached = self.replica.cached_response(client_id)
            if cached is not None:
                request_id, response = cached
                # Clients match a response by ids; the command is gone.
                self._respond(
                    Command("", client_id=client_id, request_id=request_id),
                    response, self.replica_id)

    def _respond(self, command: Command, response: Any,
                 replica_id: int) -> None:
        if command.client_id is None:
            return
        with self._reply_lock:
            reply_to = self._reply_to.get(command.client_id)
        if reply_to is None:
            # This replica never saw the client directly (it submitted via
            # another contact); it cannot route the answer.  The contact
            # replica — which has the mapping — answers instead.
            return
        try:
            self.transport.send(
                self.replica_id, reply_to,
                ClientResponse(command, response, self.replica_id))
        except ShutdownError:
            pass
