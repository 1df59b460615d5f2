"""The live replica stack: its stages and the one place each is built.

Both live runtimes — the in-process :class:`~repro.smr.cluster
.ThreadedCluster` and the TCP :class:`~repro.net.replica.ReplicaServer` —
assemble every replica from the same stages::

    G >= 1 ordering nodes  ->  [merge stage]  ->  execution stage
    (build_nodes /             (MergeStage,       (build_execution:
     build_protocol)            iff G > 1)         replica over a threaded
                                                   or mp service)

``n_groups`` is a parameter of that pipeline, not a second class
hierarchy: at one group the ordering node delivers straight into
``ParallelReplica.on_deliver`` — no merger, no envelope, no extra lock; at
``G > 1`` the nodes feed a :class:`~repro.groups.stage.MergeStage` that
releases the streams in one deterministic order (docs/partitioning.md).
Client batches enter through :func:`route` either way.

A Multi-Paxos node that delivers straight into the replica also gets the
replica's checkpoint hooks, and with them log compaction: it keeps the
last :data:`~repro.broadcast.paxos.LOG_RETAIN` delivered instances and
serves a peer further behind a snapshot (docs/ordering.md).  Behind a
merge stage a checkpoint would have to name one frontier per group, and
the sequencer keeps no log; both run as before.

``cfg`` is the runtime's :class:`~repro.smr.deployment.DeploymentSpec`;
the builders read nothing a runtime's subclass adds.

Lifecycle
---------
:class:`ReplicaStack` is one replica built from these stages, and the one
place its life is written down; a runtime brings only its endpoint.

*Start*: the mp engine forks its shard processes first, so they inherit
no thread or socket of the stack (starting it also installs a stashed
checkpoint); then the endpoint opens, since a node's first step sends;
then the workers, since a node's first delivery schedules for them; then
the ordering nodes.

*Stop*: every node is told to stop, then joined (at most
:data:`STOP_TIMEOUT`), since a step in flight still sends and must find the
endpoint open; then the endpoint closes; then the workers drain what is
scheduled (at most :data:`STOP_TIMEOUT`); the engine stops last, since the
draining workers execute on it.  An in-process *crash* is this stop: the
peers cannot tell them apart, as a closed endpoint drops the replica's
traffic (in memory) or closes its sockets (TCP).

*Checkpoint restart* (:func:`restart_replica`): a live peer quiesces for a
consistent cut; the crashed replica is rebuilt over it, joins its group
at the cut's instance + 1, and starts.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.broadcast import paxos
from repro.broadcast.node import ThreadedNode
from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.groups.messages import Rendezvous, rendezvous_xid
from repro.obs.registry import MetricsRegistry
from repro.smr.checkpoint import Checkpoint
from repro.smr.deployment import DeploymentSpec
from repro.smr.replica import ParallelReplica, ResponseCallback
from repro.smr.service import Service

if TYPE_CHECKING:
    from repro.groups.partition import PartitionMap
    from repro.groups.stage import MergeStage

__all__ = ["DEFAULT_DEDUP_WINDOW", "STOP_TIMEOUT", "ReplicaStack",
           "build_execution", "build_nodes", "build_protocol",
           "restart_replica", "route"]

#: Per-client dedup window of a replica behind a merge stage: one client's
#: requests may surface out of request-id order across groups (see
#: repro.smr.replica).  Must exceed any client's in-flight request count
#: by a wide margin (client batches are tens of commands).
DEFAULT_DEDUP_WINDOW = 1024

#: Seconds a stopping stack waits for each ordering node's step in flight,
#: and then for its workers to drain.
STOP_TIMEOUT = 2.0


def build_protocol(cfg: DeploymentSpec, replica_id: int, *,
                   first_instance: int = 0,
                   stable_store: Any = None,
                   registry: Optional[MetricsRegistry] = None,
                   optimistic: bool = False, compact: bool = False) -> Any:
    """One ordering-protocol state machine for ``replica_id``.

    Every group of a replica is built alike, so group leaderships
    co-locate on one replica in the steady state — one leader machine, as
    in a single-group deployment — while still failing over independently.
    ``compact`` bounds the Paxos log; the caller must then serve snapshots
    (see :func:`build_nodes`).
    """
    if cfg.protocol == "sequencer":
        from repro.broadcast.sequencer import SequencerBroadcast

        return SequencerBroadcast(replica_id, cfg.n_replicas,
                                  optimistic=optimistic)
    linger = cfg.propose_linger
    if linger is None:
        linger = cfg.heartbeat_interval / 10
    return paxos.MultiPaxos(
        replica_id,
        cfg.n_replicas,
        batch_size=cfg.batch_size,
        heartbeat_interval=cfg.heartbeat_interval,
        # Stagger leader timeouts so campaigns rarely collide.
        leader_timeout=cfg.leader_timeout * (1 + 0.35 * replica_id),
        first_instance=first_instance,
        stable_store=stable_store,
        propose_linger=linger,
        cumulative_acks=cfg.cumulative_acks,
        lease_duration=cfg.lease_duration,
        lease_reads=cfg.lease_reads,
        registry=registry,
        log_retain=paxos.LOG_RETAIN if compact else None,
    )


def build_execution(cfg: DeploymentSpec, replica_id: int, *,
                    on_response: Optional[ResponseCallback],
                    registry: Optional[MetricsRegistry] = None,
                    service_factory: Optional[Callable[[], Service]] = None,
                    ) -> ParallelReplica:
    """The execution stage: a replica over a threaded or mp service.

    With ``cfg.engine == "mp"`` the replica's ``service`` is an
    :class:`~repro.par.MpService`, which :class:`ReplicaStack` starts
    before and stops after the replica (the Service interface has no
    lifecycle).
    ``service_factory`` (in-process runtime only) replaces the registered
    ``cfg.service`` under the threaded engine.
    """
    if cfg.engine == "mp":
        # Lazy: only mp deployments pull in the multiprocessing plumbing.
        from repro.par import MpService

        service: Service = MpService(cfg.service, cfg.service_kwargs,
                                     workers=cfg.mp_workers,
                                     registry=registry)
    elif service_factory is not None:
        service = service_factory()
    else:
        from repro.apps import build_service

        service = build_service(cfg.service, **cfg.service_kwargs)
    replica_cls = ParallelReplica
    if cfg.speculative:
        # Lazy: repro.spec imports repro.smr right back.
        from repro.spec.replica import SpeculativeReplica

        replica_cls = SpeculativeReplica
    return replica_cls(
        replica_id,
        service,
        cos_algorithm=cfg.cos_algorithm,
        workers=cfg.workers,
        on_response=on_response,
        registry=registry,
        dedup_window=DEFAULT_DEDUP_WINDOW if cfg.n_groups > 1 else 0,
    )


def build_nodes(cfg: DeploymentSpec, replica_id: int, replica: ParallelReplica,
                transports: Sequence[Any], *, name: str = "node",
                first_instance: int = 0,
                stable_stores: Optional[Sequence[Any]] = None,
                registry: Optional[MetricsRegistry] = None,
                on_install: Optional[Callable[[], None]] = None,
                ) -> Tuple[List[ThreadedNode], Optional[MergeStage]]:
    """One ordering node per group (``transports[g]`` carries group ``g``),
    all feeding ``replica`` — directly at one group, through a
    :class:`MergeStage` otherwise.  Returns ``(nodes, merge stage)``.

    ``on_install`` is called on the node's thread after ``replica``
    installed a peer's snapshot (single-group Paxos only)."""
    merge = None
    if cfg.n_groups > 1:
        from repro.groups.stage import MergeStage

        merge = MergeStage(replica, cfg.n_groups,
                           record_history=cfg.record_history,
                           registry=registry)
    on_optimistic = getattr(replica, "on_optimistic", None)
    take_snapshot = install_snapshot = None
    if merge is None and cfg.protocol == "paxos":
        take_snapshot = replica.take_checkpoint

        def install_snapshot(cut: Checkpoint) -> None:
            replica.install_checkpoint(cut)
            if on_install is not None:
                on_install()

    nodes = []
    for group, transport in enumerate(transports):
        if merge is None:
            on_deliver, on_read = replica.on_deliver, replica.on_local_read
            node_name = f"{name}-{replica_id}"
        else:
            on_deliver, on_read = merge.sinks(group)
            node_name = f"{name}-{replica_id}-group{group}"
        protocol = build_protocol(
            cfg, replica_id, first_instance=first_instance,
            stable_store=stable_stores[group] if stable_stores else None,
            registry=registry, optimistic=on_optimistic is not None,
            compact=take_snapshot is not None)
        nodes.append(ThreadedNode(
            replica_id, protocol, transport, on_deliver, name=node_name,
            on_read=on_read, on_optimistic=on_optimistic,
            take_snapshot=take_snapshot, install_snapshot=install_snapshot))
    return nodes, merge


class ReplicaStack:
    """One live replica: its execution stage (and mp engine, if any), its
    ``G`` ordering nodes and the merge stage and partition map between
    them, with the one lifecycle (module docstring).

    ``endpoint`` is the replica's end of the network, which ``start()``
    opens and ``close()`` shuts; ``channels[g]`` carries group ``g`` over
    it.  A peer's ``checkpoint`` makes this a restarted replica
    (single-group only); the rest goes to the builders above.
    """

    def __init__(self, cfg: DeploymentSpec, replica_id: int, endpoint: Any,
                 channels: Sequence[Any], *,
                 on_response: Optional[ResponseCallback],
                 name: str = "node",
                 checkpoint: Optional[Checkpoint] = None,
                 registry: Optional[MetricsRegistry] = None,
                 stable_stores: Optional[Sequence[Any]] = None,
                 service_factory: Optional[Callable[[], Service]] = None,
                 on_install: Optional[Callable[[], None]] = None):
        self.replica_id = replica_id
        self.endpoint = endpoint
        self.replica = build_execution(
            cfg, replica_id, on_response=on_response, registry=registry,
            service_factory=service_factory)
        self.service: Service = self.replica.service
        #: The MpService under ``engine="mp"`` (it needs lifecycle calls
        #: the Service interface doesn't have).
        self._engine = self.service if cfg.engine == "mp" else None
        first_instance = 0
        if checkpoint is not None:
            if cfg.n_groups > 1:
                raise ConfigurationError(
                    "checkpoint restart is single-group only: a checkpoint "
                    "names one instance frontier, not one per group")
            self.replica.install_checkpoint(checkpoint)
            first_instance = checkpoint.instance + 1
        #: nodes[group]; ``merge`` is None at one group.
        self.nodes, self.merge = build_nodes(
            cfg, replica_id, self.replica, channels, name=name,
            first_instance=first_instance, stable_stores=stable_stores,
            registry=registry, on_install=on_install)
        #: Routes client batches to groups; None at one group.
        self.partition_map = self.merge.partition_map if self.merge else None
        self._started = False

    @staticmethod
    def start_all(stacks: Sequence["ReplicaStack"]) -> None:
        """Start the stacks of one process: every engine forks before any
        stack opens its endpoint or starts a thread."""
        for stack in stacks:
            if stack._started:
                raise ShutdownError(
                    f"replica {stack.replica_id} already started")
            stack._started = True
            if stack._engine is not None:
                stack._engine.start()
        for stack in stacks:
            stack.endpoint.start()
            stack.replica.start()
            for node in stack.nodes:
                node.start()

    def start(self) -> "ReplicaStack":
        self.start_all([self])
        return self

    def stop(self) -> None:
        """Teardown, and crash-stop too; idempotent."""
        for node in self.nodes:
            node.stop()
        for node in self.nodes:
            if node.running:
                node.join(STOP_TIMEOUT)
        self.endpoint.close()
        self.replica.stop(timeout=STOP_TIMEOUT)
        if self._engine is not None:
            self._engine.stop()

    @property
    def running(self) -> bool:
        return self._started and all(node.running for node in self.nodes)


def restart_replica(members: Sequence[Any], replica_id: int,
                    from_peer: Optional[int],
                    rebuild: Callable[[Checkpoint], Any]) -> Any:
    """Checkpoint restart of the crashed ``members[replica_id]`` (a
    runtime's replicas, each with ``running``, ``replica`` and ``start()``):
    ``from_peer``, else the first live one, quiesces for a consistent cut,
    and ``rebuild(cut)`` is started and returned."""
    running = [member.running for member in members]
    if running[replica_id]:
        raise ConfigurationError(
            f"replica {replica_id} is still running; crash it first")
    if from_peer is None:
        if not any(running):
            raise ShutdownError("no live peer to recover from")
        from_peer = running.index(True)
    return rebuild(members[from_peer].replica.take_checkpoint()).start()


def _submit_batch(node: ThreadedNode, batch: Tuple[Command, ...],
                  lease_reads: bool) -> None:
    # Read-only-ness is derived from the commands, never taken on trust
    # from the submitter: a batch routed down the read path is executed at
    # the leaseholder alone, so a write in it would diverge the replicas.
    if lease_reads and batch and all(not c.writes for c in batch):
        # Served locally by a leaseholder; any other node falls back to
        # the ordered path transparently.
        node.submit_read(batch)
    else:
        node.submit(batch)


def route(partition_map: Optional[PartitionMap],
          payload: Tuple[Command, ...], nodes: Sequence[ThreadedNode],
          lease_reads: bool) -> None:
    """Submit one client batch to the ordering layer.

    ``nodes[g]`` is the contact node of group ``g``; ``partition_map`` is
    ``None`` at one group.  Otherwise the batch is split by owning group:
    each single-partition sub-batch goes to its group's node, and each
    cross-partition command becomes a :class:`Rendezvous` marker submitted
    to every involved group — it rides each group's normal ordering, no
    extra consensus round.
    """
    if partition_map is None:
        _submit_batch(nodes[0], payload, lease_reads)
        return
    singles: Dict[int, List[Command]] = {}
    markers: List[Rendezvous] = []
    for command in payload:
        groups = partition_map.groups_of(command)
        if len(groups) == 1:
            singles.setdefault(groups[0], []).append(command)
        else:
            markers.append(
                Rendezvous(rendezvous_xid(command), groups, command))
    for group, commands in singles.items():
        _submit_batch(nodes[group], tuple(commands), lease_reads)
    for marker in markers:
        for group in marker.groups:
            nodes[group].submit((marker,))
