"""Partitioned SMR: one consensus group per state partition.

Everything below one Multi-Paxos group scales a *replica* (schedulers,
worker pools, shard processes); aggregate ordering throughput is still
capped by that one group's pipeline.  This package shards the ordering
layer itself, following the P-SMR/S-SMR line the source paper builds on
(Marandi et al., *Rethinking State-Machine Replication for Parallelism*;
see docs/partitioning.md):

- a :class:`~repro.groups.partition.PartitionMap` routes commands to
  groups by conflict-class footprint (the partitioned analogue of
  ``repro.par``'s :func:`~repro.core.command.stable_hash` shard routing);
- single-partition commands are ordered by their group alone — each group
  is a full Multi-Paxos instance with its own leases, cumulative acks and
  propose linger;
- cross-partition commands rendezvous: a hold marker is ordered in every
  involved group, and each replica's
  :class:`~repro.groups.merge.GroupMerger` releases the command only when
  all involved groups delivered their marker, at a merged position all
  replicas agree on (lowest involved group id, that group's sequence) —
  no extra consensus round;
- groups are a parameter of the one live replica stack, not a deployment
  of their own: ``ClusterConfig(n_groups=G)`` / ``NetConfig(n_groups=G)``
  make :mod:`repro.smr.stack` build G ordering nodes per replica in front
  of a :class:`~repro.groups.stage.MergeStage` (``python -m repro net
  supervise --groups G`` over TCP).
"""

from repro._lazy import exports

#: Resolved on first use (PEP 562): a single-group replica loads none of it.
__getattr__, __all__ = exports(__name__, {
    ".merge": ("Emission", "GroupMerger", "SkipHoldMerger"),
    ".messages": ("Rendezvous", "rendezvous_xid"),
    ".partition": ("PartitionMap",),
    ".stage": ("MergeStage",),
})
