"""Checkpointing and state transfer for replica recovery.

A checkpoint is a consistent cut of a replica: the service snapshot, the
dedup/response cache, and the atomic-broadcast instance up to which the
snapshot reflects every delivered command.  Because workers execute out of
delivery order, a consistent cut requires *quiescence*: delivery is briefly
blocked while the in-flight commands drain, then the state is copied.

A recovering replica installs a peer's checkpoint and rejoins the broadcast
group with ``first_instance = checkpoint.instance + 1``; the heartbeat
anti-entropy of :class:`~repro.broadcast.paxos.MultiPaxos` then pulls any
instances decided between the checkpoint and the present.

The same cut travels in-band: a Paxos node whose peer asks for instances
it has compacted away takes a checkpoint and ships it as a
:class:`~repro.broadcast.messages.Snapshot`, and the receiving replica
installs it *while running* (:meth:`ParallelReplica.install_checkpoint`
quiesces first).  :mod:`repro.smr.stack` wires the two ends together.
"""

from __future__ import annotations

from repro.broadcast.messages import Snapshot
from repro.errors import ReproError

__all__ = ["Checkpoint", "CheckpointError"]


class CheckpointError(ReproError):
    """Quiescence could not be reached or a checkpoint is unusable."""


#: A consistent replica cut, ``Checkpoint(instance, state, dedup)``.  It is
#: the very value a Paxos node ships to a peer under its log floor, so it
#: is that message type: no conversion on the way out or in.
Checkpoint = Snapshot
