"""Payloads of the partitioned ordering layer.

A cross-partition command is not broadcast once but ordered *in every
involved group* as a :class:`Rendezvous` hold marker.  The marker carries
the command itself plus the set of involved groups, so any replica can run
the release rule locally from its groups' ordered streams alone — the
merge needs no extra messages and no extra consensus round
(docs/partitioning.md).

``Rendezvous`` crosses the TCP wire inside ordinary protocol batches and
is therefore registered in :data:`repro.net.codec.WIRE_TYPES`, which gives
it a tag byte of the binary codec (docs/wire.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.command import Command

__all__ = ["Rendezvous", "rendezvous_xid"]


def rendezvous_xid(command: Command) -> str:
    """The rendezvous exchange id stamped on a command's hold markers.

    All markers of one logical submission must carry the same xid — it is
    what lets a replica pair the copies ordered in different groups.  For
    client commands ``client_id#request_id`` is stable across
    retransmissions (a retransmitted cross command pairs with leftover
    markers of the original attempt instead of deadlocking behind them);
    anonymous commands fall back to the process-local uid, which is
    consistent because only the submitting router ever stamps the marker.
    """
    if command.client_id is not None:
        return f"{command.client_id}#{command.request_id}"
    return f"anon#{command.uid}"


@dataclass(frozen=True)
class Rendezvous:
    """Hold marker for one cross-partition command.

    Attributes:
        xid: Exchange id pairing this group's copy with the other groups'.
        groups: Every group the command must rendezvous in (sorted).
        command: The command to execute once all markers delivered.
    """

    xid: str
    groups: Tuple[int, ...]
    command: Optional[Command] = None

    def __repr__(self) -> str:  # compact, log-friendly
        return f"Rendezvous({self.xid}, groups={self.groups})"
