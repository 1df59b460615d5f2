"""Wire-only messages for the TCP deployment.

The broadcast protocols never see these: the replica's transport layer
intercepts :class:`ClientRequest` before the protocol node's inbox (turning
it into a ``submit``), and :class:`ClientResponse` travels straight from a
replica to the issuing client's transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.core.command import Command

__all__ = ["ClientRequest", "ClientResponse", "GroupEnvelope"]


@dataclass(frozen=True)
class ClientRequest:
    """A client batch submitted to a contact replica over TCP.

    Attributes:
        payload: The stamped command batch (tuple of :class:`Command`).
        reply_to: The client's transport node id.
        reply_host / reply_port: Where the client listens for responses;
            the replica registers this endpoint as a dynamic peer.
        client_id: The submitting client's identifier (response routing).
        read_only: The client's claim that every command in the batch is
            a read.  Advisory only: replicas decide from ``Command.writes``
            whether a batch may be served locally under a leader lease
            (docs/ordering.md), so a wrong flag cannot diverge them.
    """

    payload: Tuple[Command, ...]
    reply_to: int
    reply_host: str
    reply_port: int
    client_id: str
    read_only: bool = False


@dataclass(frozen=True)
class ClientResponse:
    """One executed command's response, sent replica -> client."""

    command: Command
    response: Any
    replica_id: int


@dataclass(frozen=True)
class GroupEnvelope:
    """A consensus-group protocol message in a partitioned deployment.

    Replica processes of a grouped deployment (``NetConfig.n_groups > 1``)
    host one protocol node *per group* behind a single TCP endpoint; every
    protocol message travels wrapped in this envelope so the receiving
    process can demultiplex it to the right group's node
    (docs/partitioning.md).
    """

    group: int
    msg: Any
