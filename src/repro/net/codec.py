"""The wire vocabulary: what may cross a TCP connection, and its codec.

Messages crossing the TCP transport are the broadcast protocol messages of
:mod:`repro.broadcast.messages`, :class:`~repro.core.command.Command`
batches, and the client envelope of :mod:`repro.net.messages`.  They are
dataclasses built from tuples, dicts with non-string keys (instance
numbers), and nested payloads.  :data:`WIRE_TYPES` lists every dataclass
that may cross; decoding instantiates only these — no pickle and no
arbitrary class resolution, so a malicious or corrupt peer cannot make the
decoder construct anything else.

The codec that carries them is :mod:`repro.net.bincodec` (frame layout,
tag table and versioning in docs/wire.md); :func:`wire_codec` resolves it
by name.
"""

from __future__ import annotations

from typing import Any, Dict, Type

from repro.broadcast.messages import (
    Accept,
    Accepted,
    CatchupReply,
    CatchupRequest,
    Decide,
    Forward,
    Heartbeat,
    HeartbeatAck,
    Nack,
    NewEpoch,
    OptimisticAnnounce,
    Prepare,
    Promise,
    SequencerStamp,
    Snapshot,
)
from repro.core.command import Command
from repro.errors import ReproError
from repro.groups.messages import Rendezvous
from repro.net.messages import ClientRequest, ClientResponse, GroupEnvelope

__all__ = ["CodecError", "WIRE_TYPES", "WIRE_NAMES", "MAX_FRAME",
           "wire_codec"]


class CodecError(ReproError):
    """A value cannot be encoded, or a frame cannot be decoded."""


#: Hard cap on one frame's body, guarding against a corrupt length prefix.
MAX_FRAME = 16 * 1024 * 1024

#: The complete wire surface.  Decoding instantiates only these.
WIRE_TYPES: Dict[str, Type[Any]] = {
    cls.__name__: cls
    for cls in (
        Command,
        Prepare,
        Promise,
        Accept,
        Accepted,
        Decide,
        Nack,
        CatchupRequest,
        CatchupReply,
        Snapshot,
        Forward,
        Heartbeat,
        HeartbeatAck,
        SequencerStamp,
        OptimisticAnnounce,
        NewEpoch,
        ClientRequest,
        ClientResponse,
        GroupEnvelope,
        Rendezvous,
    )
}

#: The wire codecs ``NetConfig.wire`` / ``TcpTransport(wire=)`` accept.
WIRE_NAMES = ("binary",)


def wire_codec(name: str):
    """Resolve a wire codec by name.

    A codec object exposes ``name``, ``header_size``, ``body_length``,
    ``encode_frame``/``decode_frame`` and ``dumps``/``loads``.  The binary
    codec lives in :mod:`repro.net.bincodec` (imported lazily: this module
    must stay importable from it).
    """
    if name == "binary":
        from repro.net import bincodec
        return bincodec
    raise CodecError(
        f"unknown wire codec {name!r}; choose from {WIRE_NAMES}")
