"""JSON-safe wire codec with length-prefixed framing.

Messages crossing the TCP transport are the broadcast protocol messages of
:mod:`repro.broadcast.messages`, :class:`~repro.core.command.Command`
batches, and the client envelope of :mod:`repro.net.messages`.  They are
dataclasses built from tuples, dicts with non-string keys (instance
numbers), and nested payloads — none of which plain JSON round-trips.  The
codec encodes them into a tagged JSON form:

- scalars (``None``/``bool``/``int``/``float``/``str``) pass through;
- lists stay JSON arrays (elements encoded recursively);
- tuples become ``{"!": "tuple", "v": [...]}`` — ballots and batch payloads
  must come back as tuples because the protocols compare and hash them;
- dicts become ``{"!": "dict", "v": [[k, v], ...]}`` to preserve non-string
  keys exactly;
- registered dataclasses become ``{"!": "<TypeName>", "v": {field: ...}}``.

No pickle and no arbitrary class resolution: decoding only instantiates
types from the explicit :data:`WIRE_TYPES` registry, so a malicious or
corrupt peer cannot make the decoder construct anything else.

A frame is ``4-byte big-endian length + JSON bytes``; frames carry
``(src, msg)`` pairs (see :func:`encode_frame`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from typing import Any, Dict, Tuple, Type

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

__all__ = [
    "CodecError",
    "WIRE_TYPES",
    "WIRE_NAMES",
    "MAX_FRAME",
    "encode",
    "decode",
    "dumps",
    "loads",
    "encode_frame",
    "decode_frame",
    "wire_codec",
]


class CodecError(ReproError):
    """A value cannot be encoded, or a frame cannot be decoded."""


#: Hard cap on one frame's body, guarding against a corrupt length prefix.
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

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

_TAG = "!"


def encode(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serializable structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            # json.dumps would happily emit bare ``NaN``/``Infinity`` tokens,
            # which RFC 8259 forbids and many peers (and the binary codec)
            # reject; fail at the source instead of on the wire.
            raise CodecError(f"cannot encode non-finite float: {obj!r}")
        return obj
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "v": [encode(item) for item in obj]}
    if isinstance(obj, dict):
        return {_TAG: "dict",
                "v": [[encode(k), encode(v)] for k, v in obj.items()]}
    name = type(obj).__name__
    if dataclasses.is_dataclass(obj) and WIRE_TYPES.get(name) is type(obj):
        fields = {
            f.name: encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {_TAG: name, "v": fields}
    raise CodecError(f"cannot encode {type(obj).__name__}: {obj!r}")


def decode(data: Any) -> Any:
    """Rebuild the value lowered by :func:`encode`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode(item) for item in data]
    if isinstance(data, dict):
        tag = data.get(_TAG)
        if tag == "tuple":
            return tuple(decode(item) for item in data["v"])
        if tag == "dict":
            return {decode(k): decode(v) for k, v in data["v"]}
        cls = WIRE_TYPES.get(tag)
        if cls is not None:
            fields = {key: decode(value) for key, value in data["v"].items()}
            try:
                return cls(**fields)
            except TypeError as error:
                raise CodecError(f"bad fields for {tag}: {error}") from error
        raise CodecError(f"unknown wire tag {tag!r}")
    raise CodecError(f"cannot decode {type(data).__name__}")


def dumps(obj: Any) -> bytes:
    return json.dumps(encode(obj), separators=(",", ":")).encode("utf-8")


def _reject_constant(token: str) -> Any:
    # Mirror of the encode-side finiteness check: a peer that does emit
    # bare NaN/Infinity tokens is rejected rather than smuggling a
    # non-finite float past both codecs' contracts.
    raise CodecError(f"non-finite JSON constant on the wire: {token}")


def loads(data: bytes) -> Any:
    try:
        return decode(json.loads(data.decode("utf-8"),
                                 parse_constant=_reject_constant))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"malformed frame body: {error}") from error


def encode_frame(src: int, msg: Any) -> bytes:
    """Pack one ``(src, msg)`` pair into a length-prefixed frame."""
    if isinstance(src, bool) or not isinstance(src, int):
        raise CodecError(f"frame src must be an int, got {src!r}")
    body = dumps((src, msg))
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def decode_frame(body: bytes) -> Tuple[int, Any]:
    """Unpack one frame body (length prefix already consumed)."""
    pair = loads(body)
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise CodecError(f"frame body is not an (src, msg) pair: {pair!r}")
    src, msg = pair
    # bool passes ``isinstance(src, int)``; a ``True`` src would then be
    # used as a node id (dict keys, peer routing) and silently alias node 1.
    if isinstance(src, bool) or not isinstance(src, int):
        raise CodecError(f"frame src is not an int: {src!r}")
    return src, msg


# ------------------------------------------------------------ wire codecs


class _JsonWire:
    """The tagged-JSON framing as a selectable wire codec.

    Frame header: the bare 4-byte big-endian length prefix (no magic — this
    is the v0 compatibility framing).  See :func:`wire_codec`.
    """

    name = "json"
    header_size = _LEN.size
    encode_frame = staticmethod(encode_frame)
    decode_frame = staticmethod(decode_frame)
    dumps = staticmethod(dumps)
    loads = staticmethod(loads)

    @staticmethod
    def body_length(header: bytes) -> int:
        """Parse a header; return the body length it announces."""
        length = _LEN.unpack(header)[0]
        if length > MAX_FRAME:
            raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME}")
        return length


#: Selectable wire codecs (``NetConfig.wire`` / ``TcpTransport(wire=)``).
WIRE_NAMES = ("json", "binary")

JSON_WIRE = _JsonWire()


def wire_codec(name: str):
    """Resolve a wire codec by name.

    A codec object exposes ``name``, ``header_size``, ``body_length``,
    ``encode_frame``/``decode_frame`` and ``dumps``/``loads``.  The binary
    codec lives in :mod:`repro.net.bincodec` (imported lazily: this module
    must stay importable from it).
    """
    if name == "json":
        return JSON_WIRE
    if name == "binary":
        from repro.net import bincodec
        return bincodec
    raise CodecError(
        f"unknown wire codec {name!r}; choose from {WIRE_NAMES}")
