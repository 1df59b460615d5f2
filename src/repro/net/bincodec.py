"""Compact binary wire codec (``wire="binary"``).

The tagged-JSON codec (:mod:`repro.net.codec`) is the compatibility
baseline: self-describing, debuggable with ``jq``, but it traverses every
value twice (``encode`` builds a JSON-safe tree, ``json.dumps`` walks it
again), wraps every tuple and dataclass in a tagging dict, and cannot carry
``bytes`` at all.  This module is the hot-path replacement — one recursive
pass straight into a ``bytearray``:

========  ===========================================================
tag byte  payload
========  ===========================================================
``0x00``  ``None``
``0x01``  ``True``
``0x02``  ``False``
``0x03``  int — zigzag LEB128 varint (arbitrary precision)
``0x04``  float — 8-byte IEEE-754 big-endian double (finite only)
``0x05``  str — varint byte length + UTF-8
``0x06``  bytes — varint length + raw bytes (JSON cannot carry these)
``0x07``  list — varint count + encoded items
``0x08``  tuple — varint count + encoded items
``0x09``  dict — varint count + encoded key/value pairs, in order
``0x20``+ one registered wire dataclass (see below)
========  ===========================================================

The types of :data:`repro.net.codec.WIRE_TYPES` get one tag byte each,
``0x20 + i`` with ``i`` the type's position in the *sorted* registry names
— a deterministic assignment every process derives identically.  A
dataclass body is its field values, encoded in dataclass field order; no
field names travel on the wire.  Decoding instantiates only registry types,
preserving the codec's no-pickle security stance.

A frame is ``7-byte header + body``: magic ``0x5250`` (``"RP"``), one
codec-version byte (:data:`WIRE_VERSION`), and a 4-byte big-endian body
length.  The magic rejects cross-codec confusion (a JSON frame's length
prefix never starts with ``0x5250`` for sane frame sizes — see
docs/wire.md for the negotiation rules); the version byte rejects frames
from a future tag assignment.  Both ends of a connection must be
configured with the same ``wire=`` codec.

Error contract: everything the JSON codec rejects, this codec rejects too
(:class:`~repro.net.codec.CodecError`), and both reject non-finite floats;
the single deliberate divergence is ``bytes``/``bytearray``, which only
this codec accepts.  ``tests/test_wire_bincodec.py`` enforces the parity
property with a seeded cross-codec fuzz.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import Any, Callable, Dict, List, Tuple

from repro.net.codec import MAX_FRAME, CodecError, WIRE_TYPES

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "HEADER",
    "dumps",
    "loads",
    "encode_frame",
    "decode_frame",
    "body_length",
]

#: Bump when the tag table or any encoding rule changes (docs/wire.md).
#: v2: HeartbeatAck joined the registry (leader leases), shifting the
#: sorted tag table, and Accept/Accepted/Heartbeat/CatchupReply grew
#: trailing fields (commit_up_to / accepted_up_to / sent_at / more).
#: v3: GroupEnvelope and Rendezvous joined the registry (partitioned
#: deployments, docs/partitioning.md), shifting the sorted tag table.
#: v4: OptimisticAnnounce and NewEpoch joined the registry (optimistic
#: execution + sequencer failover, docs/speculation.md), shifting the
#: sorted tag table, and SequencerStamp grew a trailing epoch field.
#: v5: Snapshot joined the registry (log compaction + in-band state
#: transfer, docs/ordering.md), shifting the sorted tag table.
WIRE_VERSION = 5

#: Two magic bytes opening every binary frame header ("RP" — repro).
MAGIC = 0x5250

#: Frame header: magic (2 bytes) + version (1 byte) + body length (4 bytes).
HEADER = struct.Struct(">HBI")

#: Duck-typed wire-codec interface (see :func:`repro.net.codec.wire_codec`):
#: this module itself is the ``"binary"`` codec object.
name = "binary"
header_size = HEADER.size

_DOUBLE = struct.Struct(">d")

# ------------------------------------------------------------- tag table

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09

#: First tag byte of the registered-dataclass range.
_T_DATACLASS_BASE = 0x20

#: Deterministic tag assignment: sorted registry names -> 0x20, 0x21, ...
#: Adding or renaming a wire type therefore requires a WIRE_VERSION bump.
_TYPE_TAGS: Dict[type, int] = {
    WIRE_TYPES[name]: _T_DATACLASS_BASE + index
    for index, name in enumerate(sorted(WIRE_TYPES))
}
_TAG_TYPES: Dict[int, type] = {tag: cls for cls, tag in _TYPE_TAGS.items()}

#: Per-type field-name tuples, precomputed once (field order is the wire
#: order; names never travel).
_TYPE_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in _TYPE_TAGS
}


# -------------------------------------------------------------- varints


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


# Arbitrary-precision zigzag: Python ints are unbounded, so use the pure
# sign-fold form (no word-size shift trick) uniformly.
def _zigzag_encode(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _zigzag_decode(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -------------------------------------------------------------- encoding


def dumps(obj: Any) -> bytes:
    """Encode one value to its binary body (no frame header)."""
    out = bytearray()
    _encode(out, obj)
    return bytes(out)


def _encode(out: bytearray, obj: Any) -> None:
    # ``bool`` first: it is an ``int`` subclass and must not hit _T_INT.
    if obj is None:
        out.append(_T_NONE)
        return
    if obj is True:
        out.append(_T_TRUE)
        return
    if obj is False:
        out.append(_T_FALSE)
        return
    kind = type(obj)
    if kind is int:
        out.append(_T_INT)
        _write_uvarint(out, _zigzag_encode(obj))
        return
    if kind is float:
        if not math.isfinite(obj):
            # RFC 8259 JSON has no NaN/Infinity and the codecs must agree
            # value-for-value; reject at the source on both.
            raise CodecError(f"cannot encode non-finite float: {obj!r}")
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(obj)
        return
    if kind is str:
        encoded = obj.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(encoded))
        out += encoded
        return
    if kind is bytes or kind is bytearray:
        out.append(_T_BYTES)
        _write_uvarint(out, len(obj))
        out += obj
        return
    if kind is list:
        out.append(_T_LIST)
        _write_uvarint(out, len(obj))
        for item in obj:
            _encode(out, item)
        return
    if kind is tuple:
        out.append(_T_TUPLE)
        _write_uvarint(out, len(obj))
        for item in obj:
            _encode(out, item)
        return
    if kind is dict:
        out.append(_T_DICT)
        _write_uvarint(out, len(obj))
        for key, value in obj.items():
            _encode(out, key)
            _encode(out, value)
        return
    tag = _TYPE_TAGS.get(kind)
    if tag is not None:
        out.append(tag)
        for name in _TYPE_FIELDS[kind]:
            _encode(out, getattr(obj, name))
        return
    # Slow path: subclasses of the scalar/container types.  The JSON codec
    # accepts these through its isinstance checks, so error parity demands
    # the same here (the subclass identity is lost on the wire either way).
    if isinstance(obj, int):
        out.append(_T_INT)
        _write_uvarint(out, _zigzag_encode(int(obj)))
        return
    if isinstance(obj, float):
        _encode(out, float(obj))
        return
    if isinstance(obj, str):
        _encode(out, str(obj))
        return
    if isinstance(obj, (bytes, bytearray)):
        _encode(out, bytes(obj))
        return
    if isinstance(obj, list):
        _encode(out, list(obj))
        return
    if isinstance(obj, tuple):
        _encode(out, tuple(obj))
        return
    if isinstance(obj, dict):
        _encode(out, dict(obj))
        return
    raise CodecError(f"cannot encode {type(obj).__name__}: {obj!r}")


# -------------------------------------------------------------- decoding
#
# Decoders are plain functions ``(data, pos) -> (value, next_pos)`` in a
# flat 256-slot dispatch list indexed by the tag byte.  This shape (locals
# instead of a reader object, one IndexError guard instead of per-byte
# bounds checks) is what lets a pure-Python parser race the C-accelerated
# ``json.loads`` + tree-decode pipeline (see BENCH_wire_codec.json).


def _uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 10_000:  # corrupt continuation-bit run
            raise CodecError("varint too long")


def _decode_int(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    if byte < 0x80:  # single-byte varint covers |value| <= 63 — the
        # common case for node ids, rounds, and small instance numbers
        return (byte >> 1) if not byte & 1 else -((byte + 1) >> 1), pos + 1
    value, pos = _uvarint(data, pos)
    return (value >> 1) if not value & 1 else -((value + 1) >> 1), pos


def _decode_float(data: bytes, pos: int) -> Tuple[float, int]:
    value = _DOUBLE.unpack_from(data, pos)[0]
    if not math.isfinite(value):
        raise CodecError(f"non-finite float on the wire: {value!r}")
    return value, pos + 8


def _decode_str(data: bytes, pos: int) -> Tuple[str, int]:
    length = data[pos]  # single-byte length fast path (< 128 bytes)
    if length < 0x80:
        pos += 1
    else:
        length, pos = _uvarint(data, pos)
    stop = pos + length
    if stop > len(data):
        raise CodecError("truncated frame body")
    try:
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as error:
        raise CodecError(f"malformed UTF-8 string: {error}") from error


def _decode_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    length = data[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = _uvarint(data, pos)
    stop = pos + length
    if stop > len(data):
        raise CodecError("truncated frame body")
    return data[pos:stop], stop


def _decode_list(data: bytes, pos: int) -> Tuple[List[Any], int]:
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _uvarint(data, pos)
    result = []
    append = result.append
    decoders = _DECODERS
    for _ in range(count):
        value, pos = decoders[data[pos]](data, pos + 1)
        append(value)
    return result, pos


def _decode_tuple(data: bytes, pos: int) -> Tuple[Tuple[Any, ...], int]:
    value, pos = _decode_list(data, pos)
    return tuple(value), pos


def _decode_dict(data: bytes, pos: int) -> Tuple[Dict[Any, Any], int]:
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _uvarint(data, pos)
    result = {}
    decoders = _DECODERS
    for _ in range(count):
        key, pos = decoders[data[pos]](data, pos + 1)
        value, pos = decoders[data[pos]](data, pos + 1)
        result[key] = value
    return result, pos


def _decode_invalid(data: bytes, pos: int) -> Tuple[Any, int]:
    raise CodecError(f"unknown binary tag 0x{data[pos - 1]:02x}")


def _make_dataclass_decoder(cls: type) -> Callable[[bytes, int],
                                                   Tuple[Any, int]]:
    arity = len(_TYPE_FIELDS[cls])

    def _decode_dataclass(data: bytes, pos: int) -> Tuple[Any, int]:
        # Field values travel positionally in dataclass field order, so the
        # constructor call is positional too — no per-field name on the
        # wire and no kwargs dict at decode time.
        decoders = _DECODERS
        values = []
        append = values.append
        for _ in range(arity):
            value, pos = decoders[data[pos]](data, pos + 1)
            append(value)
        try:
            return cls(*values), pos
        except TypeError as error:  # field type invariants enforced upstream
            raise CodecError(
                f"bad fields for {cls.__name__}: {error}") from error

    return _decode_dataclass


_DECODERS: List[Callable[[bytes, int], Tuple[Any, int]]] = (
    [_decode_invalid] * 256)
_DECODERS[_T_NONE] = lambda data, pos: (None, pos)
_DECODERS[_T_TRUE] = lambda data, pos: (True, pos)
_DECODERS[_T_FALSE] = lambda data, pos: (False, pos)
_DECODERS[_T_INT] = _decode_int
_DECODERS[_T_FLOAT] = _decode_float
_DECODERS[_T_STR] = _decode_str
_DECODERS[_T_BYTES] = _decode_bytes
_DECODERS[_T_LIST] = _decode_list
_DECODERS[_T_TUPLE] = _decode_tuple
_DECODERS[_T_DICT] = _decode_dict
for _cls, _tag in _TYPE_TAGS.items():
    _DECODERS[_tag] = _make_dataclass_decoder(_cls)


def loads(data: bytes) -> Any:
    """Decode one binary body produced by :func:`dumps`."""
    data = bytes(data)
    try:
        value, pos = _DECODERS[data[0]](data, 1)
    except IndexError:
        raise CodecError("truncated frame body") from None
    except struct.error as error:
        raise CodecError(f"truncated frame body: {error}") from None
    if pos != len(data):
        raise CodecError(
            f"trailing garbage: {len(data) - pos} bytes after value")
    return value


# ---------------------------------------------------------------- frames


def encode_frame(src: int, msg: Any) -> bytes:
    """Pack one ``(src, msg)`` pair into a magic+version framed message."""
    if isinstance(src, bool) or not isinstance(src, int):
        raise CodecError(f"frame src must be an int, got {src!r}")
    body = bytearray()
    _write_uvarint(body, _zigzag_encode(src))
    _encode(body, msg)
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + bytes(body)


def decode_frame(body: bytes) -> Tuple[int, Any]:
    """Unpack one frame body (header already consumed and validated)."""
    body = bytes(body)
    try:
        raw, pos = _uvarint(body, 0)
        src = _zigzag_decode(raw)
        msg, pos = _DECODERS[body[pos]](body, pos + 1)
    except IndexError:
        raise CodecError("truncated frame body") from None
    except struct.error as error:
        raise CodecError(f"truncated frame body: {error}") from None
    if pos != len(body):
        raise CodecError(
            f"trailing garbage: {len(body) - pos} bytes after frame")
    return src, msg


def body_length(header: bytes) -> int:
    """Validate a 7-byte header; return the body length it announces."""
    magic, version, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise CodecError(
            f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x}); "
            f"peer is not speaking the binary wire codec")
    if version != WIRE_VERSION:
        raise CodecError(
            f"unsupported binary codec version {version} "
            f"(this end speaks {WIRE_VERSION})")
    if length > MAX_FRAME:
        raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return length
