"""Property tests for the binary wire codec (``repro.net.bincodec``).

A seeded fuzzer generates values from the wire vocabulary (scalars,
tuples, dicts with non-string keys, registered dataclasses, arbitrary
nesting) and asserts each round-trips to an equal value of the same type,
and that invalid inputs are rejected.  ``bytes`` travel natively.

The end-to-end half runs a live :class:`TcpCluster` and pushes a bytes
payload through a full client round trip.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.broadcast.messages import (
    Accept,
    Accepted,
    CatchupReply,
    Decide,
    Forward,
    Heartbeat,
    Promise,
    Snapshot,
)
from repro.core.command import Command
from repro.net import bincodec
from repro.net.cluster import TcpCluster
from repro.net.codec import WIRE_NAMES, WIRE_TYPES, CodecError, wire_codec
from repro.net.messages import ClientRequest, ClientResponse

# ---------------------------------------------------------------- generators


def _scalar(rng: random.Random):
    choice = rng.randrange(7)
    if choice == 0:
        return None
    if choice == 1:
        return rng.random() < 0.5
    if choice == 2:
        # Ints spanning the varint fast path, multi-byte encodings, and
        # beyond-64-bit bignums (the codec is arbitrary precision).
        return rng.choice([0, 1, -1, 63, 64, 127, 128, -128, 2**31,
                           -(2**31), 2**63, 2**80, rng.getrandbits(48),
                           -rng.getrandbits(48)])
    if choice == 3:
        return rng.uniform(-1e12, 1e12)
    if choice == 4:
        length = rng.choice([0, 1, 7, 127, 128, 300])
        return "".join(rng.choice("abcxyz012 é✓☃")
                       for _ in range(length))
    if choice == 5:
        return rng.randrange(10**6)
    return rng.choice(["op", "key-%d" % rng.randrange(100), ""])


def _hashable(rng: random.Random):
    if rng.random() < 0.3:
        return tuple(_scalar(rng) for _ in range(rng.randrange(3)))
    value = _scalar(rng)
    # floats make fine dict keys but NaN-free equality is what we assert on
    return value


def _value(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.4:
        return _scalar(rng)
    choice = rng.randrange(4)
    if choice == 0:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if choice == 1:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(5)))
    if choice == 2:
        return {_hashable(rng): _value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return _message(rng, depth + 1)


def _command(rng: random.Random) -> Command:
    return Command(
        op=rng.choice(["put", "get", "contains"]),
        args=tuple(_scalar(rng) for _ in range(rng.randrange(1, 4))),
        client_id=rng.choice([None, "c-%d" % rng.randrange(8)]),
        request_id=rng.choice([None, rng.randrange(1000)]),
        uid=rng.choice([None, rng.randrange(1000)]),
        writes=rng.random() < 0.5,
    )


def _message(rng: random.Random, depth: int = 0):
    ballot = (rng.randrange(100), rng.randrange(5))
    choice = rng.randrange(9)
    if choice == 0:
        return Accept(ballot, rng.randrange(1000), _value(rng, depth + 1))
    if choice == 1:
        return Accepted(ballot, rng.randrange(1000))
    if choice == 2:
        return Decide(rng.randrange(1000), _value(rng, depth + 1))
    if choice == 3:
        return Heartbeat(ballot, rng.randrange(1000))
    if choice == 4:
        return Forward(_value(rng, depth + 1), rng.randrange(8))
    if choice == 5:
        return Promise(ballot, {
            rng.randrange(100): (ballot, _value(rng, depth + 1))
            for _ in range(rng.randrange(3))
        })
    if choice == 6:
        return CatchupReply({rng.randrange(100): _value(rng, depth + 1)
                             for _ in range(rng.randrange(3))})
    if choice == 7:
        return Snapshot(
            rng.randrange(-1, 1000), _value(rng, depth + 1),
            {"c-%d" % rng.randrange(8): (rng.randrange(1000),
                                         _value(rng, depth + 1))
             for _ in range(rng.randrange(3))})
    return _command(rng)


# ----------------------------------------------------------------- round trips


class TestDifferentialFuzz:

    @pytest.mark.parametrize("seed", range(20))
    def test_codecs_roundtrip_identically(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            value = _value(rng)
            decoded = bincodec.loads(bincodec.dumps(value))
            assert decoded == value
            assert type(decoded) is type(value)

    @pytest.mark.parametrize("seed", range(10))
    def test_frames_roundtrip_identically(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(10):
            src = rng.randrange(16)
            msg = _message(rng)
            frame = bincodec.encode_frame(src, msg)
            header = frame[:bincodec.header_size]
            body = frame[bincodec.header_size:]
            assert bincodec.body_length(header) == len(body)
            assert bincodec.decode_frame(body) == (src, msg)

    def test_every_wire_type_has_a_binary_tag(self):
        # The registry is the single source of truth: every registered
        # dataclass has a stable binary tag, assigned deterministically
        # from the sorted registry names.
        tags = bincodec._TYPE_TAGS
        for name, cls in WIRE_TYPES.items():
            assert cls in tags, f"{name} is registered but has no binary tag"
        assert sorted(tags.values()) == list(
            range(0x20, 0x20 + len(WIRE_TYPES)))

    def test_tag_table_is_pinned_to_the_wire_version(self):
        # Tag bytes follow the sorted registry names, so adding, removing
        # or renaming a type renumbers the wire: bump WIRE_VERSION with it
        # and update this list.
        assert (bincodec.WIRE_VERSION, sorted(WIRE_TYPES)) == (5, [
            "Accept", "Accepted", "CatchupReply", "CatchupRequest",
            "ClientRequest", "ClientResponse", "Command", "Decide",
            "Forward", "GroupEnvelope", "Heartbeat", "HeartbeatAck", "Nack",
            "NewEpoch", "OptimisticAnnounce", "Prepare", "Promise",
            "Rendezvous", "SequencerStamp", "Snapshot"])

    @pytest.mark.parametrize("bad", [
        float("nan"),
        float("inf"),
        float("-inf"),
        object(),
        {1, 2, 3},
    ])
    def test_rejections_agree(self, bad):
        with pytest.raises(CodecError):
            bincodec.dumps(bad)

    def test_unregistered_dataclass_rejected_by_both(self):
        @dataclasses.dataclass
        class NotOnTheWire:
            x: int = 1

        with pytest.raises(CodecError):
            bincodec.dumps(NotOnTheWire())

    def test_bytes_divergence_is_deliberate(self):
        # The wire carries bytes natively (snapshots, opaque app payloads).
        blob = bytes(range(256))
        assert bincodec.loads(bincodec.dumps(blob)) == blob
        assert bincodec.loads(bincodec.dumps((1, {"b": blob}))) == \
            (1, {"b": blob})
        # bytearray rides along as bytes.
        assert bincodec.loads(bincodec.dumps(bytearray(blob))) == blob


# ------------------------------------------------------------- binary frames


class TestBinaryFrames:

    def test_header_magic_rejected(self):
        body = bincodec.dumps((3, Decide(1, "x")))
        bare = len(body).to_bytes(4, "big") + body
        with pytest.raises(CodecError):
            # A bare 4-byte length prefix is not a binary header: the magic
            # check fails instead of treating 4 random bytes as a length.
            bincodec.body_length(bare[:bincodec.header_size])

    def test_version_mismatch_rejected(self):
        frame = bincodec.encode_frame(0, "hello")
        header = bytearray(frame[:bincodec.header_size])
        header[2] = bincodec.WIRE_VERSION + 1
        with pytest.raises(CodecError):
            bincodec.body_length(bytes(header))

    def test_oversized_length_rejected(self):
        header = bincodec.HEADER.pack(
            bincodec.MAGIC, bincodec.WIRE_VERSION, bincodec.MAX_FRAME + 1)
        with pytest.raises(CodecError):
            bincodec.body_length(header)

    def test_truncated_body_rejected(self):
        frame = bincodec.encode_frame(2, ("abc", 123, b"\x01\x02"))
        body = frame[bincodec.header_size:]
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                bincodec.decode_frame(body[:cut])

    def test_trailing_garbage_rejected(self):
        frame = bincodec.encode_frame(2, "ok")
        body = frame[bincodec.header_size:]
        with pytest.raises(CodecError):
            bincodec.decode_frame(body + b"\x00")

    def test_negative_src_roundtrips(self):
        frame = bincodec.encode_frame(-7, "payload")
        body = frame[bincodec.header_size:]
        assert bincodec.decode_frame(body) == (-7, "payload")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            bincodec.loads(b"\xff")


# ------------------------------------------------------------- wire registry


class TestWireRegistry:

    def test_names(self):
        assert WIRE_NAMES == ("binary",)

    def test_lookup(self):
        binary = wire_codec("binary")
        assert binary.name == "binary"
        assert binary.header_size == bincodec.header_size

    def test_unknown_wire_rejected(self):
        for name in ("json", "protobuf"):
            with pytest.raises(CodecError):
                wire_codec(name)


# -------------------------------------------------------- live binary cluster


class TestBinaryCluster:

    def test_bytes_payload_roundtrips_through_cluster(self):
        # End to end on real sockets: a bytes value rides a Command through
        # client -> leader -> consensus -> execution -> response.
        blob = bytes(range(256)) * 4
        with TcpCluster(n_replicas=3, service="kv") as cluster:
            client = cluster.client()
            assert client.execute(
                Command("put", ("blob", blob), writes=True)) is None
            assert client.execute(
                Command("get", ("blob",), writes=False)) == blob
