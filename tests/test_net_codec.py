"""Unit tests for the TCP wire codec (tagged JSON + length-prefix frames)."""

import dataclasses

import pytest

from repro.broadcast.messages import (
    Accept,
    CatchupReply,
    CatchupRequest,
    Decide,
    Forward,
    Heartbeat,
    Nack,
    Prepare,
    Promise,
    SequencerStamp,
    Snapshot,
)
from repro.core.command import Command
from repro.net.codec import (
    MAX_FRAME,
    CodecError,
    decode,
    decode_frame,
    dumps,
    encode,
    encode_frame,
    loads,
)
from repro.net.messages import ClientRequest, ClientResponse


def roundtrip(obj):
    return loads(dumps(obj))


class TestValueRoundtrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 2 ** 40, 0.25, "hello", "ünïcode",
    ])
    def test_scalars(self, value):
        assert roundtrip(value) == value

    def test_lists_stay_lists(self):
        assert roundtrip([1, "two", [3.0, None]]) == [1, "two", [3.0, None]]

    def test_tuples_come_back_as_tuples(self):
        value = (1, ("nested", 2), [3, (4,)])
        result = roundtrip(value)
        assert result == value
        assert isinstance(result, tuple)
        assert isinstance(result[1], tuple)
        assert isinstance(result[2][1], tuple)

    def test_dict_preserves_non_string_keys(self):
        value = {0: "zero", (1, 2): "ballot", "s": {3: 4}}
        result = roundtrip(value)
        assert result == value
        assert (1, 2) in result  # key identity survives, not str((1, 2))

    def test_command_roundtrip(self):
        command = Command("add", (17,), writes=True,
                          client_id="c9", request_id=3)
        result = roundtrip(command)
        assert result == command
        assert isinstance(result.args, tuple)


class TestProtocolMessages:
    BALLOT = (2, 1)

    @pytest.mark.parametrize("message", [
        Prepare(ballot=BALLOT),
        Promise(ballot=BALLOT,
                accepted={4: ((1, 0), (Command("add", (1,), writes=True),))}),
        Accept(ballot=BALLOT, instance=4,
               value=(Command("contains", (2,), writes=False),)),
        Nack(ballot=BALLOT, promised=(3, 2)),
        Decide(instance=4, value=(Command("add", (5,), writes=True),)),
        CatchupRequest(7),
        Heartbeat(ballot=BALLOT, decided_up_to=12),
        SequencerStamp(3, (Command("add", (9,), writes=True),)),
        # Service state + dedup table of each app family: a sorted list
        # (linked list), a dict with non-string keys (KV store).
        Snapshot(instance=41, state=[1, 5, 9],
                 dedup={"c1": (7, True), "c2": (3, None)}),
        Snapshot(instance=-1, state={("k", 1): [2, 3], 4: "v"}),
    ])
    def test_roundtrip(self, message):
        assert roundtrip(message) == message

    def test_catchup_reply_keys_are_ints(self):
        reply = CatchupReply({3: (Command("add", (1,), writes=True),)})
        result = roundtrip(reply)
        assert result == reply
        assert set(result.decided) == {3}

    def test_forward_roundtrip(self):
        # Construct by keyword: `payload` is the one required field, any
        # later additions (e.g. `hops`) carry defaults.
        payload = (Command("add", (2,), writes=True),)
        forward = Forward(payload=payload)
        assert roundtrip(forward) == forward
        assert roundtrip(Forward(payload=payload, hops=3)).hops == 3

    def test_client_envelope_roundtrip(self):
        request = ClientRequest(
            payload=(Command("add", (1,), client_id="c1", request_id=1,
                             writes=True),),
            reply_to=1000, reply_host="127.0.0.1", reply_port=4242,
            client_id="c1")
        assert roundtrip(request) == request
        response = ClientResponse(
            command=request.payload[0], response=True, replica_id=2)
        assert roundtrip(response) == response


class TestRejections:
    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode({"!": "EvilType", "v": {}})

    def test_unregistered_class_not_encodable(self):
        @dataclasses.dataclass
        class Unregistered:
            x: int

        with pytest.raises(CodecError):
            encode(Unregistered(1))

    def test_registered_name_with_wrong_fields(self):
        with pytest.raises(CodecError):
            decode({"!": "Decide", "v": {"bogus": 1}})

    def test_arbitrary_object_not_encodable(self):
        with pytest.raises(CodecError):
            encode(object())

    def test_malformed_bytes(self):
        with pytest.raises(CodecError):
            loads(b"{not json")

    def test_non_utf8_bytes(self):
        with pytest.raises(CodecError):
            loads(b"\xff\xfe")


class TestFrames:
    def test_frame_roundtrip(self):
        msg = Decide(instance=1,
                     value=(Command("add", (3,), writes=True),))
        frame = encode_frame(7, msg)
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        src, decoded = decode_frame(frame[4:])
        assert src == 7
        assert decoded == msg

    def test_oversized_frame_rejected(self):
        with pytest.raises(CodecError):
            encode_frame(0, "x" * (MAX_FRAME + 1))

    def test_frame_body_must_be_pair(self):
        with pytest.raises(CodecError):
            decode_frame(dumps([1, 2, 3]))
        with pytest.raises(CodecError):
            decode_frame(dumps(5))

    def test_frame_src_must_be_int(self):
        with pytest.raises(CodecError):
            decode_frame(dumps(("zero", Heartbeat(ballot=(1, 0)))))
