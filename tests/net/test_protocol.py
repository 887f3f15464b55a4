"""Wire framing and the versioned message schema.

Acceptance: frames survive arbitrary TCP fragmentation, malformed or
oversized frames fail loudly (framing sync is lost, the connection must
drop), a field of the wrong type is a ``ProtocolError`` naming kind and
field, and version negotiation refuses messages from a newer schema
instead of guessing at unknown semantics.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.protocol
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    encode_frame,
    make_message,
    validate_message,
)


class TestFraming:
    def test_roundtrip_single_frame(self):
        message = make_message("heartbeat", 3, domain="domain-1", minute=725)
        decoded = FrameDecoder().feed(encode_frame(message))
        assert decoded == [message]

    def test_byte_at_a_time_fragmentation(self):
        message = make_message("reject", 1, reason="nope")
        frame = encode_frame(message)
        decoder = FrameDecoder()
        collected = []
        for index in range(len(frame)):
            collected.extend(decoder.feed(frame[index : index + 1]))
        assert collected == [message]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_read(self):
        messages = [
            make_message("heartbeat", clock, domain="domain-1", minute=720 + clock)
            for clock in range(5)
        ]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_oversized_length_prefix_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_non_json_payload_is_fatal(self):
        payload = b"\xff\xfe not json"
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_non_object_payload_is_fatal(self):
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_a_payload_nested_past_the_parser_is_fatal_not_a_crash(self):
        payload = b"[" * 200_000
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.one_of(
            st.binary(max_size=400),
            # streams that start like frames: a small length, then bytes
            st.tuples(
                st.integers(0, 96).map(lambda n: struct.pack(">I", n)),
                st.binary(max_size=200),
            ).map(b"".join),
            st.lists(
                st.builds(
                    lambda clock, reason: encode_frame(
                        make_message("reject", clock, reason=reason)
                    ),
                    st.integers(0, 9),
                    st.text(max_size=8),
                ),
                max_size=4,
            ).map(b"".join),
        ),
        cuts=st.lists(st.integers(0, 400), max_size=8),
    )
    def test_any_bytes_in_any_fragmentation_decode_or_fail_typed(
        self, data, cuts
    ):
        """Messages (JSON objects) or ``FrameError``; what waits in the
        buffer never exceeds one maximal frame."""
        limit = 64
        original = repro.net.protocol.MAX_FRAME_BYTES
        repro.net.protocol.MAX_FRAME_BYTES = limit  # so the bound is reachable
        try:
            decoder = FrameDecoder()
            edges = sorted({0, len(data), *(c for c in cuts if c < len(data))})
            for begin, end in zip(edges, edges[1:]):
                try:
                    messages = decoder.feed(data[begin:end])
                except FrameError:
                    return
                assert all(isinstance(message, dict) for message in messages)
                assert decoder.pending_bytes <= limit + 4
        finally:
            repro.net.protocol.MAX_FRAME_BYTES = original


class TestSchema:
    def test_make_message_stamps_version_and_clock(self):
        message = make_message("deregister_ack", 9)
        assert message["schema_version"] == PROTOCOL_VERSION
        assert message["clock"] == 9

    def test_missing_required_field_fails_at_the_producer(self):
        with pytest.raises(ProtocolError, match="missing required fields"):
            make_message("hello", 1, domain="domain-1")  # no incarnation/minute

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message kind"):
            make_message("gossip", 1)

    def test_newer_schema_version_is_rejected(self):
        message = make_message("deregister_ack", 1)
        message["schema_version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="newer than the supported"):
            validate_message(message)

    def test_older_schema_version_is_accepted(self):
        # downgrade tolerance: a v1 server must keep talking to v1 agents
        # after a future bump, so "at or below" is the contract
        message = make_message("deregister_ack", 1)
        message["schema_version"] = PROTOCOL_VERSION  # current == accepted
        assert validate_message(message) is message

    def test_negative_clock_is_rejected(self):
        message = make_message("deregister_ack", 1)
        message["clock"] = -1
        with pytest.raises(ProtocolError, match="clock"):
            validate_message(message)

    def test_a_wrong_typed_field_names_kind_and_field(self):
        with pytest.raises(ProtocolError, match="'heartbeat'.*'minute' must be int"):
            make_message("heartbeat", 2, domain="domain-1", minute="soon")
        with pytest.raises(ProtocolError, match="'welcome'.*'token' must be int, not bool"):
            make_message(
                "welcome", 1, token=True, session="s", max_clock=0, resumed=False
            )
        with pytest.raises(ProtocolError, match="'escrow_attached'.*'ok' must be bool"):
            make_message("escrow_attached", 1, escrow_id="e", ok=1, note="")

    def test_the_wire_has_no_kind_for_events_or_summaries(self):
        assert not [kind for kind in MESSAGE_KINDS if "telemetry" in kind]
        assert "summary" not in MESSAGE_KINDS["deregister"]

    @settings(max_examples=300, deadline=None)
    @given(message=st.deferred(lambda: json_objects))
    def test_any_json_object_validates_or_fails_typed(self, message):
        try:
            assert validate_message(message) is message
        except ProtocolError:
            return
        fields = MESSAGE_KINDS[message["kind"]]
        assert all(type(message[name]) is kind for name, kind in fields.items())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2000) | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_OF_TYPE = {
    int: st.integers(0, 2000),
    bool: st.booleans(),
    dict: st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
    str: st.sampled_from(["ok", "deposed", "Blade3"]) | st.text(max_size=12),
}
#: few values where a server correlates by them, so that examples meet
_OF_NAME = {
    "domain": st.sampled_from(["domain-1", "domain-2"]),
    "escrow_id": st.sampled_from(["e-1", "e-2"]),
    "token": st.integers(1, 2),
}
_DROPPED = object()


@st.composite
def _near_messages(draw):
    """A well-typed message of some kind with up to two fields replaced
    by arbitrary JSON or dropped: about half of them validate."""
    kind = draw(st.sampled_from(sorted(MESSAGE_KINDS)))
    fields = dict(MESSAGE_KINDS[kind], clock=int)
    message = {
        name: draw(_OF_NAME.get(name, _OF_TYPE[type_]))
        for name, type_ in fields.items()
    }
    message.update(kind=kind, schema_version=PROTOCOL_VERSION)
    for name in draw(st.lists(st.sampled_from(sorted(message)), max_size=2)):
        value = draw(_JSON | st.just(_DROPPED))
        if value is _DROPPED:
            message.pop(name, None)
        else:
            message[name] = value
    return message


#: arbitrary JSON objects, most of them near a valid message
json_objects = st.one_of(
    st.dictionaries(st.text(max_size=8), _JSON, max_size=5),
    _near_messages(),
    _near_messages(),
    _near_messages(),
)
