"""Tests for the ZHT wire protocol (repro.core.protocol)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ProtocolError, Status
from repro.core.protocol import (
    MUTATING_OPS,
    OpCode,
    Request,
    Response,
    deframe_at,
    frame,
)


requests = st.builds(
    Request,
    op=st.sampled_from(list(OpCode)),
    key=st.binary(max_size=64),
    value=st.binary(max_size=256),
    request_id=st.integers(min_value=0, max_value=2**32),
    epoch=st.integers(min_value=0, max_value=2**20),
    partition=st.integers(min_value=0, max_value=2**16),
    replica_index=st.integers(min_value=0, max_value=10),
    inner_op=st.sampled_from([0] + [int(o) for o in OpCode]),
    payload=st.binary(max_size=128),
)

responses = st.builds(
    Response,
    status=st.sampled_from(list(Status)),
    value=st.binary(max_size=256),
    request_id=st.integers(min_value=0, max_value=2**32),
    epoch=st.integers(min_value=0, max_value=2**20),
    redirect=st.binary(max_size=64),
    membership=st.binary(max_size=512),
)


class TestRequestCodec:
    @given(requests)
    def test_roundtrip(self, request):
        assert Request.decode(request.encode()) == request

    def test_minimal_request(self):
        r = Request(op=OpCode.PING)
        decoded = Request.decode(r.encode())
        assert decoded.op == OpCode.PING
        assert decoded.key == b"" and decoded.value == b""

    def test_encoding_is_compact(self):
        """A 15B key / 132B value insert — the paper's micro-benchmark
        shape — carries exactly the 44-byte header on top of its fields."""
        r = Request(op=OpCode.INSERT, key=b"k" * 15, value=b"v" * 132, request_id=7)
        assert len(r.encode()) == r.encoded_size() == 15 + 132 + 44

    def test_unknown_opcode_rejected(self):
        bad = Request(op=OpCode.INSERT)
        data = bytearray(bad.encode())
        data[2] = 99  # header byte 2 is the opcode
        with pytest.raises(ProtocolError, match="unknown opcode"):
            Request.decode(bytes(data))

    def test_malformed_buffer_rejected(self):
        with pytest.raises(ProtocolError):
            Request.decode(b"\xfa\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")

    def test_overrun_length_rejected(self):
        # The header claims a 100-byte key but the message supplies 1.
        data = Request(op=OpCode.INSERT, key=b"x" * 100).encode()[: 44 + 1]
        with pytest.raises(ProtocolError, match="overrun"):
            Request.decode(data)


class TestResponseCodec:
    @given(responses)
    def test_roundtrip(self, response):
        assert Response.decode(response.encode()) == response

    def test_ok_status_is_default(self):
        r = Response(request_id=1)
        assert Response.decode(r.encode()).status == Status.OK

    def test_unknown_status_rejected(self):
        data = bytearray(Response().encode())
        data[2] = 99  # header byte 2 is the status
        with pytest.raises(ProtocolError, match="unknown status"):
            Response.decode(bytes(data))


class TestFraming:
    @given(st.binary(max_size=1000))
    def test_frame_roundtrip(self, payload):
        framed = frame(payload)
        assert deframe_at(framed, 0) == (payload, len(framed))

    def test_partial_frame_returns_none(self):
        framed = frame(b"hello world")
        assert deframe_at(framed[:4], 0) == (None, 0)

    def test_two_frames_back_to_back(self):
        buffer = frame(b"first") + frame(b"second")
        m1, offset = deframe_at(buffer, 0)
        m2, offset = deframe_at(buffer, offset)
        assert (m1, m2, offset) == (b"first", b"second", len(buffer))

    def test_empty_buffer(self):
        assert deframe_at(b"", 0) == (None, 0)

    @given(st.lists(st.binary(max_size=50), max_size=10), st.integers(1, 20))
    def test_streaming_reassembly(self, payloads, chunk):
        """Frames split at arbitrary boundaries reassemble in order."""
        stream = b"".join(frame(p) for p in payloads)
        received, buffer, offset = [], bytearray(), 0
        for i in range(0, len(stream), chunk):
            buffer += stream[i : i + chunk]
            while True:
                message, offset = deframe_at(buffer, offset)
                if message is None:
                    break
                received.append(message)
        assert received == payloads


class TestOpSemantics:
    def test_mutating_ops(self):
        assert OpCode.INSERT in MUTATING_OPS
        assert OpCode.APPEND in MUTATING_OPS
        assert OpCode.REMOVE in MUTATING_OPS
        assert OpCode.LOOKUP not in MUTATING_OPS
        assert OpCode.PING not in MUTATING_OPS
