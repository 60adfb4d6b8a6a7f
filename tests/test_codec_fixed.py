"""The wire format: round trips, rejection of anything else, and
torn-frame resilience.

There is one format — a struct-packed fixed header behind the magic
byte 0xF7 — so these tests are its whole contract: every opcode and
status, zero-length and maximal fields, incremental framing torn at
every byte offset, and a typed ``ProtocolError`` (never a hang, never a
stray ``struct.error``) for every byte string that is not a message.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ProtocolError, Status
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    decode_batch_requests,
    decode_batch_responses,
    decode_request_span,
    decode_response_span,
    deframe_span,
    encode_batch_requests,
    encode_batch_responses,
    encode_framed_request,
    encode_framed_response,
    frame,
    pack_batch,
    pack_request,
    pack_response,
    parse_batch,
    parse_request,
    parse_response,
)

#: The format's name — the one value the ``encode_framed_*`` /
#: ``encode_batch_requests`` codec argument (kept for the frozen ledger)
#: accepts.
CODECS = ["fixed"]

ALL_OPS = list(OpCode)
ALL_STATUSES = list(Status)


def _request(op: OpCode, *, key=b"key-7", value=b"value-11") -> Request:
    return Request(
        op=op,
        key=key,
        value=value,
        request_id=2**63 + 17,
        epoch=2**31 + 3,
        partition=1023,
        replica_index=2,
        inner_op=int(OpCode.APPEND),
        payload=b"payload-13",
        deadline_us=2**53 + 5,
    )


def _response(status: Status) -> Response:
    return Response(
        status=status,
        value=b"v" * 37,
        request_id=2**40 + 1,
        epoch=7,
        redirect=b"127.0.0.1:5000",
        membership=b"{}" * 9,
        op=int(OpCode.LOOKUP),
    )


# ---------------------------------------------------------------------------
# Roundtrips: every opcode and status, whole-message and framed
# ---------------------------------------------------------------------------


def _only_span(buffer) -> tuple[int, int]:
    start, end, next_offset = deframe_span(buffer, 0)
    assert start >= 0 and next_offset == len(buffer)
    return start, end


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_request_roundtrip_every_op(codec, op):
    request = _request(op)
    assert Request.decode(request.encode()) == request
    framed = encode_framed_request(request, codec)
    assert decode_request_span(framed, *_only_span(framed)) == request


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_response_roundtrip_every_status(codec, status):
    response = _response(status)
    assert Response.decode(response.encode()) == response
    framed = encode_framed_response(response, codec)
    assert decode_response_span(framed, *_only_span(framed)) == response


def test_zero_length_fields():
    request = Request(op=OpCode.PING)
    assert Request.decode(request.encode()) == request
    response = Response()
    assert Response.decode(response.encode()) == response


def test_maximal_fields():
    big = bytes(range(256)) * 512  # 128 KiB each
    request = Request(
        op=OpCode.INSERT,
        key=big,
        value=big,
        payload=big,
        request_id=2**64 - 1,
        epoch=2**32 - 1,
        partition=2**32 - 1,
        replica_index=2**16 - 1,
        inner_op=int(OpCode.BATCH),
        deadline_us=2**64 - 1,
    )
    assert Request.decode(request.encode()) == request


def test_codec_argument_accepts_only_fixed():
    request, response = _request(OpCode.INSERT), _response(Status.OK)
    assert encode_batch_requests([request], "fixed") == encode_batch_requests([request])
    for encode, message in (
        (encode_framed_request, request),
        (encode_framed_response, response),
        (encode_batch_requests, [request]),
    ):
        with pytest.raises(ValueError):
            encode(message, "varint")


# ---------------------------------------------------------------------------
# One format: everything else is a ProtocolError
# ---------------------------------------------------------------------------

DECODERS = [
    Request.decode,
    Response.decode,
    lambda data: decode_request_span(data, 0, len(data)),
    lambda data: decode_response_span(data, 0, len(data)),
    lambda data: decode_batch_requests(frame(data)),
    lambda data: decode_batch_responses(frame(data)),
    # The field-level parsers the object API and the BATCH path share.
    lambda data: parse_request(data, 0, len(data)),
    lambda data: parse_response(data, 0, len(data)),
    lambda data: parse_batch(parse_request, frame(data)),
    lambda data: parse_batch(parse_response, frame(data)),
]
DECODER_IDS = [
    "Request.decode",
    "Response.decode",
    "decode_request_span",
    "decode_response_span",
    "decode_batch_requests",
    "decode_batch_responses",
    "parse_request",
    "parse_response",
    "parse_batch-requests",
    "parse_batch-responses",
]

#: ``Request(op=INSERT, key=b"k")`` in the retired protobuf-style
#: encoding (tag 1 varint 1, tag 2 bytes "k").
OLD_ENCODING_INSERT = b"\x08\x01\x12\x01k"


@pytest.mark.parametrize("decode", DECODERS, ids=DECODER_IDS)
@pytest.mark.parametrize(
    "message", [OLD_ENCODING_INSERT, b""], ids=["old-encoding", "empty"]
)
def test_old_encoding_and_empty_message_rejected(decode, message):
    with pytest.raises(ProtocolError):
        decode(message)


def _valid_wire() -> list[bytes]:
    messages = [_request(op).encode() for op in (OpCode.INSERT, OpCode.BATCH)]
    messages += [_response(s).encode() for s in (Status.OK, Status.REDIRECT)]
    messages.append(Request(op=OpCode.PING).encode())
    messages.append(encode_batch_requests([_request(OpCode.APPEND)] * 3))
    messages.append(encode_batch_responses([_response(Status.OK)] * 3))
    return messages


def _poke(wire: bytes, offset: int, value: int) -> bytes:
    out = bytearray(wire)
    out[offset] = value
    return bytes(out)


def _malformed() -> dict[str, bytes]:
    """One of each way a header can lie, built from valid messages.  (A
    request header keeps its key length at byte 32, a response header its
    value length at byte 20.)"""
    request = _request(OpCode.INSERT).encode()
    response = _response(Status.OK).encode()
    return {
        "request-header-truncated": request[:43],
        "response-header-truncated": response[:27],
        "request-body-truncated": request[:-1],
        "response-body-truncated": response[:-1],
        "request-trailing-byte": request + b"x",
        "response-trailing-byte": response + b"x",
        "request-bad-magic": _poke(request, 0, 0x00),
        "response-bad-magic": _poke(response, 0, 0x00),
        "request-bad-kind": _poke(request, 1, 9),
        "response-bad-kind": _poke(response, 1, 9),
        "request-key-length-overruns": _poke(request, 32, request[32] + 1),
        "response-value-length-overruns": _poke(response, 20, response[20] + 1),
        "request-unknown-opcode": _poke(request, 2, 255),
        "response-unknown-status": _poke(response, 2, 200),
    }


@pytest.mark.parametrize("decode", DECODERS, ids=DECODER_IDS)
@pytest.mark.parametrize("case", sorted(_malformed()))
def test_malformed_header_rejected_by_every_decoder(decode, case):
    """Object decoders and field parsers refuse the same inputs, with the
    same typed error (a request is also not a response, and vice versa)."""
    with pytest.raises(ProtocolError):
        decode(_malformed()[case])


@st.composite
def _damaged(draw) -> bytes:
    """A valid message or batch payload, bit-flipped and/or truncated."""
    wire = bytearray(draw(st.sampled_from(_valid_wire())))
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(wire) - 1))
        wire[position] ^= 1 << draw(st.integers(0, 7))
    return bytes(wire[: draw(st.integers(0, len(wire)))])


@given(st.one_of(st.binary(max_size=200), _damaged()))
def test_hostile_bytes_raise_only_protocol_error(data):
    """Every decode entry point, fed arbitrary or damaged bytes, returns
    a message or raises ``ProtocolError`` — nothing else escapes."""
    for decode in DECODERS + [decode_batch_requests, decode_batch_responses]:
        try:
            decode(data)
        except ProtocolError:
            pass
    for offset in range(min(len(data), 4) + 1):
        start, end, next_offset = deframe_span(data, offset)
        assert (start, end, next_offset) == (-1, -1, offset) or (
            offset < start <= end == next_offset <= len(data)
        )


# ---------------------------------------------------------------------------
# Torn frames: feed the stream one byte at a time, tear at every offset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("codec", CODECS)
def test_torn_request_frames_at_every_byte_offset(codec):
    requests = [
        _request(OpCode.INSERT),
        Request(op=OpCode.PING),
        _request(OpCode.BATCH, key=b"", value=b"x" * 300),
    ]
    stream = bytearray()
    for request in requests:
        stream += encode_framed_request(request, codec)
    for tear in range(len(stream) + 1):
        buffer = bytearray(stream[:tear])
        decoded = []
        offset = 0
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_request_span(buffer, start, end))
        # Only complete frames decode; nothing raises mid-frame.
        assert decoded == requests[: len(decoded)]
        # Feeding the rest completes the stream.
        buffer += stream[tear:]
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_request_span(buffer, start, end))
        assert decoded == requests


@pytest.mark.parametrize("codec", CODECS)
def test_torn_response_frames_at_every_byte_offset(codec):
    responses = [
        _response(Status.OK),
        Response(),
        _response(Status.REDIRECT),
    ]
    stream = bytearray()
    for response in responses:
        stream += encode_framed_response(response, codec)
    for tear in range(len(stream) + 1):
        buffer = bytearray(stream[:tear])
        offset = 0
        decoded = []
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_response_span(buffer, start, end))
        assert decoded == responses[: len(decoded)]


# ---------------------------------------------------------------------------
# BATCH payloads: length prefixes of every width, and broken ones
# ---------------------------------------------------------------------------


def test_batch_prefixes_of_one_two_and_three_bytes_roundtrip():
    requests = [
        _request(OpCode.INSERT),  # a one-byte prefix
        _request(OpCode.INSERT, value=b"v" * 150),  # two bytes: a ~190-byte sub-request
        _request(OpCode.INSERT, value=b"v" * 20_000),  # three bytes: over 16 KiB
    ]
    payload = encode_batch_requests(requests)
    assert decode_batch_requests(payload) == requests


@pytest.mark.parametrize(
    "tail",
    [
        b"\x85",  # a two-byte prefix cut after its first byte
        b"\x85\x80",  # a third prefix byte promised, then the end
        b"\x85\x01",  # a whole two-byte prefix (133) and no sub-message
        b"\xff" * 10 + b"\x01",  # longer than a 64-bit varint
    ],
    ids=["cut-prefix", "cut-third-byte", "missing-body", "overlong-varint"],
)
def test_batch_with_a_broken_prefix_raises_protocol_error(tail):
    payload = encode_batch_requests([_request(OpCode.INSERT)]) + tail
    with pytest.raises(ProtocolError):
        parse_batch(parse_request, payload)


def test_span_decode_matches_whole_buffer_decode():
    request = _request(OpCode.APPEND)
    framed = encode_framed_request(request, "fixed")
    # Surround with garbage to prove span decoding reads only its slice.
    buffer = bytearray(b"\xff" * 3) + framed + bytearray(b"\xee" * 5)
    start, end, _ = deframe_span(buffer, 3)
    assert decode_request_span(buffer, start, end) == request


def test_corrupt_fixed_header_raises():
    request = _request(OpCode.INSERT)
    wire = bytearray(request.encode())
    wire[2] = 255  # invalid opcode
    with pytest.raises(ProtocolError):
        Request.decode(bytes(wire))
    truncated = request.encode()[:10]
    with pytest.raises(ProtocolError):
        Request.decode(truncated)


def test_frame_compat_with_legacy_frame():
    """encode_framed_* must produce exactly frame(encode()) — the
    one-buffer fast path is an optimization, not a format change."""
    request = _request(OpCode.INSERT)
    response = _response(Status.OK)
    assert bytes(encode_framed_request(request)) == frame(request.encode())
    assert bytes(encode_framed_response(response)) == frame(response.encode())


# ---------------------------------------------------------------------------
# Field-level codec: the bytes of the object encoder it replaced
# ---------------------------------------------------------------------------

_REQ_HEADER = struct.Struct("<BBBBQIIHHQIII")
_RESP_HEADER = struct.Struct("<BBBBQIIII")


def _reference_request(m: Request) -> bytes:
    """``Request.encode`` as it stood before the field packer: the oracle."""
    return (
        _REQ_HEADER.pack(
            0xF7, 0x01, int(m.op), 0, m.request_id, m.epoch, m.partition,
            m.replica_index, m.inner_op, m.deadline_us,
            len(m.key), len(m.value), len(m.payload),
        )
        + m.key + m.value + m.payload
    )


def _reference_response(m: Response) -> bytes:
    return (
        _RESP_HEADER.pack(
            0xF7, 0x02, int(m.status), m.op, m.request_id, m.epoch,
            len(m.value), len(m.redirect), len(m.membership),
        )
        + m.value + m.redirect + m.membership
    )


#: A message's fields in dataclass order: what ``parse_*`` returns.
_fields = dataclasses.astuple

_u16, _u32, _u64 = (st.integers(0, 2**bits - 1) for bits in (16, 32, 64))
_blob = st.binary(max_size=300)
_requests = st.builds(
    Request, op=st.sampled_from(ALL_OPS), key=_blob, value=_blob, request_id=_u64,
    epoch=_u32, partition=_u32, replica_index=_u16, inner_op=_u16, payload=_blob,
    deadline_us=_u64,
)
_responses = st.builds(
    Response, status=st.sampled_from(ALL_STATUSES), value=_blob, request_id=_u64,
    epoch=_u32, redirect=_blob, membership=_blob, op=st.integers(0, 255),
)


@given(st.lists(_requests, max_size=8))
def test_field_packer_writes_the_object_encoders_request_bytes(messages):
    expected = b"".join(frame(_reference_request(m)) for m in messages)
    assert pack_batch(pack_request, [_fields(m) for m in messages]) == expected
    assert encode_batch_requests(messages) == expected
    assert parse_batch(parse_request, expected) == [_fields(m) for m in messages]
    assert decode_batch_requests(expected) == messages
    for m in messages:
        out = bytearray()
        pack_request(out, False, *_fields(m))
        assert bytes(out) == m.encode() == _reference_request(m)
        assert bytes(encode_framed_request(m)) == frame(_reference_request(m))


@given(st.lists(_responses, max_size=8))
def test_field_packer_writes_the_object_encoders_response_bytes(messages):
    expected = b"".join(frame(_reference_response(m)) for m in messages)
    assert pack_batch(pack_response, [_fields(m) for m in messages]) == expected
    assert encode_batch_responses(messages) == expected
    assert parse_batch(parse_response, expected) == [_fields(m) for m in messages]
    assert decode_batch_responses(expected) == messages
    for m in messages:
        out = bytearray()
        pack_response(out, False, *_fields(m))
        assert bytes(out) == m.encode() == _reference_response(m)
        assert bytes(encode_framed_response(m)) == frame(_reference_response(m))


def test_parsed_fields_are_enum_members_and_bytes():
    """The parsers hand out what the dataclasses held: enum members and
    ``bytes``, also out of a mutable receive buffer."""
    buffer = bytearray(_request(OpCode.APPEND).encode())
    fields = parse_request(buffer, 0, len(buffer))
    assert fields[0] is OpCode.APPEND
    assert all(type(fields[i]) is bytes for i in (1, 2, 8))
    buffer = bytearray(_response(Status.REDIRECT).encode())
    fields = parse_response(memoryview(buffer), 0, len(buffer))
    assert fields[0] is Status.REDIRECT
    assert all(type(fields[i]) is bytes for i in (1, 4, 5))
