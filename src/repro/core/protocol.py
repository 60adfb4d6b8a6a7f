"""ZHT wire protocol.

The C++ ZHT serializes requests with Google Protocol Buffers: "The
indicators for four basic operations (insert, lookup, remove, and append)
are defined in the message prototype ... They are encapsulated with the
key-value pair into a plain string and transferred through network"
(§III.G).  We carry the same message prototype in one struct-packed
format: a fixed little-endian header (every scalar at a known offset,
then the byte lengths of the variable fields) followed by the field
bytes.  One ``struct.unpack_from`` parses a message straight out of a
receive buffer, and there are no third-party dependencies.

Two message types cover all traffic:

* :class:`Request` — client→server ops (insert/lookup/remove/append) and
  server→server ops (replica updates, partition migration, membership
  broadcast, ping).
* :class:`Response` — status code, optional value, optional redirect
  address, and an optional piggybacked membership delta for the lazy
  client-side membership update.

Stream transports length-prefix each message with a varint
(:func:`frame`); a BATCH payload is a run of such frames.  A prefix that
runs past ten bytes (a 64-bit varint) can never become a frame:
:func:`frame_prefix` raises :class:`ProtocolError` for it, and a stream
reader drops the connection instead of waiting for bytes that cannot
help.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from ..novoht.wal import encode_varint
from .errors import ProtocolError, Status

#: First byte of every message; anything else is rejected before a
#: single field is trusted.
FIXED_MAGIC = 0xF7

_KIND_REQUEST = 0x01
_KIND_RESPONSE = 0x02
#: The magic and kind bytes read as the one little-endian u16 the headers
#: below start with: a header is checked with one comparison.
_REQ_TAG = FIXED_MAGIC | _KIND_REQUEST << 8
_RESP_TAG = FIXED_MAGIC | _KIND_RESPONSE << 8

#: Request header: magic and kind (the tag), op, flags (reserved, sent as
#: 0 — the extension point for future format changes), request_id u64,
#: epoch u32, partition u32, replica_index u16, inner_op u16, deadline_us
#: u64, then key/value/payload byte lengths (u32 each).
_REQ_HEADER = struct.Struct("<HBBQIIHHQIII")

#: Response header: magic and kind (the tag), status, op, request_id u64,
#: epoch u32, then value/redirect/membership byte lengths (u32 each).
_RESP_HEADER = struct.Struct("<HBBQIIII")

#: Bytes a BATCH request adds around its payload — what the client's
#: planner subtracts from a transport's datagram limit.
BATCH_REQUEST_OVERHEAD = _REQ_HEADER.size

_REQ_HEADER_SIZE, _RESP_HEADER_SIZE = _REQ_HEADER.size, _RESP_HEADER.size
#: The length prefix of every message shorter than 2 KiB, by length: a
#: packer appends one of these instead of encoding the varint.
_SHORT_PREFIXES = tuple(encode_varint(n) for n in range(0x800))


class OpCode(enum.IntEnum):
    """Operation indicators, as defined in the ZHT message prototype."""

    # Client-facing operations (§III.A).
    INSERT = 1
    LOOKUP = 2
    REMOVE = 3
    APPEND = 4
    # Server-to-server operations.
    REPLICA_UPDATE = 10
    MIGRATE_BEGIN = 11
    MIGRATE_DATA = 12
    MIGRATE_COMMIT = 13
    MEMBERSHIP_UPDATE = 14
    PING = 15
    #: Ask a server for its full membership table (bootstrap / lazy update).
    GET_MEMBERSHIP = 16
    #: Spanning-tree dissemination of a key/value pair to ALL instances
    #: (the paper's §VI future-work "broadcast primitive").
    BROADCAST = 17
    #: Read a broadcast pair from the receiving instance's local store.
    LOOKUP_LOCAL = 18
    #: Dump the serving process's metrics-registry snapshot as JSON
    #: (counters + latency percentiles; see :mod:`repro.obs`).
    STATS = 19
    #: N framed sub-requests in one message; the response carries one
    #: framed sub-response per sub-request (per-key statuses).  Batches
    #: are planned per owning instance by the client (zero-hop routing
    #: means the client already knows every key's owner), so one BATCH
    #: costs one round trip regardless of how many keys it carries.
    BATCH = 20


#: Ops that mutate state (drive WAL writes and replication).
MUTATING_OPS = frozenset(
    {OpCode.INSERT, OpCode.REMOVE, OpCode.APPEND, OpCode.REPLICA_UPDATE}
)

#: Ops that must NOT drive replication.  Every OpCode member belongs to
#: exactly one of these two sets — the protocol-exhaustiveness checker
#: (``python -m repro lint``) and tests/test_protocol_exhaustive.py both
#: enforce the partition, so a new opcode cannot ship without an
#: explicit replication decision.  Notes on the less obvious members:
#: MIGRATE_* move whole partitions (their effects replicate when the
#: new owner's chain applies them), BROADCAST writes only node-local
#: broadcast stores, and BATCH is a carrier — its sub-requests are
#: served by the same per-partition path as point ops.
NON_MUTATING_OPS = frozenset(
    {
        OpCode.LOOKUP,
        OpCode.MIGRATE_BEGIN,
        OpCode.MIGRATE_DATA,
        OpCode.MIGRATE_COMMIT,
        OpCode.MEMBERSHIP_UPDATE,
        OpCode.PING,
        OpCode.GET_MEMBERSHIP,
        OpCode.BROADCAST,
        OpCode.LOOKUP_LOCAL,
        OpCode.STATS,
        OpCode.BATCH,
    }
)

#: Wire byte -> member: what "known opcode" / "known status" means to the
#: parsers (a dict probe; the enum constructor costs ten times as much).
_OPCODES = {int(op): op for op in OpCode}
_STATUSES = {int(status): status for status in Status}


@dataclass
class Request:
    """One ZHT request message."""

    op: OpCode
    key: bytes = b""
    value: bytes = b""
    #: Monotonic per-client id for matching responses and deduplicating
    #: UDP retransmits.
    request_id: int = 0
    #: Sender's membership epoch; lets servers detect stale clients (and
    #: clients detect stale servers).
    epoch: int = 0
    #: Explicit partition index for server-to-server partition ops.
    partition: int = 0
    #: Replica chain depth for REPLICA_UPDATE fan-out (primary = 0).
    replica_index: int = 0
    #: Sub-operation carried by a REPLICA_UPDATE (an OpCode value).
    inner_op: int = 0
    #: Opaque payload for membership/migration messages.
    payload: bytes = b""
    #: Absolute wall-clock deadline in microseconds since the epoch; 0
    #: means "no deadline".  Servers shed requests that arrive already
    #: expired instead of doing work the client has given up on.
    deadline_us: int = 0

    def encoded_size(self) -> int:
        return _REQ_HEADER.size + len(self.key) + len(self.value) + len(self.payload)

    def _encode_into(self, out: bytearray, framed: bool = False) -> None:
        """Append the encoding of this request to *out*."""
        pack_request(out, framed, *request_fields(self))

    def encode(self) -> bytes:
        out = bytearray()
        self._encode_into(out)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Request":
        return cls(*parse_request(data, 0, len(data)))


#: A :class:`Request`'s fields as the tuple :func:`parse_request` returns,
#: in one C call: how a point request joins the code that serves BATCH subs.
request_fields = attrgetter(*(field.name for field in dataclasses.fields(Request)))


@dataclass
class Response:
    """One ZHT response message."""

    status: Status = Status.OK
    value: bytes = b""
    request_id: int = 0
    #: Server's membership epoch (clients refresh when it is newer).
    epoch: int = 0
    #: For REDIRECT: serialized address of the instance now owning the key.
    redirect: bytes = b""
    #: Piggybacked serialized membership table/delta (lazy client update:
    #: "the ZHT instance will send back a copy of latest membership table").
    membership: bytes = b""
    #: Echo of the request's op code (an :class:`OpCode` value).  Lets
    #: datagram clients reject a late response to an *earlier* operation
    #: that happens to share a request id; 0 means "not echoed", which
    #: clients treat as a wildcard for reads only.
    op: int = 0

    def encoded_size(self) -> int:
        return _RESP_HEADER.size + len(self.value) + len(self.redirect) + len(self.membership)

    def _encode_into(self, out: bytearray, framed: bool = False) -> None:
        """Append the encoding of this response to *out*."""
        pack_response(out, framed, *response_fields(self))

    def encode(self) -> bytes:
        out = bytearray()
        self._encode_into(out)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Response":
        return cls(*parse_response(data, 0, len(data)))


#: A :class:`Response`'s fields in :func:`parse_response` order, in one C call.
response_fields = attrgetter(*(field.name for field in dataclasses.fields(Response)))


# ---------------------------------------------------------------------------
# Field-level codec: one parser and one packer per message kind
# ---------------------------------------------------------------------------
#
# A message on the wire is its fields; the dataclasses above are one way
# to hold them.  ``parse_*`` checks a header and returns the fields as a
# tuple in the dataclass's field order (so ``Request(*fields)`` is the
# object form), ``pack_*`` appends a message built from fields.  The
# object API below and the BATCH hot path (which never builds a per-key
# object) both end here.  Servers parse straight out of a connection's
# accumulating receive buffer — no per-message ``bytes`` copy of the span
# — but field payloads are materialised as ``bytes``: the buffer is
# compacted after dispatch, so no view into it may outlive the call.


def parse_request(buf: bytes | bytearray | memoryview, start: int, end: int) -> tuple:
    """Check the request in ``buf[start:end]``; return ``(op, key, value,
    request_id, epoch, partition, replica_index, inner_op, payload,
    deadline_us)``."""
    if end - start < _REQ_HEADER_SIZE:
        raise ProtocolError("request header truncated")
    (
        tag, op_raw, _flags, request_id, epoch, partition,
        replica_index, inner_op, deadline_us, klen, vlen, plen,
    ) = _REQ_HEADER.unpack_from(buf, start)
    if tag != _REQ_TAG:
        raise ProtocolError(f"not a request (magic 0x{tag & 0xFF:02x}, kind {tag >> 8})")
    ko = start + _REQ_HEADER_SIZE
    vo = ko + klen
    po = vo + vlen
    if po + plen != end:
        raise ProtocolError("request field lengths overrun frame")
    op = _OPCODES.get(op_raw)
    if op is None:
        raise ProtocolError(f"unknown opcode {op_raw}")
    # An empty field costs no slice (a lookup carries no value, and no
    # point op a payload).
    return (
        op, bytes(buf[ko:vo]), bytes(buf[vo:po]) if vlen else b"", request_id, epoch,
        partition, replica_index, inner_op, bytes(buf[po:end]) if plen else b"",
        deadline_us,
    )


def pack_request(
    out: bytearray, framed: bool, op: int, key: bytes = b"", value: bytes = b"",
    request_id: int = 0, epoch: int = 0, partition: int = 0, replica_index: int = 0,
    inner_op: int = 0, payload: bytes = b"", deadline_us: int = 0,
) -> None:
    """Append one request to *out*, length-prefixed when *framed*."""
    klen, vlen, plen = len(key), len(value), len(payload)
    if framed:
        size = _REQ_HEADER_SIZE + klen + vlen + plen
        out += _SHORT_PREFIXES[size] if size < 0x800 else encode_varint(size)
    out += _REQ_HEADER.pack(
        _REQ_TAG, op, 0, request_id, epoch, partition, replica_index, inner_op,
        deadline_us, klen, vlen, plen,
    )
    out += key
    out += value
    out += payload


def parse_response(buf: bytes | bytearray | memoryview, start: int, end: int) -> tuple:
    """Check the response in ``buf[start:end]``; return ``(status, value,
    request_id, epoch, redirect, membership, op)``."""
    if end - start < _RESP_HEADER_SIZE:
        raise ProtocolError("response header truncated")
    tag, status_raw, op, request_id, epoch, vlen, rlen, mlen = (
        _RESP_HEADER.unpack_from(buf, start)
    )
    if tag != _RESP_TAG:
        raise ProtocolError(f"not a response (magic 0x{tag & 0xFF:02x}, kind {tag >> 8})")
    vo = start + _RESP_HEADER_SIZE
    ro = vo + vlen
    mo = ro + rlen
    if mo + mlen != end:
        raise ProtocolError("response field lengths overrun frame")
    status = _STATUSES.get(status_raw)
    if status is None:
        raise ProtocolError(f"unknown status {status_raw}")
    # An empty field costs no slice (most replies carry no redirect and
    # no membership table).
    return (
        status, bytes(buf[vo:ro]) if vlen else b"", request_id, epoch,
        bytes(buf[ro:mo]) if rlen else b"", bytes(buf[mo:end]) if mlen else b"", op,
    )


def pack_response(
    out: bytearray, framed: bool, status: int, value: bytes = b"", request_id: int = 0,
    epoch: int = 0, redirect: bytes = b"", membership: bytes = b"", op: int = 0,
) -> None:
    """Append one response to *out*, length-prefixed when *framed*."""
    vlen, rlen, mlen = len(value), len(redirect), len(membership)
    if framed:
        size = _RESP_HEADER_SIZE + vlen + rlen + mlen
        out += _SHORT_PREFIXES[size] if size < 0x800 else encode_varint(size)
    out += _RESP_HEADER.pack(_RESP_TAG, status, op, request_id, epoch, vlen, rlen, mlen)
    out += value
    out += redirect
    out += membership


def decode_request_span(
    buf: bytes | bytearray | memoryview, start: int, end: int
) -> Request:
    """Decode one request from ``buf[start:end]`` without copying the span."""
    return Request(*parse_request(buf, start, end))


def decode_response_span(
    buf: bytes | bytearray | memoryview, start: int, end: int
) -> Response:
    """Decode one response from ``buf[start:end]`` without copying the span."""
    return Response(*parse_response(buf, start, end))


def encode_framed_request(request: Request, codec: str = "fixed") -> bytearray:
    """Length-prefix-frame *request* into a single freshly built buffer."""
    # codec: frozen benchmarks/ledger/ passes a literal "fixed"; leaves with the next benchmark PR.
    if codec != "fixed":
        raise ValueError(f"unknown wire codec {codec!r}")
    out = bytearray()
    pack_request(out, True, *request_fields(request))
    return out


def encode_framed_response(response: Response, codec: str = "fixed") -> bytearray:
    """Length-prefix-frame *response* into a single freshly built buffer."""
    # codec: as for encode_framed_request; leaves with the next benchmark PR.
    if codec != "fixed":
        raise ValueError(f"unknown wire codec {codec!r}")
    out = bytearray()
    pack_response(out, True, *response_fields(response))
    return out


def frame(message: bytes) -> bytes:
    """Length-prefix *message* for stream transports (TCP)."""
    return encode_varint(len(message)) + message


def framed_request_size(key: bytes, value: bytes) -> int:
    """Bytes a client sub-request for *key* / *value* occupies in a BATCH
    payload, computed without encoding it."""
    body = _REQ_HEADER.size + len(key) + len(value)
    return len(encode_varint(body)) + body


def deframe_at(buffer: "bytes | bytearray | memoryview", offset: int) -> tuple[bytes | None, int]:
    """Extract one framed message from *buffer* starting at *offset*.

    Returns ``(message, next_offset)`` without copying the remainder;
    ``message`` is ``None`` (and ``next_offset == offset``) when the
    buffer does not yet hold a complete frame.  *buffer* may be ``bytes``
    or a ``bytearray`` that keeps accumulating between calls.
    """
    start, end, offset = deframe_span(buffer, offset)
    if start < 0:
        return None, offset
    return bytes(buffer[start:end]), offset


def deframe_span(
    buffer: "bytes | bytearray | memoryview", offset: int
) -> tuple[int, int, int]:
    """Locate one framed message in *buffer* starting at *offset*.

    Returns ``(start, end, next_offset)`` — the message occupies
    ``buffer[start:end]`` and is *not* copied, so callers can decode it
    in place (:func:`decode_request_span`) before compacting the buffer.
    When the buffer does not yet hold a complete frame, returns
    ``(-1, -1, offset)``; so it does for a malformed prefix, which only
    :func:`frame_prefix` tells apart — a reader of a live stream calls
    that, since no byte still to come turns such a prefix into a frame.
    """
    try:
        length, pos = frame_prefix(buffer, offset)
    except ProtocolError:
        return -1, -1, offset
    end = pos + length
    if length < 0 or end > len(buffer):
        return -1, -1, offset
    return pos, end, end


def frame_prefix(buffer: "bytes | bytearray | memoryview", offset: int) -> tuple[int, int]:
    """The length prefix of the frame at *offset*: ``(length, start of
    the message)``, or ``(-1, offset)`` while the buffer ends inside the
    prefix.  Raises :class:`ProtocolError` for a prefix longer than a
    64-bit varint.  Stream readers decode the one- and two-byte prefixes
    inline and call this for the rest."""
    result = shift = 0
    end = len(buffer)
    pos = offset
    while pos < end:
        byte = buffer[pos]
        pos += 1
        if byte < 0x80:
            return result | byte << shift, pos
        result |= (byte & 0x7F) << shift
        shift += 7
        if shift > 63:
            raise ProtocolError("frame length prefix longer than a 64-bit varint")
    return -1, offset


# ---------------------------------------------------------------------------
# BATCH payloads: framed sub-messages, in order
# ---------------------------------------------------------------------------


def pack_batch(pack: Callable[..., None], subs: "list[tuple]") -> bytes:
    """A BATCH payload from field tuples: ``pack(out, True, *fields)`` for
    each (*pack* is :func:`pack_request` or :func:`pack_response`)."""
    out = bytearray()
    for fields in subs:
        pack(out, True, *fields)
    return bytes(out)


def parse_batch(parse: Callable[[bytes, int, int], tuple], payload: bytes) -> list[tuple]:
    """The field tuples of a BATCH payload's sub-messages, in order
    (*parse* is :func:`parse_request` or :func:`parse_response`)."""
    subs: list[tuple] = []
    offset, size = 0, len(payload)
    while offset < size:
        # The length prefix, inline for sub-messages up to 16 KiB.
        length = payload[offset]
        start = offset + 1
        if length >= 0x80:
            if start < size and payload[start] < 0x80:
                length = length & 0x7F | payload[start] << 7
                start += 1
            else:
                length, start = frame_prefix(payload, offset)
                if length < 0:
                    raise ProtocolError("truncated length inside batch payload")
        offset = start + length
        if offset > size:
            raise ProtocolError("truncated frame inside batch payload")
        subs.append(parse(payload, start, offset))
    return subs


def _encode_batch(messages: "list[Request] | list[Response]") -> bytes:
    out = bytearray()
    for message in messages:
        message._encode_into(out, True)
    return bytes(out)


def encode_batch_requests(requests: list[Request], codec: str = "fixed") -> bytes:
    """Pack sub-requests into a BATCH request payload."""
    # codec: as for encode_framed_request; leaves with the next benchmark PR.
    if codec != "fixed":
        raise ValueError(f"unknown wire codec {codec!r}")
    return _encode_batch(requests)


def decode_batch_requests(payload: bytes) -> list[Request]:
    return [Request(*fields) for fields in parse_batch(parse_request, payload)]


def encode_batch_responses(responses: list[Response]) -> bytes:
    """Pack per-key sub-responses into a BATCH response value
    (positionally matching the request's sub-requests)."""
    return _encode_batch(responses)


def decode_batch_responses(payload: bytes) -> list[Response]:
    return [Response(*fields) for fields in parse_batch(parse_response, payload)]
