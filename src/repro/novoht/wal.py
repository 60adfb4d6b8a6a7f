"""Write-ahead log for NoVoHT.

NoVoHT "uses a log-based persistence mechanism with periodic
checkpointing" (§III.I).  Every mutation (put/remove/append) is appended
to this log before being applied in memory; recovery replays the log on
top of the most recent checkpoint.

Record wire format (little-endian):

    magic   u8   = 0xA7
    op      u8   (PUT=1, REMOVE=2, APPEND=3)
    klen    varint
    vlen    varint (0 for REMOVE)
    key     klen bytes
    value   vlen bytes
    crc32   u32  over everything above

A torn final record (power loss mid-append) fails either the magic, the
length decode, or the CRC, and replay stops cleanly at the last complete
record — this is exercised by the failure-injection tests.

The log file opens with a small **epoch header**::

    magic   5 bytes  b"ZWAL\\x01"
    epoch   u64le    bumped by every compaction
    crc32   u32      over magic + epoch

The epoch lets a checkpoint name the exact log prefix it covers
(``wal_epoch`` + byte offset): recovery replays only the uncovered
suffix when the epochs match, and falls back to a full replay when the
log was compacted after the checkpoint committed (the compacted log *is*
the uncovered suffix).  Headerless files (epoch 0) from earlier versions
replay unchanged.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib
from typing import BinaryIO, Callable, Iterator

from ..core.errors import StoreError
from ..obs import NULL_SPAN, REGISTRY

RECORD_MAGIC = 0xA7

#: First byte 0x5A ≠ RECORD_MAGIC, so a headerless parser never mistakes
#: the header for a record (and vice versa).
WAL_HEADER_MAGIC = b"ZWAL\x01"
WAL_HEADER_LEN = len(WAL_HEADER_MAGIC) + 8 + 4


def encode_wal_header(epoch: int) -> bytes:
    body = WAL_HEADER_MAGIC + struct.pack("<Q", epoch)
    return body + struct.pack("<I", zlib.crc32(body))


def decode_wal_header(buf: bytes) -> int | None:
    """Return the epoch encoded in *buf*'s first bytes, or ``None`` if
    *buf* does not start with a valid header (legacy or torn file)."""
    if len(buf) < WAL_HEADER_LEN or not buf.startswith(WAL_HEADER_MAGIC):
        return None
    body = buf[: WAL_HEADER_LEN - 4]
    (crc,) = struct.unpack_from("<I", buf, WAL_HEADER_LEN - 4)
    if zlib.crc32(body) != crc:
        return None
    (epoch,) = struct.unpack_from("<Q", buf, len(WAL_HEADER_MAGIC))
    return epoch

OP_PUT = 1
OP_REMOVE = 2
OP_APPEND = 3

_OPS = (OP_PUT, OP_REMOVE, OP_APPEND)


def encode_varint(n: int) -> bytes:
    """LEB128 unsigned varint, as used by protocol buffers."""
    if n < 0x80:
        if n < 0:
            raise ValueError("varint must be non-negative")
        return bytes((n,))
    if n < 0x4000:  # every frame up to 16 KiB
        return bytes((n & 0x7F | 0x80, n >> 7))
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at *offset*; return ``(value, next_offset)``."""
    result = shift = 0
    end = len(data)
    while offset < end:
        byte = data[offset]
        offset += 1
        if byte < 0x80:
            return result | byte << shift, offset
        result |= (byte & 0x7F) << shift
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")
    raise ValueError("truncated varint")


def encode_record_into(
    buf: bytearray, op: int, key: bytes, value: bytes = b""
) -> None:
    """Append one WAL record (with trailing CRC) to *buf* in place.

    The zero-copy sibling of :func:`encode_record`: no intermediate
    ``bytes`` objects are built per record — the CRC is computed over a
    ``memoryview`` of the appended region.  Wire format is identical.
    """
    if op not in _OPS:
        raise ValueError(f"unknown WAL op {op}")
    start = len(buf)
    klen, vlen = len(key), len(value)
    if klen < 0x80 and vlen < 0x80:
        # Fast path: single-byte varints (identical wire format).
        buf += bytes((RECORD_MAGIC, op, klen, vlen))
    else:
        buf += bytes((RECORD_MAGIC, op))
        buf += encode_varint(klen)
        buf += encode_varint(vlen)
    buf += key
    buf += value
    crc = zlib.crc32(memoryview(buf)[start:])
    buf += struct.pack("<I", crc)


def encode_record(op: int, key: bytes, value: bytes = b"") -> bytes:
    """Serialize one WAL record, including its trailing CRC."""
    buf = bytearray()
    encode_record_into(buf, op, key, value)
    return bytes(buf)


def iter_records(f: BinaryIO) -> Iterator[tuple[int, bytes, bytes]]:
    """Yield ``(op, key, value)`` for every complete record in *f*.

    Stops silently at the first torn or corrupt record — everything before
    it is valid, matching log-recovery semantics — and leaves *f* just
    past the last record yielded.
    """
    while True:
        # magic + op + two varints of at most 10 bytes each
        head = f.read(22)
        if len(head) < 2 or head[0] != RECORD_MAGIC or head[1] not in _OPS:
            return
        try:
            klen, pos = decode_varint(head, 2)
            vlen, pos = decode_varint(head, pos)
        except ValueError:
            return
        end = pos + klen + vlen
        extra = end + 4 - len(head)
        if extra > 0:
            record = head + f.read(extra)
        else:
            record = head
            f.seek(extra, os.SEEK_CUR)  # over-read into the next record
        if len(record) < end + 4:
            return
        (crc,) = struct.unpack_from("<I", record, end)
        if zlib.crc32(memoryview(record)[:end]) != crc:
            return
        yield head[1], record[pos : pos + klen], record[pos + klen : end]


#: WAL counters (``wal.<field>`` process totals, summed over every log).
WAL_COUNTERS = ("appends", "fsyncs", "group_commits", "group_commit_records")


class WriteAheadLog:
    """Append-only mutation log with replay and compaction support.

    ``opener`` customises how the append handle is opened — the fault
    injection shim (:mod:`repro.faults.files`) uses it to wrap the file
    and simulate fsync loss and torn tails; ``None`` is plain ``open``.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = False,
        opener: "Callable[[str, str], BinaryIO] | None" = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._opener = opener
        self._file: BinaryIO | None = None
        #: Number of records appended since open/compaction (live + dead).
        self.record_count = 0
        #: Epoch of the current log file (0 = legacy headerless file).
        self.epoch = 0
        #: Set by the first write/flush/fsync error; see :meth:`_write`.
        self.failed = False
        self.stats = REGISTRY.counter_set("wal", WAL_COUNTERS)
        #: The write counters: a log's writes are serialized by its owner
        #: (a store appends under its lock), so they bump one cell in place.
        self._counts = self.stats.owned_cells()

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> None:
        """Open (creating if needed) the log for appending.

        A brand-new (empty) log gets an epoch header; an existing file
        keeps whatever epoch it carries (0 for legacy headerless logs).
        """
        if self._file is not None:
            return
        try:
            if self._opener is not None:
                self._file = self._opener(self.path, "ab")
            else:
                self._file = open(self.path, "ab")
            if os.path.getsize(self.path) == 0:
                self.epoch = self.epoch + 1 if self.epoch else 1
                self._file.write(encode_wal_header(self.epoch))
                self._file.flush()
            else:
                with open(self.path, "rb") as f:
                    self.epoch = decode_wal_header(f.read(WAL_HEADER_LEN)) or 0
        except OSError as exc:
            raise StoreError(f"cannot open WAL {self.path}: {exc}") from exc

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def is_open(self) -> bool:
        return self._file is not None

    # -- writing -------------------------------------------------------------

    def append(self, op: int, key: bytes, value: bytes = b"") -> None:
        """Durably append one mutation record."""
        self._write(encode_record(op, key, value), 1)

    def append_many(self, records: list[tuple[int, bytes, bytes]]) -> None:
        """Durably append *records* with ONE write/flush/fsync (group
        commit).

        Each record is individually CRC-framed, so a torn tail inside the
        group drops only the incomplete suffix on replay — durability
        semantics are identical to per-record appends, but a batch of N
        mutations pays one fsync instead of N.
        """
        if not records:
            return
        buf = bytearray()
        for op, key, value in records:
            encode_record_into(buf, op, key, value)
        self._write(buf, len(records))
        counts = self._counts
        counts["group_commits"] += 1
        counts["group_commit_records"] += len(records)

    def _write(self, data: bytes | bytearray, records: int) -> None:
        """One write + flush (+ fsync) of *records* whole records.

        An error may leave a torn record in the log, and replay stops
        at the first torn record: anything appended behind it would be
        acknowledged and then lost.  So the first error is final — the
        log is :attr:`failed` and takes no further appends; a fresh
        instance over the same file starts from what replay can read.
        """
        if self._file is None:
            raise StoreError("WAL is not open")
        if self.failed:
            raise StoreError("WAL failed on an earlier write")
        with REGISTRY.span("wal.append") if REGISTRY.enabled else NULL_SPAN:
            try:
                self._file.write(data)
                self._file.flush()
                if self.fsync:
                    self._fsync()
                    self._counts["fsyncs"] += 1
            except OSError as exc:
                self.failed = True
                raise StoreError(f"WAL append failed: {exc}") from exc
        self.record_count += records
        self._counts["appends"] += records

    def _fsync(self) -> None:
        # Files providing their own fsync (the fault-injection shim, which
        # may deliberately lose the sync) override the os-level call.
        fsync = getattr(self._file, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            os.fsync(self._file.fileno())

    # -- recovery / compaction ------------------------------------------------

    def replay(
        self, covered: tuple[int, int] = (0, 0)
    ) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield all complete records currently in the log file.

        Streams straight off the file — records are never materialized as
        a list, so replaying a large un-checkpointed log costs O(1) extra
        memory instead of doubling the peak during recovery.
        ``record_count`` is updated as records are consumed.  A replay
        that runs to the end of a log not open for appending also trims
        a torn or corrupt tail off the file.

        ``covered`` is the ``(epoch, byte offset)`` a checkpoint names
        (from :meth:`tail_position`): while the file still carries that
        epoch the prefix up to the offset is skipped.  A start past EOF
        yields nothing (the un-covered suffix was lost to a crash before
        it was synced).
        """
        self.record_count = 0
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as f:
            head = f.read(WAL_HEADER_LEN)
            epoch = decode_wal_header(head)
            self.epoch = epoch or 0
            if epoch is None:
                f.seek(0)
            elif epoch == covered[0] and covered[1] > f.tell():
                f.seek(covered[1])
            end = f.tell()
            for record in iter_records(f):
                end = f.tell()
                self.record_count += 1
                yield record
        if self._file is None and end < os.path.getsize(self.path):
            # Cut off what follows the last complete record before the
            # log is appended to again: replay will always stop there,
            # so a record written behind it could never be read back.
            os.truncate(self.path, end)

    def tail_position(self) -> tuple[int, int, int]:
        """``(epoch, byte_offset, record_count)`` of the current log tail.

        The caller must hold whatever lock serializes appends; the
        returned offset is then a stable record boundary naming the
        prefix that a snapshot taken at the same moment covers.
        """
        if self._file is not None:
            self._file.flush()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return self.epoch, size, self.record_count

    def drop_covered(self, upto_offset: int, covered_records: int) -> None:
        """Drop the log prefix up to *upto_offset*, keeping the suffix.

        This is the commit step of a non-blocking checkpoint: the prefix
        is covered by the snapshot that just landed, while the suffix
        holds mutations that raced with the (unlocked) snapshot write and
        must survive.  The suffix is spliced after a fresh header (epoch
        + 1) in a side file and atomically renamed, so a crash at any
        point keeps either the old full log (epoch still matching the
        new checkpoint's covered prefix) or the new suffix-only log.

        The caller must hold the lock that serializes appends — the
        splice is bounded by the handful of records that landed during
        the snapshot write, not the table size.
        """
        if self._file is not None:
            self._file.flush()
        tmp = self.path + ".gc"
        new_epoch = self.epoch + 1
        try:
            with open(tmp, "wb") as out:
                out.write(encode_wal_header(new_epoch))
                with open(self.path, "rb") as src:
                    src.seek(upto_offset)
                    shutil.copyfileobj(src, out)
                out.flush()
                os.fsync(out.fileno())
        except OSError as exc:
            try:
                os.unlink(tmp)  # failed splice must not leave a .gc corpse
            except OSError:
                pass
            raise StoreError(f"WAL compaction failed: {exc}") from exc
        self.close()
        os.replace(tmp, self.path)
        self.epoch = new_epoch
        self.record_count = max(0, self.record_count - covered_records)
        self.open()

    def size_bytes(self) -> int:
        if self._file is not None:
            self._file.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
