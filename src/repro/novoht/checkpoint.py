"""Store images: the one way a set of key/value pairs becomes bytes.

A checkpoint file (``novoht.ckpt``), a ``MIGRATE_BEGIN`` reply and a
``MIGRATE_DATA`` payload are the same thing, so a partition transfer
moves the bytes a checkpoint would hold ("migrating a partition is as
easy as moving a file", §III.C).  Layout (little-endian):

    magic      8 bytes  b"NOVOHT\\x03\\x00"
    wal_epoch  u64      epoch of the WAL file the snapshot was cut against
    wal_offset u64      byte offset of the WAL tail at snapshot time
    count      u64      number of records that follow
    crc32      u32      over the 32 bytes above
    records    count ×  ``OP_PUT`` WAL records (:mod:`repro.novoht.wal`)

Each record carries its own CRC and the CRC'd header counts them, so an
image is checked as it streams — a whole-file CRC needs the whole file
in memory first — and a truncation, a flipped bit or an inflated count
all show as fewer whole records than the header names.

``(wal_epoch, wal_offset)`` name the exact log prefix a checkpoint
covers: recovery skips it when the on-disk WAL still carries that epoch
(crash between checkpoint commit and WAL compaction) and replays the
whole log otherwise (the compacted log *is* the uncovered suffix).  This
is what makes it safe to write the snapshot outside the store lock while
mutations keep appending: nothing is ever truncated that the snapshot
did not capture, and nothing captured is ever replayed twice (replaying
covered ``append`` records would duplicate fragments).  An image in
flight between stores names no log: both fields are 0.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import zlib
from typing import BinaryIO, Collection, Iterator

from ..core.errors import StoreError
from .wal import OP_PUT, encode_record_into, iter_records

IMAGE_MAGIC = b"NOVOHT\x03\x00"
_HEADER = struct.Struct("<8sQQQ")
IMAGE_HEADER_LEN = _HEADER.size + 4

#: The file writer empties its record buffer at about this size, so a
#: checkpoint never holds a second copy of the table.
_CHUNK_BYTES = 64 * 1024

Pairs = Iterator[tuple[bytes, bytes]]


def _header(count: int, wal_epoch: int, wal_offset: int) -> bytearray:
    head = bytearray(_HEADER.pack(IMAGE_MAGIC, wal_epoch, wal_offset, count))
    head += struct.pack("<I", zlib.crc32(head))
    return head


def encode_image(pairs: Collection[tuple[bytes, bytes]]) -> bytes:
    """The image of *pairs* as one ``bytes`` (what a transfer carries)."""
    buf = _header(len(pairs), 0, 0)
    for key, value in pairs:
        encode_record_into(buf, OP_PUT, key, value)
    return bytes(buf)


def read_image(f: BinaryIO, what: str = "store image") -> tuple[int, int, Pairs]:
    """``(wal_epoch, wal_offset, pairs)`` of the image *f* is positioned at.

    The header is checked here; *pairs* streams the records in one pass
    and raises :class:`StoreError` unless exactly the counted number of
    whole ``OP_PUT`` records, and nothing else, follows.
    """
    head = f.read(IMAGE_HEADER_LEN)
    if len(head) < IMAGE_HEADER_LEN or not head.startswith(IMAGE_MAGIC):
        raise StoreError(f"corrupt {what}: bad header")
    (crc,) = struct.unpack_from("<I", head, _HEADER.size)
    if zlib.crc32(head[: _HEADER.size]) != crc:
        raise StoreError(f"corrupt {what}: header CRC mismatch")
    _magic, wal_epoch, wal_offset, count = _HEADER.unpack_from(head)

    def pairs() -> Pairs:
        found = 0
        for op, key, value in itertools.islice(iter_records(f), count):
            if op != OP_PUT:
                break
            found += 1
            yield key, value
        if found != count or f.read(1):
            raise StoreError(
                f"corrupt {what}: {found} whole records where the header "
                f"counts {count} (truncated, record CRC mismatch, or trailing bytes)"
            )

    return wal_epoch, wal_offset, pairs()


def write_checkpoint(
    path: str,
    pairs: Collection[tuple[bytes, bytes]],
    *,
    wal_epoch: int = 0,
    wal_offset: int = 0,
) -> int:
    """Write the image of *pairs* to *path*; return the count.  Goes to a
    temp file renamed into place, so a crash leaves the old file intact."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            buf = _header(len(pairs), wal_epoch, wal_offset)
            for key, value in pairs:
                encode_record_into(buf, OP_PUT, key, value)
                if len(buf) >= _CHUNK_BYTES:
                    f.write(buf)
                    del buf[:]
            f.write(buf)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)  # don't leave a half-written .tmp behind
        except OSError:
            pass
        raise StoreError(f"checkpoint write failed: {exc}") from exc
    return len(pairs)


@contextlib.contextmanager
def open_checkpoint(path: str) -> Iterator[tuple[int, int, Pairs]]:
    """:func:`read_image` over the file at *path*, open for the block.

    A missing file is the empty image naming no log.  Anything else that
    is not a whole image raises :class:`StoreError` (a checkpoint is
    written atomically, so unlike the WAL, partial content is a real
    error, not an expected crash artifact).
    """
    if not os.path.exists(path):
        yield 0, 0, iter(())
        return
    try:
        with open(path, "rb") as f:
            yield read_image(f, f"checkpoint {path}")
    except OSError as exc:
        raise StoreError(f"checkpoint read failed: {exc}") from exc


def read_checkpoint(path: str) -> Pairs:
    """Yield all pairs from the checkpoint at *path*."""
    with open_checkpoint(path) as (_wal_epoch, _wal_offset, pairs):
        yield from pairs
