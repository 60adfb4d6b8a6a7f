"""KyotoCabinet-HashDB-like disk-resident hash store (Figure 6 baseline).

The paper rejected KyotoCabinet for NoVoHT because it is "disk-based and
any lookup must hit disk" (§III.I).  This reproduces that design point: a
fixed on-disk bucket array with chained records, where **every**
get/put/remove performs file I/O (only the bucket heads are cached in
the OS page cache, which we deliberately bypass with explicit seeks).

On-disk layout:

    header:  b"KCHD" + u32 bucket_count
    buckets: bucket_count x u64 offset of first record (0 = empty)
    records: [u64 next_offset][u8 alive][u32 klen][u32 vlen][key][value]

Removes tombstone records in place; overwrites append a fresh record and
relink the chain head (space is reclaimed only by :meth:`compact`), the
same log-structured trade-off real HashDBs make.
"""

from __future__ import annotations

import os
import struct

from ..core.errors import KeyNotFound, StoreError
from ..core.hashing import fnv1a_64

_HEADER = b"KCHD"
_BUCKET_FMT = "<Q"
_REC_FIXED = struct.Struct("<QBII")


class DiskHashDB:
    """A persistent hash table whose operations always touch disk."""

    def __init__(self, path: str, *, bucket_count: int = 1 << 14):
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        self.path = path
        self.bucket_count = bucket_count
        exists = os.path.exists(path)
        try:
            self._file = open(path, "r+b" if exists else "w+b")
        except OSError as exc:
            raise StoreError(f"cannot open {path}: {exc}") from exc
        try:
            if exists:
                self._load_header()
            else:
                self._init_file()
            self._count = self._scan_count() if exists else 0
        except BaseException:
            self._file.close()
            raise

    # -- file structure ----------------------------------------------------

    def _init_file(self) -> None:
        self._file.write(_HEADER + struct.pack("<I", self.bucket_count))
        self._file.write(b"\x00" * 8 * self.bucket_count)
        self._file.flush()

    def _load_header(self) -> None:
        self._file.seek(0)
        magic = self._file.read(4)
        if magic != _HEADER:
            raise StoreError(f"{self.path} is not a DiskHashDB file")
        (self.bucket_count,) = struct.unpack("<I", self._file.read(4))

    def _bucket_offset(self, key: bytes) -> int:
        index = fnv1a_64(key) % self.bucket_count
        return 8 + index * 8

    def _read_bucket_head(self, key: bytes) -> int:
        self._file.seek(self._bucket_offset(key))
        (head,) = struct.unpack(_BUCKET_FMT, self._file.read(8))
        return head

    def _write_bucket_head(self, key: bytes, offset: int) -> None:
        self._file.seek(self._bucket_offset(key))
        self._file.write(struct.pack(_BUCKET_FMT, offset))

    def _read_record(self, offset: int) -> tuple[int, bool, bytes, bytes]:
        self._file.seek(offset)
        fixed = self._file.read(_REC_FIXED.size)
        if len(fixed) < _REC_FIXED.size:
            raise StoreError("truncated record")
        next_off, alive, klen, vlen = _REC_FIXED.unpack(fixed)
        key = self._file.read(klen)
        value = self._file.read(vlen)
        return next_off, bool(alive), key, value

    def _append_record(
        self, next_off: int, key: bytes, value: bytes
    ) -> int:
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        self._file.write(
            _REC_FIXED.pack(next_off, 1, len(key), len(value)) + key + value
        )
        return offset

    def _scan_count(self) -> int:
        count = 0
        data_start = 8 + 8 * self.bucket_count
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        offset = data_start
        while offset < end:
            next_off, alive, key, value = self._read_record(offset)
            # Records are contiguous; chain offsets do not affect the scan.
            if alive:
                count += 1
            offset += _REC_FIXED.size + len(key) + len(value)
        return count

    # -- operations --------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert/overwrite; the new record becomes the chain head."""
        # Tombstone any existing live record for the key first.
        existed = self._kill(key)
        head = self._read_bucket_head(key)
        offset = self._append_record(head, key, value)
        self._write_bucket_head(key, offset)
        self._file.flush()
        if not existed:
            self._count += 1

    def get(self, key: bytes) -> bytes:
        offset = self._read_bucket_head(key)
        while offset:
            next_off, alive, rkey, value = self._read_record(offset)
            if alive and rkey == key:
                return value
            offset = next_off
        raise KeyNotFound(repr(key))

    def remove(self, key: bytes) -> None:
        if not self._kill(key):
            raise KeyNotFound(repr(key))
        self._file.flush()
        self._count -= 1

    def append(self, key: bytes, value: bytes) -> None:
        """Read-modify-write (no native append — Table 1's "No")."""
        try:
            old = self.get(key)
        except KeyNotFound:
            old = b""
        self.put(key, old + value)

    def _kill(self, key: bytes) -> bool:
        offset = self._read_bucket_head(key)
        while offset:
            next_off, alive, rkey, _value = self._read_record(offset)
            if alive and rkey == key:
                self._file.seek(offset + 8)  # the alive byte
                self._file.write(b"\x00")
                return True
            offset = next_off
        return False

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: bytes) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFound:
            return False

    def items(self):
        """All live pairs (sequential file scan)."""
        data_start = 8 + 8 * self.bucket_count
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        offset = data_start
        out = []
        while offset < end:
            _next, alive, key, value = self._read_record(offset)
            if alive:
                out.append((key, value))
            offset += _REC_FIXED.size + len(key) + len(value)
        # A key overwritten many times has one live head record and dead
        # ancestors; the scan only returns the live ones.
        return out

    def compact(self) -> None:
        """Rewrite the file with only live records."""
        pairs = self.items()
        self._file.close()
        os.remove(self.path)
        self.__init__(self.path, bucket_count=self.bucket_count)
        for key, value in pairs:
            self.put(key, value)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "DiskHashDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
