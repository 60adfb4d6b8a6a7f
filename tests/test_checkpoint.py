"""Tests for NoVoHT checkpoint files (repro.novoht.checkpoint)."""

import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StoreError
from repro.novoht.checkpoint import (
    IMAGE_HEADER_LEN,
    open_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.novoht.wal import OP_PUT, encode_record


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        pairs = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(100)]
        assert write_checkpoint(path, pairs) == 100
        assert list(read_checkpoint(path)) == pairs

    def test_empty_table(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        assert write_checkpoint(path, []) == 0
        assert list(read_checkpoint(path)) == []

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_checkpoint(str(tmp_path / "nope.ckpt"))) == []

    def test_empty_keys_and_values_roundtrip(self, tmp_path):
        path = str(tmp_path / "e.ckpt")
        pairs = [(b"", b""), (b"k", b""), (b"", b"v")]
        write_checkpoint(path, pairs)
        assert list(read_checkpoint(path)) == pairs

    def test_corrupt_crc_raises(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        write_checkpoint(path, [(b"k", b"v")])
        with open(path, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)[0]
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last ^ 0xFF]))
        with pytest.raises(StoreError, match="CRC"):
            list(read_checkpoint(path))

    def test_bad_header_raises(self, tmp_path):
        path = str(tmp_path / "hdr.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOTACKPT" + b"\x00" * 8)
        with pytest.raises(StoreError, match="bad header"):
            list(read_checkpoint(path))

    def test_truncated_body_raises(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        write_checkpoint(path, [(b"key", b"value" * 10)])
        with open(path, "rb") as f:
            data = f.read()
        # Keep the (self-CRC'd, still valid) header but cut into the record.
        with open(path, "wb") as f:
            f.write(data[: IMAGE_HEADER_LEN + 3])
        with pytest.raises(StoreError):
            list(read_checkpoint(path))

    def test_fewer_whole_records_than_counted_raises(self, tmp_path):
        """Per-record CRCs cannot see a record that is missing whole; the
        header's count can.  A shorter table must never load silently."""
        path = str(tmp_path / "short.ckpt")
        pairs = [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
        write_checkpoint(path, pairs)
        last = len(encode_record(OP_PUT, b"c", b"3"))
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - last)
        with pytest.raises(StoreError, match="2 whole records .* counts 3"):
            list(read_checkpoint(path))

    def test_bytes_after_the_counted_records_raise(self, tmp_path):
        path = str(tmp_path / "long.ckpt")
        write_checkpoint(path, [(b"a", b"1")])
        with open(path, "ab") as f:
            f.write(encode_record(OP_PUT, b"b", b"2"))
        with pytest.raises(StoreError):
            list(read_checkpoint(path))

    def test_atomic_replace_keeps_old_on_existing(self, tmp_path):
        path = str(tmp_path / "atomic.ckpt")
        write_checkpoint(path, [(b"old", b"1")])
        write_checkpoint(path, [(b"new", b"2")])
        assert list(read_checkpoint(path)) == [(b"new", b"2")]
        assert not os.path.exists(path + ".tmp")

    # Each example writes and fsyncs a checkpoint file: a slow disk, not
    # slow code, is what crosses Hypothesis' default 200 ms deadline.
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=0, max_size=30),
                st.binary(min_size=0, max_size=100),
            ),
            max_size=50,
        )
    )
    def test_property_roundtrip(self, tmp_path_factory, pairs):
        path = str(tmp_path_factory.mktemp("ckpt") / "p.ckpt")
        write_checkpoint(path, pairs)
        assert list(read_checkpoint(path)) == pairs

    def test_binary_safe(self, tmp_path):
        path = str(tmp_path / "bin.ckpt")
        pairs = [(bytes(range(256)), bytes(reversed(range(256))))]
        write_checkpoint(path, pairs)
        assert list(read_checkpoint(path)) == pairs

    def test_write_and_read_stream_the_table(self, tmp_path):
        """Neither direction builds a second copy of the table: the
        writer goes through one bounded buffer, the reader is one pass
        over the file (the old format needed the whole file for its CRC)."""
        path = str(tmp_path / "big.ckpt")
        pairs = [(b"key-%06d" % i, bytes([i % 256]) * 1024) for i in range(5 * 1024)]
        tracemalloc.start()
        try:
            write_checkpoint(path, pairs, wal_epoch=3, wal_offset=17)
            _size, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with open_checkpoint(path) as (wal_epoch, wal_offset, read_back):
                assert (wal_epoch, wal_offset) == (3, 17)
                assert sum(len(value) for _key, value in read_back) == 5 * 1024 * 1024
            _size, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > 5 * 1024 * 1024
        assert write_peak < 1024 * 1024
        assert read_peak < 1024 * 1024
