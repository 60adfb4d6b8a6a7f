"""Tests for the NoVoHT write-ahead log (repro.novoht.wal)."""

import io
import os
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import StoreError
from repro.novoht.wal import (
    OP_APPEND,
    OP_PUT,
    OP_REMOVE,
    WriteAheadLog,
    decode_varint,
    encode_record,
    encode_varint,
    iter_records,
)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, n):
        value, pos = decode_varint(encode_varint(n), 0)
        assert value == n
        assert pos == len(encode_varint(n))

    def test_single_byte_values(self):
        for n in (0, 1, 127):
            assert len(encode_varint(n)) == 1

    def test_multi_byte_values(self):
        assert len(encode_varint(128)) == 2
        assert len(encode_varint(2**21)) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(b"\x80", 0)

    def test_overlong_raises(self):
        with pytest.raises(ValueError, match="too long"):
            decode_varint(b"\xff" * 11, 0)


class TestRecordCodec:
    @given(
        st.sampled_from([OP_PUT, OP_REMOVE, OP_APPEND]),
        st.binary(min_size=0, max_size=64),
        st.binary(min_size=0, max_size=256),
    )
    def test_roundtrip(self, op, key, value):
        encoded = encode_record(op, key, value)
        records = list(iter_records(io.BytesIO(encoded)))
        assert records == [(op, key, value)]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            encode_record(99, b"k", b"v")

    def test_multiple_records_stream(self):
        buf = encode_record(OP_PUT, b"a", b"1") + encode_record(
            OP_REMOVE, b"a"
        ) + encode_record(OP_APPEND, b"b", b"2")
        ops = [r[0] for r in iter_records(io.BytesIO(buf))]
        assert ops == [OP_PUT, OP_REMOVE, OP_APPEND]

    def test_torn_final_record_ignored(self):
        """A crash mid-append leaves a partial record; replay stops there."""
        good = encode_record(OP_PUT, b"key", b"value")
        torn = encode_record(OP_PUT, b"other", b"data")[:-3]
        records = list(iter_records(io.BytesIO(good + torn)))
        assert records == [(OP_PUT, b"key", b"value")]

    def test_corrupt_crc_stops_replay(self):
        rec = bytearray(encode_record(OP_PUT, b"key", b"value"))
        rec[-1] ^= 0xFF
        assert list(iter_records(io.BytesIO(bytes(rec)))) == []

    def test_corrupt_magic_stops_replay(self):
        rec = bytearray(encode_record(OP_PUT, b"key", b"value"))
        rec[0] = 0x00
        assert list(iter_records(io.BytesIO(bytes(rec)))) == []

    def test_garbage_after_valid_record(self):
        buf = encode_record(OP_PUT, b"k", b"v") + b"\xff\xff\xff"
        assert list(iter_records(io.BytesIO(buf))) == [(OP_PUT, b"k", b"v")]

    def test_large_value(self):
        value = os.urandom(100_000)
        records = list(
            iter_records(io.BytesIO(encode_record(OP_PUT, b"big", value)))
        )
        assert records[0][2] == value


class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "test.wal"))
        wal.open()
        wal.append(OP_PUT, b"k1", b"v1")
        wal.append(OP_APPEND, b"k1", b"+v2")
        wal.append(OP_REMOVE, b"k1")
        wal.close()

        wal2 = WriteAheadLog(str(tmp_path / "test.wal"))
        records = list(wal2.replay())
        assert records == [
            (OP_PUT, b"k1", b"v1"),
            (OP_APPEND, b"k1", b"+v2"),
            (OP_REMOVE, b"k1", b""),
        ]
        assert wal2.record_count == 3

    def test_append_requires_open(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "x.wal"))
        with pytest.raises(StoreError):
            wal.append(OP_PUT, b"k", b"v")

    def test_replay_missing_file_is_empty(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "absent.wal"))
        assert list(wal.replay()) == []

    def test_recovery_after_simulated_torn_write(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append(OP_PUT, b"safe", b"data")
        wal.close()
        with open(path, "ab") as f:
            f.write(encode_record(OP_PUT, b"lost", b"data")[:-5])
        records = list(WriteAheadLog(path).replay())
        assert records == [(OP_PUT, b"safe", b"data")]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([OP_PUT, OP_REMOVE, OP_APPEND]),
                st.binary(min_size=1, max_size=20),
                st.binary(min_size=0, max_size=50),
            ),
            max_size=30,
        )
    )
    def test_property_replay_matches_appends(self, tmp_path_factory, entries):
        path = str(tmp_path_factory.mktemp("wal") / "p.wal")
        wal = WriteAheadLog(path)
        wal.open()
        for op, key, value in entries:
            wal.append(op, key, value)
        wal.close()
        assert list(WriteAheadLog(path).replay()) == [
            (op, key, value) for op, key, value in entries
        ]
