"""WAL crash-recovery edge cases for NoVoHT.

The WAL format (``repro.novoht.wal``) promises that recovery replays
every intact record and stops silently at the first torn or corrupt one
— a power loss mid-append must never lose *earlier* records or crash the
reopen. These tests drive those paths with real on-disk damage plus the
``repro.faults`` crash-consistency shim.

The writing store is deliberately *abandoned* (never ``close()``-d)
before the damage: a clean close checkpoints and truncates the WAL,
which is exactly what a crash prevents.  Each ``put`` flushes the WAL,
so the records are on disk regardless."""

import errno
import os

import pytest

from repro.core.errors import StoreError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    corrupt_byte,
    faulty_wal_opener,
    tear_tail,
)
import repro.novoht.checkpoint as checkpoint_mod
from repro.novoht import NoVoHT, encode_image
from repro.novoht.wal import WAL_HEADER_LEN


def _wal_path(path):
    return os.path.join(path, "novoht.wal")


def _store(path, **kwargs):
    # checkpoint_interval_ops=0 disables periodic checkpointing so every
    # record stays in the WAL and recovery must replay it.
    return NoVoHT(path, checkpoint_interval_ops=0, **kwargs)


class TestTornTail:
    def test_torn_final_record_loses_only_last_write(self, tmp_path):
        path = str(tmp_path)
        writer = _store(path)
        for i in range(5):
            writer.put(f"k{i}".encode(), f"value-{i}".encode())
        tear_tail(_wal_path(path), 3)  # power fails mid-append of k4
        with _store(path) as db:
            for i in range(4):
                assert db.get(f"k{i}".encode()) == f"value-{i}".encode()
            assert b"k4" not in db
            # The store stays writable after recovering a torn log.
            db.put(b"k4", b"rewritten")
            assert db.get(b"k4") == b"rewritten"

    def test_tear_through_crc_only(self, tmp_path):
        # Tearing just the CRC trailer still invalidates the record.
        path = str(tmp_path)
        writer = _store(path)
        writer.put(b"a", b"1")
        writer.put(b"b", b"2")
        tear_tail(_wal_path(path), 1)
        with _store(path) as db:
            assert db.get(b"a") == b"1"
            assert b"b" not in db


class TestCorruptMiddleRecord:
    def test_replay_stops_at_corrupt_record(self, tmp_path):
        path = str(tmp_path)
        writer = _store(path)
        writer.put(b"k1", b"v1")  # record: 4B header + 2 + 2 + 4B crc = 12B
        writer.put(b"k2", b"v2")
        writer.put(b"k3", b"v3")
        # Flip a byte inside record 2's key (records start after the WAL
        # epoch header): its CRC no longer matches, so recovery keeps
        # record 1 and discards everything from record 2 on.
        corrupt_byte(_wal_path(path), WAL_HEADER_LEN + 12 + 4)
        with _store(path) as db:
            assert db.get(b"k1") == b"v1"
            assert b"k2" not in db
            assert b"k3" not in db

    def test_corrupt_magic_byte(self, tmp_path):
        path = str(tmp_path)
        writer = _store(path)
        writer.put(b"k1", b"v1")
        writer.put(b"k2", b"v2")
        corrupt_byte(_wal_path(path), WAL_HEADER_LEN + 12)  # record 2's magic
        with _store(path) as db:
            assert db.get(b"k1") == b"v1"
            assert b"k2" not in db


class TestFsyncLossShim:
    def test_unsynced_writes_vanish_on_crash(self, tmp_path):
        path = str(tmp_path)
        # From the third fsync on, the "disk" silently drops the flush.
        plan = FaultPlan(0, [FaultRule(FaultKind.FSYNC_LOSS, after=2)])
        opener = faulty_wal_opener(plan)
        writer = _store(path, fsync=True, wal_opener=opener)
        for i in range(4):
            writer.put(f"k{i}".encode(), f"v{i}".encode())
        assert opener.last.fsyncs_lost == 2
        opener.last.simulate_crash()
        # Recover with a plain WAL: only the honestly-synced prefix exists.
        with _store(path) as db:
            assert db.get(b"k0") == b"v0"
            assert db.get(b"k1") == b"v1"
            assert b"k2" not in db
            assert b"k3" not in db

    def test_crash_without_fsync_tears_first_record(self, tmp_path):
        path = str(tmp_path)
        plan = FaultPlan(0, [FaultRule(FaultKind.TORN_TAIL)])
        opener = faulty_wal_opener(plan)
        writer = _store(path, fsync=False, wal_opener=opener)
        writer.put(b"k0", b"v0")
        writer.put(b"k1", b"v1")
        survived = opener.last.simulate_crash()
        # Half of the first un-synced write (the epoch header) remains.
        assert 0 < survived < WAL_HEADER_LEN + 12
        with _store(path) as db:
            # Nothing was synced, so recovery legitimately yields an empty
            # store — but it must not raise on the torn prefix.
            assert b"k0" not in db
            assert b"k1" not in db

    def test_acked_put_with_fsync_survives_any_crash_point(self, tmp_path):
        path = str(tmp_path)
        plan = FaultPlan(0)  # no fault rules: every fsync is honest
        opener = faulty_wal_opener(plan)
        writer = _store(path, fsync=True, wal_opener=opener)
        writer.put(b"durable", b"yes")
        writer.put(b"durable2", b"also")
        opener.last.simulate_crash()
        with _store(path) as db:
            assert db.get(b"durable") == b"yes"
            assert db.get(b"durable2") == b"also"


class _FailingFile:
    """Append handle that breaks once: the *fail_write*-th ``write`` puts
    half its bytes on disk and raises, or the first ``fsync`` raises with
    the record fully written."""

    def __init__(self, path, mode, *, fail_write=0, fail_fsync=False):
        self._file = open(path, mode)
        self._fail_write = fail_write
        self._fail_fsync = fail_fsync
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == self._fail_write:
            self._file.write(bytes(data[: len(data) // 2]))
            self._file.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._file.write(data)

    def fsync(self):
        if self._fail_fsync:
            self._fail_fsync = False
            raise OSError(errno.EIO, "Input/output error")
        os.fsync(self._file.fileno())

    def __getattr__(self, name):
        return getattr(self._file, name)


def _assert_refuses_everything(store):
    for call in (
        lambda: store.put(b"later", b"x"),
        lambda: store.get(b"a"),
        lambda: store.remove(b"a"),
        lambda: store.append(b"a", b"x"),
        lambda: store.apply_batch([("get", b"a", b"")]),
    ):
        with pytest.raises(StoreError):
            call()


class TestWriteErrorIsFailStop:
    """A failed WAL write may leave a torn record mid-log; anything
    logged behind it would be acked and then never replayed."""

    def test_failed_put_stops_the_store(self, tmp_path):
        path = str(tmp_path)
        # Write 1 is the epoch header, 2 is the first put.
        store = _store(
            path, wal_opener=lambda p, m: _FailingFile(p, m, fail_write=3)
        )
        store.put(b"a", b"1")
        with pytest.raises(StoreError):
            store.put(b"k", b"v" * 64)
        _assert_refuses_everything(store)
        store.close()  # releases the handles; writes no checkpoint
        assert not os.path.exists(os.path.join(path, "novoht.ckpt"))
        reopened = _store(path)
        assert dict(reopened.items()) == {b"a": b"1"}
        # The torn record is gone, so what the reopened store acks
        # survives its own crash too.
        reopened.put(b"later", b"x")
        with _store(path) as db:
            assert dict(db.items()) == {b"a": b"1", b"later": b"x"}

    def test_failed_group_commit_stops_the_store(self, tmp_path):
        path = str(tmp_path)
        store = _store(
            path, wal_opener=lambda p, m: _FailingFile(p, m, fail_write=4)
        )
        store.put(b"a", b"1")
        store.put(b"gone", b"2")
        with pytest.raises(StoreError):
            store.apply_batch([("put", b"k", b"v" * 64), ("remove", b"gone", b"")])
        # The batch reached the map before its commit failed: neither
        # the unlogged put nor the unlogged remove may be served.
        _assert_refuses_everything(store)
        with _store(path) as db:
            assert dict(db.items()) == {b"a": b"1", b"gone": b"2"}

    def test_failed_fsync_stops_the_store(self, tmp_path):
        path = str(tmp_path)
        store = _store(
            path,
            fsync=True,
            wal_opener=lambda p, m: _FailingFile(p, m, fail_fsync=True),
        )
        with pytest.raises(StoreError):
            store.put(b"k", b"v")
        _assert_refuses_everything(store)
        # Written in full but never acked: it may survive, nothing else.
        with _store(path) as db:
            assert dict(db.items()) in ({}, {b"k": b"v"})

    def test_batch_that_raises_midway_logs_what_it_applied(self, tmp_path):
        path = str(tmp_path)
        store = _store(path, max_memory_pairs=1)
        store.put(b"a", b"1")
        store.put(b"b", b"2")  # spills a
        os.truncate(os.path.join(path, "novoht.ovf"), 0)
        with pytest.raises(StoreError):
            store.apply_batch([("put", b"c", b"3"), ("get", b"a", b"")])
        assert store.get(b"c") == b"3"
        reopened = _store(path)
        assert reopened.get(b"c") == b"3"

    def test_bad_batch_op_changes_nothing(self, tmp_path):
        with _store(str(tmp_path)) as db:
            with pytest.raises(ValueError):
                db.apply_batch([("put", b"k", b"v"), ("frob", b"k", b"")])
            with pytest.raises(TypeError):
                db.apply_batch([("put", b"k", b"v"), ("put", b"k2", "str")])
            assert b"k" not in db


class TestDamageHelpers:
    def test_tear_tail_clamps_at_zero(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"abcdef")
        assert tear_tail(str(p), 2) == 4
        assert p.read_bytes() == b"abcd"
        assert tear_tail(str(p), 100) == 0
        assert p.read_bytes() == b""

    def test_corrupt_byte_flips_in_place(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"abc")
        corrupt_byte(str(p), 1)
        assert p.read_bytes() == bytes([ord("a"), ord("b") ^ 0xFF, ord("c")])


class _Crash(BaseException):
    """The process dies here: no handler runs, the disk stays as it is."""


class TestInstallIsAtomic:
    """``NoVoHT.install`` replaces the table through one commit point —
    the rename of the image onto ``novoht.ckpt``.  Stop it at every step
    around that point: a reopened store is exactly the old table or
    exactly the image, never a mix, and is writable either way."""

    OLD = {b"old-only": b"1", b"both": b"old", b"appended": b"ab"}
    IMAGE = {b"both": b"new" * 30_000, b"image-only": b"2"}  # > one write

    def _old_store(self, path):
        store = _store(path)
        store.put(b"old-only", b"1")
        store.put(b"gone", b"x")
        store.put(b"appended", b"a")
        store.checkpoint()  # an older checkpoint ...
        store.put(b"both", b"old")  # ... plus a WAL suffix on top of it
        store.append(b"appended", b"b")
        store.remove(b"gone")
        assert dict(store.items()) == self.OLD
        return store

    # (function to stop at, which call of it, stop before or after it ran)
    POINTS = [
        ("write", 2, "before"),  # novoht.ckpt.tmp holds half an image
        ("fsync", 1, "before"),
        ("fsync", 1, "after"),
        ("replace", 1, "before"),
        ("replace", 1, "after"),  # committed; drop_covered not started
        ("fsync", 2, "before"),  # inside drop_covered: novoht.wal.gc written
        ("replace", 2, "before"),
        ("replace", 2, "after"),
    ]

    # A crash can land anywhere; an error is reported by a call that did
    # not do its work, so only the "before" points can be an OSError.
    STOPS = [(point, _Crash) for point in POINTS] + [
        (point, OSError) for point in POINTS if point[2] == "before"
    ]

    @pytest.mark.parametrize(
        "point,error",
        STOPS,
        ids=["-".join(map(str, point)) + "-" + error.__name__ for point, error in STOPS],
    )
    def test_stop_at_every_step(self, tmp_path, monkeypatch, point, error):
        name, nth, when = point
        path = str(tmp_path)
        store = self._old_store(path)
        calls = {"n": 0}

        def stopping(real):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                hit = calls["n"] == nth
                if hit and when == "before":
                    raise error("injected")
                result = real(*args, **kwargs)
                if hit:
                    raise error("injected")
                return result

            return wrapper

        if name == "write":
            monkeypatch.setattr(
                checkpoint_mod,
                "encode_record_into",
                stopping(checkpoint_mod.encode_record_into),
            )
        else:
            monkeypatch.setattr(os, name, stopping(getattr(os, name)))
        with pytest.raises((error, StoreError)):
            store.install(encode_image(self.IMAGE.items()))
        monkeypatch.undo()

        committed = (name, when) == ("replace", "after") or nth == 2 and name != "write"
        want = self.IMAGE if committed else self.OLD
        if error is OSError:
            # The process lives on: what it serves is what the disk holds.
            assert dict(store.items()) == want
        with NoVoHT(path) as reopened:  # `store` is abandoned, as after a crash
            assert dict(reopened.items()) == want
            reopened.put(b"after", b"crash")
        with NoVoHT(path) as again:
            assert dict(again.items()) == {**want, b"after": b"crash"}

    def test_memory_only_store_just_swaps(self):
        store = NoVoHT(None)
        store.put(b"old", b"1")
        assert store.install(encode_image(self.IMAGE.items())) == len(self.IMAGE)
        assert dict(store.items()) == self.IMAGE
