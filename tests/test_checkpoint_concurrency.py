"""Regression tests: NoVoHT checkpoints must not stall concurrent ops.

The original ``checkpoint()``/``gc()`` held the store lock across the
entire full-table disk write + fsync, freezing every op on the partition
for the duration (the hotter the partition, the bigger the table, the
longer the freeze).  The fix snapshots under the lock, writes the
checkpoint outside it, and splices the WAL under a brief re-acquire.

These tests stall the checkpoint write on an event and prove that a
concurrent writer completes *while the write is still in flight* —
under the old implementation the writer blocked until the checkpoint
finished, so each of these tests deadlocks/fails there — and that
mutations landing mid-write are neither lost nor double-applied after
recovery.
"""

import threading

import pytest

import repro.novoht.novoht as novoht_mod
from repro.novoht import NoVoHT
from tests._crash import abandon


class StalledCheckpointWrite:
    """Wraps the real ``write_checkpoint``: performs the write, then
    blocks until released — a stand-in for a large table's write+fsync
    taking a long time."""

    def __init__(self):
        self.real = novoht_mod.write_checkpoint
        self.in_flight = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, path, pairs, **kwargs):
        self.calls += 1
        result = self.real(path, pairs, **kwargs)
        self.in_flight.set()
        assert self.release.wait(timeout=10), "test never released checkpoint"
        return result

    def install(self, monkeypatch):
        monkeypatch.setattr(novoht_mod, "write_checkpoint", self)
        return self


@pytest.fixture
def slow_ckpt(monkeypatch):
    slow = StalledCheckpointWrite()
    slow.install(monkeypatch)
    yield slow
    slow.release.set()  # never leave a checkpoint thread stuck


def _checkpoint_in_thread(store):
    t = threading.Thread(target=store.checkpoint)
    t.start()
    return t


class TestCheckpointDoesNotStallWriters:
    def test_writer_completes_while_checkpoint_write_in_flight(
        self, tmp_path, slow_ckpt
    ):
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        for i in range(50):
            store.put(f"k{i}".encode(), f"v{i}".encode())

        t = _checkpoint_in_thread(store)
        assert slow_ckpt.in_flight.wait(5)
        # The checkpoint write is mid-flight and stalled; ops must not
        # queue behind it.  (Old code: put() blocks here until release.)
        store.put(b"mid-write", b"landed")
        assert store.get(b"mid-write") == b"landed"
        assert store.get(b"k0") == b"v0"
        assert t.is_alive(), "checkpoint finished early; test proves nothing"

        slow_ckpt.release.set()
        t.join(5)
        assert not t.is_alive()
        assert store.stats.checkpoints == 1
        store.close()

    def test_mid_write_mutations_survive_crash_recovery(self, tmp_path, slow_ckpt):
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        store.put(b"before", b"1")
        store.put(b"victim", b"old")

        t = _checkpoint_in_thread(store)
        assert slow_ckpt.in_flight.wait(5)
        # These land in the WAL *after* the snapshot's covered offset.
        store.put(b"mid", b"2")
        store.put(b"victim", b"new")
        store.remove(b"before")
        slow_ckpt.release.set()
        t.join(5)

        # Abandon the store (no clean close — a crash would do the same)
        # and recover: checkpoint + uncovered WAL suffix.
        abandon(store)
        with NoVoHT(str(tmp_path)) as db:
            assert db.get(b"mid") == b"2"
            assert db.get(b"victim") == b"new"
            assert b"before" not in db

    def test_append_mid_write_not_duplicated_by_recovery(self, tmp_path, slow_ckpt):
        """Covered-prefix skip: appends captured by the snapshot must not
        be replayed on top of it (that doubles the fragment)."""
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        store.append(b"log", b"AAA.")

        t = _checkpoint_in_thread(store)
        assert slow_ckpt.in_flight.wait(5)
        store.append(b"log", b"BBB.")
        slow_ckpt.release.set()
        t.join(5)

        abandon(store)
        with NoVoHT(str(tmp_path)) as db:
            assert db.get(b"log") == b"AAA.BBB."

    def test_close_waits_for_in_flight_checkpoint(self, tmp_path, slow_ckpt):
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        store.put(b"k", b"v")
        t = _checkpoint_in_thread(store)
        assert slow_ckpt.in_flight.wait(5)

        closer = threading.Thread(target=store.close)
        closer.start()
        slow_ckpt.release.set()
        t.join(5)
        closer.join(5)
        assert not closer.is_alive()

        with NoVoHT(str(tmp_path)) as db:
            assert db.get(b"k") == b"v"

    def test_concurrent_explicit_checkpoints_serialize(self, tmp_path, slow_ckpt):
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        store.put(b"k", b"v")
        first = _checkpoint_in_thread(store)
        assert slow_ckpt.in_flight.wait(5)
        # A second explicit checkpoint queues behind the first instead of
        # interleaving with it; auto-triggered passes would skip instead.
        second = _checkpoint_in_thread(store)
        slow_ckpt.release.set()
        first.join(5)
        second.join(5)
        assert store.stats.checkpoints == 2
        store.close()


class TestGcDoesNotResurrectRemovedKeys:
    def test_removed_key_stays_removed_after_gc_and_recovery(self, tmp_path):
        """The old GC compacted the WAL to the live *puts*, silently
        dropping the REMOVE record a key in an older checkpoint still
        needed — recovery resurrected the key."""
        store = NoVoHT(str(tmp_path), checkpoint_interval_ops=0)
        store.put(b"doomed", b"x")
        store.put(b"keeper", b"y")
        store.checkpoint()  # b"doomed" is now in the checkpoint
        store.remove(b"doomed")
        store.gc()
        assert store.stats.gc_runs == 1

        abandon(store)
        with NoVoHT(str(tmp_path)) as db:  # crash-style reopen
            assert b"doomed" not in db
            assert db.get(b"keeper") == b"y"
