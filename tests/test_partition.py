"""Tests for partition state machine and bulk transfer (repro.core.partition)."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MigrationError
from repro.core.partition import Partition, PartitionState, QueuedRequest
from repro.core.protocol import OpCode, Request
from repro.novoht import NoVoHT, encode_image
from repro.novoht.checkpoint import IMAGE_HEADER_LEN
from repro.novoht.wal import OP_PUT, encode_record


class TestLifecycle:
    def test_starts_active(self):
        part = Partition(0)
        assert part.state is PartitionState.ACTIVE
        assert not part.is_migrating

    def test_begin_then_commit(self):
        part = Partition(1)
        part.store.put(b"k", b"v")
        part.begin_migration()
        assert part.is_migrating
        queued = part.commit_migration()
        assert queued == []
        assert part.state is PartitionState.ACTIVE
        # Data is cleared locally — it now lives on the new owner.
        assert len(part.store) == 0

    def test_begin_twice_rejected(self):
        part = Partition(2)
        part.begin_migration()
        with pytest.raises(MigrationError):
            part.begin_migration()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(MigrationError):
            Partition(3).commit_migration()

    def test_abort_without_begin_rejected(self):
        with pytest.raises(MigrationError):
            Partition(4).abort_migration()

    def test_abort_keeps_data(self):
        part = Partition(5)
        part.store.put(b"k", b"v")
        part.begin_migration()
        part.abort_migration()
        assert part.store.get(b"k") == b"v"
        assert part.state is PartitionState.ACTIVE


class TestQueueing:
    def _req(self, key=b"k"):
        return QueuedRequest(Request(op=OpCode.INSERT, key=key, value=b"v"))

    def test_queue_requires_migrating(self):
        part = Partition(0)
        with pytest.raises(MigrationError):
            part.queue_request(self._req())

    def test_commit_returns_queue_in_order(self):
        part = Partition(0)
        part.begin_migration()
        items = [self._req(f"k{i}".encode()) for i in range(5)]
        for item in items:
            part.queue_request(item)
        assert part.commit_migration() == items
        assert part.queued == []

    def test_abort_discards_queue(self):
        """"simply don't apply the changes ... discarding the queued
        requests and reporting error to clients"."""
        part = Partition(0)
        part.store.put(b"existing", b"1")
        part.begin_migration()
        part.queue_request(self._req())
        discarded = part.abort_migration()
        assert len(discarded) == 1
        # The queued mutation was never applied.
        assert b"k" not in part.store


class TestBulkTransfer:
    """A transfer is ``store.image()`` on one side and ``store.install()``
    on the other; the partition adds nothing to either."""

    def test_export_import_roundtrip(self):
        src = Partition(0)
        for i in range(20):
            src.store.put(f"key{i}".encode(), bytes([i]) * 10)
        dst = Partition(0)
        count = dst.store.install(src.store.image())
        assert count == 20
        assert dict(dst.store.items()) == dict(src.store.items())

    def test_export_empty(self):
        image = Partition(0).store.image()
        assert image == encode_image([])
        assert len(image) == IMAGE_HEADER_LEN

    def test_import_bad_payload_raises(self):
        with pytest.raises(MigrationError):
            Partition(0).store.install(b"}{garbage")

    def test_binary_values_survive_transfer(self):
        src = Partition(0)
        src.store.put(bytes(range(256)), bytes(range(255, -1, -1)))
        dst = Partition(0)
        dst.store.install(src.store.image())
        assert dst.store.get(bytes(range(256))) == bytes(range(255, -1, -1))

    def test_persistent_partition_migration(self, tmp_path):
        """Migration of a persisted partition survives the receiving
        store's restart."""
        src = Partition(7, persistence_dir=str(tmp_path / "src"))
        src.store.put(b"durable", b"data")
        dst = Partition(7, persistence_dir=str(tmp_path / "dst"))
        dst.store.install(src.store.image())
        dst.close()
        reopened = Partition(7, persistence_dir=str(tmp_path / "dst"))
        assert reopened.store.get(b"durable") == b"data"
        reopened.close()
        src.close()

    def test_install_replaces_what_the_receiver_held(self, tmp_path):
        """A key the owner removed must not survive on a receiver that
        had it (the merging import resurrected it)."""
        for directory in (None, str(tmp_path)):
            src, dst = Partition(0), Partition(0, persistence_dir=directory)
            src.store.put(b"kept", b"new")
            for key in (b"kept", b"removed-on-owner"):
                dst.store.put(key, b"old")
            assert dst.store.install(src.store.image()) == 1
            assert dict(dst.store.items()) == {b"kept": b"new"}
            dst.close()
            if directory:
                with NoVoHT(os.path.join(directory, "partition-000000")) as again:
                    assert dict(again.items()) == {b"kept": b"new"}

    def test_checkpoint_file_is_an_image(self, tmp_path):
        """One format, the other way round (``test_server_core`` pins
        image -> checkpoint): a store's ``novoht.ckpt`` installs as is."""
        src = Partition(3, persistence_dir=str(tmp_path))
        for i in range(50):
            src.store.put(f"k{i}".encode(), os.urandom(i))
        src.store.checkpoint()
        with open(os.path.join(src.store.path, "novoht.ckpt"), "rb") as f:
            on_disk = f.read()
        dst = Partition(3)
        assert dst.store.install(on_disk) == 50
        assert dict(dst.store.items()) == dict(src.store.items())
        src.close()

    def test_one_way_to_turn_pairs_into_bytes(self):
        """The names the JSON export, the checkpoint's own pair codec and
        the uncalled WAL rewriters went by are gone from ``src/``."""
        gone = (
            "export_bytes", "import_bytes", "checkpoint_meta", "CHECKPOINT_MAGIC_V1",
            "def rewrite", "def truncate", "initial_capacity", "resize_factor",
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        for root, _dirs, names in os.walk(src):
            for name in (n for n in names if n.endswith(".py")):
                with open(os.path.join(root, name)) as f:
                    text = f.read()
                assert not [word for word in gone if word in text], name
                if name == "partition.py":
                    assert "import json" not in text


def _damaged(pairs: list[tuple[bytes, bytes]], kind: str, at: int) -> bytes:
    image = encode_image(pairs)
    if kind == "truncate":
        return image[: at % len(image)]
    if kind == "flip":
        pos = at % len(image)
        return image[:pos] + bytes([image[pos] ^ (1 << (at % 8))]) + image[pos + 1 :]
    # count-inflated: a header valid in itself that names one record more
    # than follows (what the whole-file CRC used to catch).
    phantom = (b"phantom", b"")
    return encode_image(pairs + [phantom])[: -len(encode_record(OP_PUT, *phantom))]


class TestNeverTrustThePayload:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.dictionaries(st.binary(max_size=12), st.binary(max_size=40), min_size=1, max_size=12),
        kind=st.sampled_from(["truncate", "flip", "inflate"]),
        at=st.integers(min_value=0, max_value=1 << 20),
    )
    def test_damaged_image_leaves_the_receiver_untouched(
        self, tmp_path_factory, pairs, kind, at
    ):
        directory = str(tmp_path_factory.mktemp("recv"))
        bad = _damaged(list(pairs.items()), kind, at)
        dst = Partition(0, persistence_dir=directory)
        dst.store.put(b"mine", b"before")
        before = _files(directory)
        with pytest.raises(MigrationError):
            dst.store.install(bad)
        assert dict(dst.store.items()) == {b"mine": b"before"}
        assert _files(directory) == before
        dst.close()


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            with open(os.path.join(root, name), "rb") as f:
                out[os.path.relpath(os.path.join(root, name), directory)] = f.read()
    return out
