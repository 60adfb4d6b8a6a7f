"""Tests for the NoVoHT store (repro.novoht.novoht)."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import KeyNotFound, StoreError
from repro.novoht import NoVoHT


@pytest.fixture
def store(tmp_path):
    s = NoVoHT(str(tmp_path / "db"))
    yield s
    s.close()


@pytest.fixture
def volatile():
    return NoVoHT(None)


class TestBasicOperations:
    def test_put_get(self, volatile):
        volatile.put(b"k", b"v")
        assert volatile.get(b"k") == b"v"

    def test_put_overwrites(self, volatile):
        volatile.put(b"k", b"v1")
        volatile.put(b"k", b"v2")
        assert volatile.get(b"k") == b"v2"

    def test_get_missing_raises(self, volatile):
        with pytest.raises(KeyNotFound):
            volatile.get(b"missing")

    def test_remove(self, volatile):
        volatile.put(b"k", b"v")
        volatile.remove(b"k")
        assert b"k" not in volatile

    def test_remove_missing_raises(self, volatile):
        with pytest.raises(KeyNotFound):
            volatile.remove(b"missing")

    def test_append_to_existing(self, volatile):
        volatile.put(b"dir", b"file1;")
        volatile.append(b"dir", b"file2;")
        assert volatile.get(b"dir") == b"file1;file2;"

    def test_append_creates_missing_key(self, volatile):
        volatile.append(b"new", b"first")
        assert volatile.get(b"new") == b"first"

    def test_len_and_contains(self, volatile):
        assert len(volatile) == 0
        volatile.put(b"a", b"1")
        volatile.put(b"b", b"2")
        assert len(volatile) == 2
        assert b"a" in volatile and b"c" not in volatile

    def test_items_snapshot(self, volatile):
        volatile.put(b"a", b"1")
        volatile.put(b"b", b"2")
        assert sorted(volatile.items()) == [(b"a", b"1"), (b"b", b"2")]

    def test_empty_value_allowed(self, volatile):
        volatile.put(b"k", b"")
        assert volatile.get(b"k") == b""

    def test_type_checking(self, volatile):
        with pytest.raises(TypeError):
            volatile.put("string-key", b"v")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            volatile.put(b"k", "string-value")  # type: ignore[arg-type]

    def test_stats_counters(self, volatile):
        volatile.put(b"a", b"1")
        volatile.get(b"a")
        volatile.append(b"a", b"2")
        volatile.remove(b"a")
        s = volatile.stats
        assert (s.puts, s.gets, s.appends, s.removes) == (1, 1, 1, 1)


class TestPersistence:
    def test_recovery_from_wal(self, tmp_path):
        path = str(tmp_path / "db")
        with NoVoHT(path, checkpoint_interval_ops=0) as s:
            s.put(b"k1", b"v1")
            s.put(b"k2", b"v2")
            s.append(b"k1", b"+more")
            s.remove(b"k2")
            # Close without checkpointing the WAL away? close() checkpoints;
            # emulate a crash by reopening the files directly instead.
            s._wal.close()
            s._closed = True
        with NoVoHT(path) as s2:
            assert s2.get(b"k1") == b"v1+more"
            assert b"k2" not in s2

    def test_recovery_from_checkpoint_plus_wal(self, tmp_path):
        path = str(tmp_path / "db")
        s = NoVoHT(path)
        s.put(b"old", b"data")
        s.checkpoint()
        s.put(b"new", b"data2")
        s._wal.close()  # crash: no final checkpoint
        s._closed = True
        with NoVoHT(path) as s2:
            assert s2.get(b"old") == b"data"
            assert s2.get(b"new") == b"data2"

    def test_clean_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with NoVoHT(path) as s:
            for i in range(50):
                s.put(f"key{i}".encode(), f"val{i}".encode())
        with NoVoHT(path) as s2:
            assert len(s2) == 50
            assert s2.get(b"key25") == b"val25"

    def test_append_replay_on_missing_base(self, tmp_path):
        """An APPEND record whose base PUT was checkpointed away must still
        replay correctly."""
        path = str(tmp_path / "db")
        s = NoVoHT(path)
        s.put(b"k", b"base")
        s.checkpoint()
        s.append(b"k", b"+tail")
        s._wal.close()
        s._closed = True
        with NoVoHT(path) as s2:
            assert s2.get(b"k") == b"base+tail"

    def test_periodic_checkpoint_triggers(self, tmp_path):
        s = NoVoHT(str(tmp_path / "db"), checkpoint_interval_ops=10)
        for i in range(25):
            s.put(f"k{i}".encode(), b"v")
        assert s.stats.checkpoints >= 2
        s.close()

    def test_operations_after_close_raise(self, tmp_path):
        s = NoVoHT(str(tmp_path / "db"))
        s.close()
        with pytest.raises(StoreError):
            s.put(b"k", b"v")

    @pytest.mark.parametrize("persistent", [True, False])
    def test_a_batch_after_close_raises(self, tmp_path, persistent):
        """Fail-stop holds for the batch path of a memory-only store too,
        whose close drops the table: a read must not answer "missing"."""
        s = NoVoHT(str(tmp_path / "db") if persistent else None)
        s.put(b"k", b"v")
        s.close()
        for ops in ([("get", b"k", b"")], [("put", b"k", b"w")]):
            with pytest.raises(StoreError):
                s.apply_batch(ops)

    def test_close_idempotent(self, store):
        store.close()
        store.close()

    def test_info_reports_persistence(self, store, volatile):
        assert store.info()["persistent"] is True
        assert volatile.info()["persistent"] is False


class TestGarbageCollection:
    def test_gc_compacts_wal(self, tmp_path):
        s = NoVoHT(
            str(tmp_path / "db"),
            checkpoint_interval_ops=0,
            gc_dead_ratio=1.0,  # effectively never auto-GC
        )
        for _ in range(100):
            s.put(b"hot", b"x" * 100)
        size_before = s._wal.size_bytes()
        s.gc()
        assert s._wal.size_bytes() < size_before
        assert s.get(b"hot") == b"x" * 100
        s.close()

    def test_auto_gc_on_dead_ratio(self, tmp_path):
        s = NoVoHT(
            str(tmp_path / "db"),
            checkpoint_interval_ops=0,
            gc_dead_ratio=0.5,
        )
        s._GC_MIN_RECORDS = 64  # shrink the floor so the test stays small
        for i in range(200):
            s.put(b"same-key", f"v{i}".encode())
        assert s.stats.gc_runs >= 1
        assert s.get(b"same-key") == b"v199"
        s.close()

    def test_gc_noop_for_volatile(self, volatile):
        volatile.put(b"k", b"v")
        volatile.gc()  # must not raise
        assert volatile.get(b"k") == b"v"


class TestMemoryBound:
    def test_spill_and_fault_back(self, tmp_path):
        s = NoVoHT(str(tmp_path / "db"), max_memory_pairs=5)
        for i in range(20):
            s.put(f"k{i:02d}".encode(), f"value-{i}".encode())
        info = s.info()
        assert info["pairs"] == 20
        assert info["pairs_in_memory"] <= 5
        assert info["pairs_spilled"] >= 15
        # Reading a spilled pair faults it back in correctly.
        assert s.get(b"k00") == b"value-0"
        assert s.stats.spilled_reads >= 1
        s.close()

    def test_spilled_pairs_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with NoVoHT(path, max_memory_pairs=3) as s:
            for i in range(10):
                s.put(f"k{i}".encode(), f"v{i}".encode())
        with NoVoHT(path, max_memory_pairs=3) as s2:
            assert all(
                s2.get(f"k{i}".encode()) == f"v{i}".encode() for i in range(10)
            )

    def test_append_to_spilled_value(self, tmp_path):
        s = NoVoHT(str(tmp_path / "db"), max_memory_pairs=2)
        s.put(b"target", b"base")
        for i in range(10):
            s.put(f"filler{i}".encode(), b"x")
        s.append(b"target", b"+tail")
        assert s.get(b"target") == b"base+tail"
        s.close()

    def test_memory_bound_requires_persistence(self):
        s = NoVoHT(None, max_memory_pairs=1)
        s.put(b"a", b"1")
        with pytest.raises(StoreError):
            s.put(b"b", b"2")  # spill has nowhere to go

    def test_remove_spilled_pair(self, tmp_path):
        s = NoVoHT(str(tmp_path / "db"), max_memory_pairs=1)
        s.put(b"a", b"1")
        s.put(b"b", b"2")
        s.remove(b"a")
        assert b"a" not in s
        assert s.get(b"b") == b"2"
        s.close()


class TestValidation:
    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            NoVoHT(None, checkpoint_interval_ops=-1)
        with pytest.raises(ValueError):
            NoVoHT(None, gc_dead_ratio=2.0)
        with pytest.raises(ValueError):
            NoVoHT(None, max_memory_pairs=-5)

    def test_apply_batch_checks_a_value_only_where_it_is_stored(self, volatile):
        """``value`` is documented as ignored for get/remove: neither may
        refuse ``None``; put/append still must, before anything applies."""
        volatile.put(b"k", b"v")
        assert volatile.apply_batch([("get", b"k", None), ("remove", b"k", None)]) == [
            (True, b"v"),
            (True, None),
        ]
        for kind in ("put", "append"):
            with pytest.raises(TypeError):
                volatile.apply_batch([("put", b"a", b"1"), (kind, b"k", None)])
        with pytest.raises(TypeError):
            volatile.apply_batch([("put", b"a", b"1"), ("remove", "not-bytes", None)])
        assert b"a" not in volatile


# ---------------------------------------------------------------------------
# Model-based property test: NoVoHT behaves exactly like a dict, both live
# and across a persistence cycle.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.binary(min_size=1, max_size=8),
            st.binary(max_size=16),
        ),
        st.tuples(
            st.just("remove"),
            st.binary(min_size=1, max_size=8),
            st.just(b""),
        ),
        st.tuples(
            st.just("append"),
            st.binary(min_size=1, max_size=8),
            st.binary(max_size=16),
        ),
    ),
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_novoht_matches_dict_model(tmp_path_factory, ops):
    path = str(tmp_path_factory.mktemp("model") / "db")
    model: dict[bytes, bytes] = {}
    store = NoVoHT(path, checkpoint_interval_ops=7, gc_dead_ratio=0.4)
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "remove":
            if key in model:
                store.remove(key)
                del model[key]
            else:
                with pytest.raises(KeyNotFound):
                    store.remove(key)
        elif op == "append":
            store.append(key, value)
            model[key] = model.get(key, b"") + value
    assert dict(store.items()) == model
    store.close()
    # Recovery reproduces the same state.
    reopened = NoVoHT(path)
    assert dict(reopened.items()) == model
    reopened.close()
