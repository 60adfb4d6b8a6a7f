"""History recorder: intervals, JSONL artifacts, the ZHT_HISTORY hook."""

import json
import threading

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.verify import (
    STATUS_FAIL,
    STATUS_NOTFOUND,
    STATUS_OK,
    HistoryEvent,
    HistoryRecorder,
    load_history,
    save_history,
)
from repro.verify import history
from repro.verify.history import recorder_from_env


def _cluster():
    return build_local_cluster(3, ZHTConfig(transport="local", num_partitions=64))


class TestHistoryEvent:
    def test_json_roundtrip_binary_safe(self):
        ev = HistoryEvent(
            client_id="c7",
            op="insert",
            key=bytes(range(256)),
            value=b"\x00\xff\x80 binary",
            t_call=1.25,
            t_return=2.5,
            status=STATUS_OK,
            result=b"\xfe",
            replica_index=2,
            seq=42,
        )
        back = HistoryEvent.from_json(ev.to_json())
        assert back == ev
        # The line is plain single-line JSON (JSONL-safe).
        assert "\n" not in ev.to_json()
        json.loads(ev.to_json())

    def test_definite(self):
        base = dict(
            client_id="c", op="lookup", key=b"k", value=b"", t_call=0.0,
            t_return=1.0,
        )
        assert HistoryEvent(status=STATUS_OK, **base).definite
        assert HistoryEvent(status=STATUS_NOTFOUND, **base).definite
        assert not HistoryEvent(status=STATUS_FAIL, **base).definite


class TestHistoryRecorder:
    def test_records_intervals_with_injected_clock(self):
        ticks = iter(range(100))
        rec = HistoryRecorder(clock=lambda: float(next(ticks)))
        t0 = rec.now()
        rec.record("c0", "insert", b"k", b"v", t0, rec.now(), STATUS_OK)
        (ev,) = rec.events()
        assert (ev.t_call, ev.t_return) == (0.0, 1.0)
        assert ev.seq == 1 and len(rec) == 1

    def test_seq_unique_under_concurrency(self):
        rec = HistoryRecorder()

        def worker(cid):
            for i in range(200):
                rec.record(cid, "insert", b"k", b"v", 0.0, 1.0, STATUS_OK)

        threads = [
            threading.Thread(target=worker, args=(f"c{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in rec.events()]
        assert len(seqs) == 800 and len(set(seqs)) == 800

    def test_streams_jsonl_while_recording(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        with HistoryRecorder(path) as rec:
            rec.record("c0", "insert", b"k", b"v", 0.0, 1.0, STATUS_OK)
            # Line-buffered: on disk before close (crash-usable artifact).
            assert len(load_history(path)) == 1
            rec.record("c0", "lookup", b"k", b"", 1.0, 2.0, STATUS_OK,
                       result=b"v")
        loaded = load_history(path)
        assert loaded == rec.events()

    def test_save_load_roundtrip(self, tmp_path):
        rec = HistoryRecorder()
        for i in range(5):
            rec.record(f"c{i}", "append", b"k", b"|f;", float(i), i + 0.5,
                       STATUS_OK)
        path = str(tmp_path / "out.jsonl")
        save_history(rec.events(), path)
        assert load_history(path) == rec.events()


class TestClientIntegration:
    def test_client_records_all_four_ops(self):
        rec = HistoryRecorder()
        with _cluster() as cluster:
            z = cluster.client(recorder=rec, client_id="cX")
            z.insert(b"k", b"v1")
            assert z.lookup(b"k") == b"v1"
            z.append(b"k", b"+2")
            z.remove(b"k")
        ops = [(e.client_id, e.op, e.status) for e in rec.events()]
        assert ops == [
            ("cX", "insert", STATUS_OK),
            ("cX", "lookup", STATUS_OK),
            ("cX", "append", STATUS_OK),
            ("cX", "remove", STATUS_OK),
        ]
        lookup = rec.events()[1]
        assert lookup.result == b"v1"
        assert all(e.t_call <= e.t_return for e in rec.events())

    def test_miss_recorded_as_notfound(self):
        rec = HistoryRecorder()
        with _cluster() as cluster:
            z = cluster.client(recorder=rec)
            assert z.get(b"absent") is None
        (ev,) = rec.events()
        assert (ev.op, ev.status) == ("lookup", STATUS_NOTFOUND)

    def test_batch_ops_recorded_per_key(self):
        rec = HistoryRecorder()
        with _cluster() as cluster:
            z = cluster.client(recorder=rec)
            z.insert_many({b"a": b"1", b"b": b"2"})
            z.lookup_many([b"a", b"b", b"missing"])
        by_op = {}
        for e in rec.events():
            by_op.setdefault(e.op, []).append(e)
        assert len(by_op["insert"]) == 2
        assert len(by_op["lookup"]) == 3
        missing = next(e for e in by_op["lookup"] if e.key == b"missing")
        assert missing.status == STATUS_NOTFOUND

    def test_recorder_disabled_records_nothing(self, monkeypatch):
        monkeypatch.delenv("ZHT_HISTORY", raising=False)
        with _cluster() as cluster:
            z = cluster.client()
            assert z.recorder is None
            z.insert(b"k", b"v")
            assert z.lookup(b"k") == b"v"


class TestEnvHook:
    def test_env_hook_attaches_shared_recorder(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env-history.jsonl")
        monkeypatch.setenv("ZHT_HISTORY", path)
        # The recorder is process-global: the old one comes back after.
        monkeypatch.setattr(history, "_env_recorder", None)
        monkeypatch.setattr(history, "_env_path", None)
        recorder = recorder_from_env()
        try:
            with _cluster() as cluster:
                a = cluster.client()
                b = cluster.client()
                # One process-global recorder shared by every client.
                assert a.recorder is b.recorder is recorder
                a.insert(b"k", b"v")
                b.lookup(b"k")
        finally:
            recorder.close()
        events = load_history(path)
        assert [e.op for e in events] == ["insert", "lookup"]
        assert events[0].client_id != events[1].client_id

    def test_env_hook_absent_means_no_recorder(self, monkeypatch):
        monkeypatch.delenv("ZHT_HISTORY", raising=False)
        assert recorder_from_env() is None
