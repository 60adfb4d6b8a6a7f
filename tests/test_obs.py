"""Tests for the observability layer (repro.obs) and the transport
correctness fixes that ride on it: request-id allocation under threads,
TCP stream-desync eviction, UDP stale-response matching, and the
registry-backed transport counters.
"""

import gc
import json
import socket
import sys
import threading
import time

import pytest

from repro import build_local_cluster
from repro.core import ZHTConfig
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Response, frame
from repro.net.cluster import build_tcp_cluster, build_udp_cluster
from repro.net.tcp import MultiplexedTCPClient
from repro.net.udp import UDPClient
from repro.obs import (
    NULL_SPAN,
    REGISTRY,
    LatencyHistogram,
    PartitionLoadTracker,
    TracingRegistry,
    merge_latency_snapshots,
    merge_stats_snapshots,
)
from repro.obs.metrics import Counter, Gauge
from tests.test_server_core import deploy


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_reset(self):
        c = Counter("t")
        c.inc()
        c.inc(5)
        assert c.value == 6
        c.reset()
        assert c.value == 0

    def test_thread_safe(self):
        c = Counter("t")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(10_000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        g.set(3.5)
        assert g.value == 3.5

    def test_provider_read_at_snapshot(self):
        box = {"n": 1}
        g = Gauge("g", provider=lambda: box["n"])
        assert g.value == 1.0
        box["n"] = 7
        assert g.value == 7.0

    def test_provider_failure_reads_zero(self):
        def boom():
            raise RuntimeError("gone")

        assert Gauge("g", provider=boom).value == 0.0


class TestLatencyHistogram:
    def test_exact_stats(self):
        h = LatencyHistogram("h")
        for s in (0.001, 0.002, 0.004):
            h.record(s)
        assert h.count == 3
        assert h.max_s == 0.004
        assert h.mean_s == pytest.approx(0.007 / 3)

    def test_percentiles_are_upper_bounds_within_2x(self):
        h = LatencyHistogram("h")
        for _ in range(100):
            h.record(0.0015)  # exactly between the 1.024ms / 2.048ms bounds
        p50 = h.percentile(50)
        assert 0.0015 <= p50 <= 2 * 0.0015

    def test_p100_clamped_to_observed_max(self):
        h = LatencyHistogram("h")
        h.record(0.0030)
        assert h.percentile(100) == 0.0030

    def test_ladder_ordering(self):
        h = LatencyHistogram("h")
        for _ in range(90):
            h.record(0.0001)
        for _ in range(10):
            h.record(0.1)
        assert h.percentile(50) < h.percentile(99)
        assert h.percentile(99) >= 0.1

    def test_empty_snapshot(self):
        assert LatencyHistogram("h").snapshot() == {"count": 0}

    def test_snapshot_fields(self):
        h = LatencyHistogram("h")
        h.record(0.002)
        snap = h.snapshot()
        assert set(snap) == {
            "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms",
            "min_ms", "sum_ms", "buckets",
        }
        assert snap["count"] == 1
        assert snap["max_ms"] == pytest.approx(2.0)
        assert snap["min_ms"] == pytest.approx(2.0)
        assert snap["sum_ms"] == pytest.approx(2.0)
        # Sparse [bucket_index, count] pairs for cross-shard merging.
        assert sum(n for _, n in snap["buckets"]) == 1

    def test_reset(self):
        h = LatencyHistogram("h")
        h.record(1.0)
        h.reset()
        assert h.count == 0 and h.snapshot() == {"count": 0}

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h").percentile(101)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        r = TracingRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("b") is r.histogram("b")
        assert r.gauge("c") is r.gauge("c")

    def test_snapshot_shape_and_json_roundtrip(self):
        r = TracingRegistry(enabled=True)
        r.counter("x").inc(3)
        r.gauge("y").set(1.5)
        r.histogram("z")  # empty: excluded from latency
        with r.span("w"):
            pass
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["enabled"] is True
        assert snap["counters"]["x"] == 3
        assert snap["gauges"]["y"] == 1.5
        assert "z" not in snap["latency"]
        assert snap["latency"]["w"]["count"] == 1

    def test_reset_zeroes_everything(self):
        r = TracingRegistry(enabled=True)
        r.counter("x").inc()
        r.time("h", 0.5)
        r.reset()
        snap = r.snapshot()
        assert snap["counters"]["x"] == 0
        assert snap["latency"] == {}


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        r = TracingRegistry(enabled=False)
        assert r.span("x") is NULL_SPAN
        with r.span("x"):
            pass
        assert r.snapshot()["latency"] == {}

    def test_enabled_records_duration(self):
        r = TracingRegistry(enabled=True)
        with r.span("x"):
            time.sleep(0.002)
        snap = r.histogram("x").snapshot()
        assert snap["count"] == 1
        assert snap["max_ms"] >= 2.0

    def test_nesting_bumps_edge_counters(self):
        r = TracingRegistry(enabled=True)
        with r.span("parent"):
            with r.span("child"):
                pass
            with r.span("child"):
                pass
        assert r.counter("span.edge.parent>child").value == 2
        # The stack unwound fully: a new root span records no edge.
        with r.span("other"):
            pass
        assert "span.edge.parent>other" not in r.snapshot()["counters"]

    def test_time_gated_on_enabled(self):
        r = TracingRegistry(enabled=False)
        r.time("x", 1.0)
        assert r.histogram("x").count == 0
        r.enable()
        r.time("x", 1.0)
        assert r.histogram("x").count == 1


# ---------------------------------------------------------------------------
# Client-core regression: request-id allocation and stats under threads
# ---------------------------------------------------------------------------


class TestClientThreadSafety:
    def test_concurrent_request_ids_are_unique(self):
        """Duplicate ids defeat the UDP dedup cache: two distinct
        mutations sharing an id would have the second answered with the
        first's cached response and never applied."""
        table, _servers, cfg = deploy()
        from repro.core.client import ZHTClientCore

        core = ZHTClientCore(table.copy(), cfg)
        ids = []
        lock = threading.Lock()

        def worker():
            local = [core.allocate_request_id() for _ in range(2000)]
            with lock:
                ids.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == len(set(ids)) == 16_000

    def test_concurrent_stats_increments_do_not_lose_updates(self):
        registry = TracingRegistry()
        stats = registry.counter_set("t", ("ops",))
        threads = [
            threading.Thread(
                target=lambda: [stats.inc("ops") for _ in range(5000)]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stats.ops == 40_000
        assert registry.counter("t.ops").value == 40_000


class TestCounterSet:
    def test_owners_count_apart_and_the_total_outlives_them(self):
        registry = TracingRegistry()
        first = registry.counter_set("t", ("hits", "misses"))
        second = registry.counter_set("t", ("hits", "misses"))
        before = registry.snapshot()["counters"]
        assert before == {"t.hits": 0, "t.misses": 0}
        first.inc("hits")
        first.inc("misses", 4)
        second.inc("hits", 2)
        assert (first.hits, first.misses) == (1, 4)
        assert (second.hits, second.misses) == (2, 0)
        assert first.as_dict() == {"hits": 1, "misses": 4}
        assert registry.snapshot()["counters"] == {"t.hits": 3, "t.misses": 4}
        del first, second
        gc.collect()
        assert registry.snapshot()["counters"] == {"t.hits": 3, "t.misses": 4}
        assert registry.counter_set("t", ("hits", "misses")).hits == 0

    def test_undeclared_names_are_errors(self):
        stats = TracingRegistry().counter_set("t", ("hits",))
        with pytest.raises(KeyError):
            stats.inc("typo")
        with pytest.raises(AttributeError):
            stats.typo
        registry = TracingRegistry()
        registry.counter_set("t", ("hits",))
        with pytest.raises(ValueError):
            registry.counter_set("t", ("other",))

    def test_process_totals_move_by_the_sum_of_their_owners(self):
        """Every core, store and network of a cluster feeds one of four
        prefixes; each total moves by exactly what its owners counted."""
        before = REGISTRY.snapshot()["counters"]
        cfg = ZHTConfig(transport="local", num_partitions=16)
        with build_local_cluster(2, cfg) as cluster:
            z = cluster.client()
            for i in range(20):
                z.insert(f"k{i}", b"v")
                assert z.lookup(f"k{i}") == b"v"
            z.remove("k0")
            owners = {
                "client": [z.stats],
                "server": [core.stats for core in cluster.servers.values()],
                "local": [cluster.network.stats],
                "novoht": [
                    part.store.stats
                    for core in cluster.servers.values()
                    for part in core.partitions.values()
                ],
            }
            after = REGISTRY.snapshot()["counters"]
        for prefix, sets in owners.items():
            for field in sets[0].as_dict():
                name = f"{prefix}.{field}"
                assert after[name] - before.get(name, 0) == sum(
                    getattr(stats, field) for stats in sets
                ), name
        assert after["client.ops"] - before.get("client.ops", 0) == 41
        assert after["server.inserts"] - before.get("server.inserts", 0) == 20
        assert after["novoht.gets"] - before.get("novoht.gets", 0) == 20
        assert after["local.roundtrips"] - before.get("local.roundtrips", 0) == 41


# ---------------------------------------------------------------------------
# TCP: stream desync must evict, not re-cache
# ---------------------------------------------------------------------------


def _garbage_server(replies: list[bytes]):
    """A TCP listener answering each connection's first frame with the
    next canned payload (framed but not necessarily decodable)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    address = Address("127.0.0.1", listener.getsockname()[1])

    def serve():
        for payload in replies:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.recv(65536)
            conn.sendall(frame(payload))
            # Hold the connection open long enough for the client to
            # decide whether to cache it.
            time.sleep(0.2)
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, address


class TestTCPDesyncEviction:
    def test_garbled_frame_not_recached(self):
        listener, address = _garbage_server([b"\xff\xff\xff\xff"])
        client = MultiplexedTCPClient()
        before = REGISTRY.counter("tcp.client.decode_errors").value
        try:
            response = client.roundtrip(
                address, Request(op=OpCode.PING, request_id=1), timeout=1.0
            )
            assert response is None
            # The desynced connection is dropped, not used again: the
            # client's one retry dials a fresh one.
            assert client.connects == 2
            assert (
                REGISTRY.counter("tcp.client.decode_errors").value
                == before + 1
            )
        finally:
            client.close()
            listener.close()

    def test_valid_frame_is_recached(self):
        payload = Response(status=0, request_id=1, op=int(OpCode.PING)).encode()
        listener, address = _garbage_server([payload])
        client = MultiplexedTCPClient()
        try:
            response = client.roundtrip(
                address, Request(op=OpCode.PING, request_id=1), timeout=1.0
            )
            assert response is not None
            assert not client._conns[address].closed
        finally:
            client.close()
            listener.close()


# ---------------------------------------------------------------------------
# UDP: response-to-request matching
# ---------------------------------------------------------------------------


class TestUDPResponseMatching:
    def _m(self, request, response):
        return UDPClient._matches(request, response)

    def test_id_and_op_agree(self):
        req = Request(op=OpCode.INSERT, request_id=7)
        assert self._m(req, Response(request_id=7, op=int(OpCode.INSERT)))

    def test_wrong_op_echo_rejected_despite_matching_id(self):
        """A stale LOOKUP response whose id collides with a live REMOVE
        must not be taken as the REMOVE's ack."""
        req = Request(op=OpCode.REMOVE, request_id=7)
        assert not self._m(req, Response(request_id=7, op=int(OpCode.LOOKUP)))

    def test_wrong_id_rejected(self):
        req = Request(op=OpCode.LOOKUP, request_id=7)
        assert not self._m(req, Response(request_id=8, op=int(OpCode.LOOKUP)))

    def test_legacy_no_echo_matches_by_id(self):
        req = Request(op=OpCode.INSERT, request_id=7)
        assert self._m(req, Response(request_id=7, op=0))

    def test_id0_wildcard_allowed_for_reads(self):
        req = Request(op=OpCode.LOOKUP, request_id=0)
        assert self._m(req, Response(request_id=0, op=0))

    def test_id0_wildcard_dropped_for_mutations(self):
        """An un-identified mutation must not treat any datagram as its
        ack: only a response that positively echoes the op counts."""
        req = Request(op=OpCode.INSERT, request_id=0)
        assert not self._m(req, Response(request_id=0, op=0))
        assert self._m(req, Response(request_id=0, op=int(OpCode.INSERT)))
        assert not self._m(req, Response(request_id=0, op=int(OpCode.LOOKUP)))

    def test_stale_datagram_skipped_live(self):
        """A late response for an earlier op arrives first; the client
        must skip it and return the real ack."""
        stale = Response(request_id=3, op=int(OpCode.LOOKUP), value=b"old")
        real = Response(request_id=4, op=int(OpCode.INSERT))
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        address = Address("127.0.0.1", server.getsockname()[1])

        def serve():
            _data, peer = server.recvfrom(65000)
            server.sendto(stale.encode(), peer)
            server.sendto(real.encode(), peer)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = UDPClient()
        before = REGISTRY.counter("udp.client.stale_responses").value
        try:
            got = client.roundtrip(
                address,
                Request(op=OpCode.INSERT, key=b"k", request_id=4),
                timeout=1.0,
            )
            assert got is not None and got.request_id == 4
            assert (
                REGISTRY.counter("udp.client.stale_responses").value
                == before + 1
            )
        finally:
            client.close()
            server.close()
            thread.join(timeout=2)


# ---------------------------------------------------------------------------
# Transport counter semantics via the registry
# ---------------------------------------------------------------------------


class TestTransportCounters:
    def test_oneway_retry_on_stale_cached_socket(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
        with build_tcp_cluster(1, cfg) as cluster:
            address = cluster.servers[0].address
            transport = MultiplexedTCPClient()
            try:
                assert transport.roundtrip(
                    address, Request(op=OpCode.PING, request_id=1), 0.5
                )
                # Break the cached socket in place (leave it in the cache)
                # so the next one-way send hits a dead file descriptor.
                for conn in transport._conns.values():
                    conn.sock.close()
                before = REGISTRY.counter("tcp.client.oneway_retries").value
                transport.send_oneway(address, Request(op=OpCode.PING))
                assert (
                    REGISTRY.counter("tcp.client.oneway_retries").value > before
                )
                assert transport.connects == 2  # the retry dialled afresh
            finally:
                transport.close()

    def test_oneway_drop_on_dead_address(self):
        client = MultiplexedTCPClient(connect_timeout=0.2)
        before = REGISTRY.counter("tcp.client.oneway_drops").value
        client.send_oneway(Address("127.0.0.1", 1), Request(op=OpCode.PING))
        assert REGISTRY.counter("tcp.client.oneway_drops").value == before + 1
        client.close()

    def test_udp_duplicate_suppression_counted(self):
        cfg = ZHTConfig(transport="udp", num_partitions=64, request_timeout=0.5)
        with build_udp_cluster(1, cfg) as cluster:
            server_addr = cluster.servers[0].address
            request = Request(
                op=OpCode.INSERT, key=b"dup", value=b"v", request_id=424_242
            )
            client = UDPClient()
            before = REGISTRY.counter("udp.server.duplicates_suppressed").value
            try:
                r1 = client.roundtrip(server_addr, request, timeout=0.5)
                r2 = client.roundtrip(server_addr, request, timeout=0.5)
            finally:
                client.close()
            assert r1 is not None and r2 is not None
            assert (
                REGISTRY.counter("udp.server.duplicates_suppressed").value
                == before + 1
            )
            assert cluster.servers[0].duplicates_suppressed >= 1


# ---------------------------------------------------------------------------
# STATS opcode end-to-end
# ---------------------------------------------------------------------------


class TestStatsOpcode:
    def test_stats_over_tcp(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
        with build_tcp_cluster(2, cfg) as cluster:
            z = cluster.client()
            for i in range(10):
                z.insert(f"s{i}", b"v")
            response = z.transport.roundtrip(
                cluster.servers[0].address,
                Request(op=OpCode.STATS, request_id=99),
                1.0,
            )
            assert response is not None and response.status == 0
            snap = json.loads(response.value)
            assert "counters" in snap and "latency" in snap
            inst = snap["instance"]
            assert inst["node_id"] == "node-0000"
            assert inst["stats"]["inserts"] >= 0
            assert response.op == int(OpCode.STATS)

    #: What a STATS reply carried before owners drew their counters from
    #: the registry (names appeared on first bump, so this is the set a
    #: mixed point + batch workload produces), and ``instance.stats``.
    WIRE_NAMES = (
        "client.batch_ops client.batches client.ops local.roundtrips "
        "novoht.appends novoht.gets novoht.puts novoht.removes "
        "server.appends server.batch_sub_ops server.batches server.inserts "
        "server.lookups server.removes"
    ).split()
    INSTANCE_KEYS = (
        "inserts lookups removes appends batches redirects queued "
        "replica_updates migrations_in migrations_out membership_updates "
        "shed_expired shed_overload"
    ).split()

    def test_co_located_servers_keep_names_and_merge_once(self):
        """Both servers of an in-process cluster report the one process
        registry: every counter name is still on the wire, and merging
        the two replies counts the process once, not once per server."""
        before = REGISTRY.snapshot()["counters"]
        with build_local_cluster(2, ZHTConfig(transport="local")) as local:
            local.client().insert("x", b"y")
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
        with build_tcp_cluster(2, cfg) as cluster:
            z = cluster.client()
            for i in range(50):
                z.insert(f"s{i}", b"v")
            z.lookup("s1")
            z.append("s1", b"x")
            z.remove("s2")
            z.insert_many([(f"b{i}", b"v") for i in range(8)])
            z.lookup_many([f"b{i}" for i in range(8)])
            snaps = []
            for server in cluster.servers:
                response = z.transport.roundtrip(
                    server.address, Request(op=OpCode.STATS, request_id=7), 1.0
                )
                snaps.append(json.loads(response.value))
        for snap in snaps:
            for name in self.WIRE_NAMES:
                assert snap["counters"][name] - before.get(name, 0) > 0, name
            assert set(self.INSTANCE_KEYS) <= set(snap["instance"]["stats"])
        assert snaps[0]["process"] == snaps[1]["process"]
        merged = merge_stats_snapshots(snaps)
        assert merged["shards"] == 2
        assert merged["counters"] == snaps[1]["counters"]
        assert merged["gauges"] == snaps[1]["gauges"]
        inserts = [inst["stats"]["inserts"] for inst in merged["instances"]]
        assert len(inserts) == 2 and sum(inserts) == 58
        assert (
            merged["counters"]["server.inserts"] - before.get("server.inserts", 0)
            == 59
        )


# ---------------------------------------------------------------------------
# Per-partition load accounting (hot-key observability)
# ---------------------------------------------------------------------------


class TestPartitionLoadTracker:
    def test_rate_and_imbalance_math(self):
        t = [0.0]
        tracker = PartitionLoadTracker(clock=lambda: t[0])
        tracker.record(1, 30)
        tracker.record(2, 10)
        tracker.record(3, 10)
        t[0] = 5.0
        snap = tracker.snapshot()
        assert snap["window_s"] == 5.0
        assert snap["total_requests"] == 50
        assert snap["active_partitions"] == 3
        assert snap["requests_per_s"] == 10.0
        # max / mean over the active set: 30 / (50 / 3)
        assert snap["imbalance_ratio"] == pytest.approx(1.8)
        assert snap["hottest"][0] == [1, 30]

    def test_idle_partitions_do_not_dilute_imbalance(self):
        """One active partition is perfectly balanced with itself; the
        instance's other (idle) partitions must not skew the ratio."""
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        tracker.record(7, 100)
        snap = tracker.snapshot()
        assert snap["active_partitions"] == 1
        assert snap["imbalance_ratio"] == 1.0

    def test_empty_window(self):
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        snap = tracker.snapshot()
        assert snap["total_requests"] == 0
        assert snap["requests_per_s"] == 0.0
        assert snap["imbalance_ratio"] == 1.0
        assert snap["hottest"] == []

    def test_reset_starts_a_new_window(self):
        t = [0.0]
        tracker = PartitionLoadTracker(clock=lambda: t[0])
        tracker.record(0, 8)
        t[0] = 2.0
        first = tracker.snapshot(reset=True)
        assert first["requests_per_s"] == 4.0
        t[0] = 3.0
        second = tracker.snapshot()
        assert second["total_requests"] == 0
        assert second["window_s"] == 1.0

    def test_hottest_truncated_and_ordered(self):
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        for pid in range(12):
            tracker.record(pid, pid + 1)
        snap = tracker.snapshot(top=3)
        assert snap["hottest"] == [[11, 12], [10, 11], [9, 10]]

    def test_record_accumulates(self):
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        tracker.record(4)
        tracker.record(4, 2)
        assert tracker.snapshot()["hottest"] == [[4, 3]]

    def test_concurrent_records_and_resets_lose_no_count(self):
        """Each thread records into its own counts with no lock; snapshots
        and resets taken meanwhile must neither lose nor double a count."""
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        threads, per_thread = 8, 2000
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: [tracker.record(i % 3) for i in range(per_thread)])
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            while any(worker.is_alive() for worker in workers):
                seen.append(tracker.snapshot(reset=True)["total_requests"])
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        seen.append(tracker.snapshot()["total_requests"])
        assert sum(seen) == threads * per_thread

    def test_snapshot_is_json_serializable(self):
        tracker = PartitionLoadTracker(clock=lambda: 0.0)
        tracker.record(1, 5)
        json.dumps(tracker.snapshot())

    def test_stats_opcode_reports_partition_load(self):
        """STATS must surface the tracker so operators can see where
        Zipf traffic lands (requests/s + imbalance, per instance)."""
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
        with build_tcp_cluster(2, cfg) as cluster:
            z = cluster.client()
            for i in range(20):
                z.insert(f"pl{i}", b"v")
            total = 0
            for server in cluster.servers:
                response = z.transport.roundtrip(
                    server.address,
                    Request(op=OpCode.STATS, request_id=41),
                    1.0,
                )
                assert response is not None and response.status == 0
                load = json.loads(response.value)["instance"]["partition_load"]
                assert load["imbalance_ratio"] >= 1.0
                assert load["active_partitions"] >= 0
                total += load["total_requests"]
            assert total >= 20


class TestMergeStatsSnapshots:
    """Edge cases of the per-shard STATS merge (the node-level view the
    sharded server and the scenario runner's gates both read)."""

    def test_empty_shard_list(self):
        merged = merge_stats_snapshots([])
        assert merged == {
            "enabled": False,
            "shards": 0,
            "counters": {},
            "gauges": {},
            "latency": {},
            "instances": [],
        }
        json.dumps(merged)

    def test_counter_only_snapshots(self):
        merged = merge_stats_snapshots(
            [
                {"enabled": True, "counters": {"ops": 3}},
                {"counters": {"ops": 4, "errors": 1}},
            ]
        )
        assert merged["counters"] == {"errors": 1, "ops": 7}
        assert merged["latency"] == {}
        assert merged["enabled"] is True
        assert merged["shards"] == 2

    def test_process_wide_sections_count_once_per_process(self):
        hist = LatencyHistogram("rt")
        hist.record(0.001)
        a1 = {"process": "a:1", "counters": {"ops": 3}, "gauges": {"g": 1.0},
              "latency": {"rt": hist.snapshot()}, "instance": {"id": "x"}}
        hist.record(0.001)
        a2 = {"process": "a:1", "counters": {"ops": 5}, "gauges": {"g": 2.0},
              "latency": {"rt": hist.snapshot()}, "instance": {"id": "y"}}
        b = {"process": "b:1", "counters": {"ops": 10}, "instance": {"id": "z"}}
        merged = merge_stats_snapshots([a1, a2, b])
        # The later poll of process a stands for it; b adds on top.
        assert merged["counters"] == {"ops": 15}
        assert merged["gauges"] == {"g": 2.0}
        assert merged["latency"]["rt"]["count"] == 2
        assert [i["id"] for i in merged["instances"]] == ["x", "y", "z"]
        assert merged["shards"] == 3
        assert merge_stats_snapshots([a2, a2, a2])["counters"] == a2["counters"]

    def test_histogram_snapshot_is_the_merge_of_itself(self):
        hist = LatencyHistogram("rt")
        for ms in (0.4, 1.0, 3.0, 250.0):
            hist.record(ms / 1e3)
        assert merge_latency_snapshots([hist.snapshot()]) == hist.snapshot()

    def test_disjoint_histogram_buckets(self):
        """One shard only saw fast ops, the other only slow ones; the
        merged p99 must come from the slow shard's ladder, not an
        average of per-shard percentiles."""
        fast = LatencyHistogram("rt")
        slow = LatencyHistogram("rt")
        for _ in range(90):
            fast.record(0.001)
        for _ in range(10):
            slow.record(1.0)
        merged = merge_stats_snapshots(
            [
                {"latency": {"rt": fast.snapshot()}},
                {"latency": {"rt": slow.snapshot()}},
            ]
        )["latency"]["rt"]
        assert merged["count"] == 100
        assert merged["p50_ms"] <= 5.0
        assert merged["p99_ms"] >= 500.0
        assert merged["max_ms"] == pytest.approx(1000.0)
        assert merged["min_ms"] == pytest.approx(1.0)

    def test_zero_count_histogram_is_inert(self):
        empty = LatencyHistogram("rt").snapshot()
        live = LatencyHistogram("rt")
        live.record(0.002)
        merged = merge_stats_snapshots(
            [{"latency": {"rt": empty}}, {"latency": {"rt": live.snapshot()}}]
        )["latency"]["rt"]
        assert merged["count"] == 1
        assert merged["min_ms"] == pytest.approx(2.0)

    def test_instance_blocks_concatenate(self):
        merged = merge_stats_snapshots(
            [
                {"instance": {"id": "a"}},
                {"instances": [{"id": "b"}, {"id": "c"}]},
            ]
        )
        assert [i["id"] for i in merged["instances"]] == ["a", "b", "c"]
