"""Cross-cutting tests pinning specific quantitative claims from the paper
that aren't covered by a single figure's benchmark."""

import time

import pytest

from repro import ZHTConfig, build_local_cluster, build_membership
from repro.sim import (
    AppendWorkload,
    MicroBenchmarkWorkload,
    SimSpec,
    SimulatedCluster,
    simulate,
)


class TestAppendAsFastAsInsert:
    """§V.A: "the append operation is at least as fast as inserts, if not
    faster, even under concurrent appends to the same key/value pair"."""

    def test_in_simulation(self):
        spec_a = SimSpec(num_nodes=16)
        appends = SimulatedCluster(spec_a).run_workload(
            AppendWorkload(ops_per_client=12, hot_keys=1)
        )
        spec_b = SimSpec(num_nodes=16)
        inserts = SimulatedCluster(spec_b).run_workload(
            MicroBenchmarkWorkload(ops_per_client=12, include_remove=False)
        )
        # Hot-key appends all land on one server (worst case) yet per-op
        # latency stays within a small factor of spread-out inserts.
        assert appends.latency_ms < 6 * inserts.latency_ms

    def test_on_real_store(self):
        with build_local_cluster(
            2, ZHTConfig(transport="local", num_partitions=16)
        ) as cluster:
            z = cluster.client()
            n = 500
            start = time.perf_counter()
            for i in range(n):
                z.insert(f"ins-{i}", b"x" * 32)
            insert_time = time.perf_counter() - start
            start = time.perf_counter()
            for i in range(n):
                z.append("hot-key", b"x" * 32)
            append_time = time.perf_counter() - start
            # Appends grow one value to 16 KB; still same order as inserts.
            assert append_time < 3 * insert_time


class TestMembershipFootprint:
    """§III.A: "membership is very small, it takes 32 bytes per entry
    (for each node), 1million nodes only need 32MB memory" and the
    overall <1% memory footprint goal."""

    def test_per_node_footprint_is_small(self):
        cfg = ZHTConfig(num_partitions=4096)
        import random

        table, _n, _i = build_membership(1024, cfg, random.Random(0))
        per_node = table.memory_footprint_bytes() / 1024
        # JSON is chattier than the paper's packed 32 B, but stays O(100 B).
        assert per_node < 250

    def test_footprint_linear_in_nodes(self):
        import random

        cfg = ZHTConfig(num_partitions=4096)
        small, _n, _i = build_membership(256, cfg, random.Random(0))
        large, _n2, _i2 = build_membership(1024, cfg, random.Random(0))
        ratio = large.memory_footprint_bytes() / small.memory_footprint_bytes()
        assert 3.0 <= ratio <= 5.0  # ~4x nodes => ~4x bytes


class TestZeroHopProperty:
    """The defining property: with a current membership table, every
    operation reaches the right server directly."""

    def test_no_redirects_with_current_table(self):
        with build_local_cluster(
            8, ZHTConfig(transport="local", num_partitions=64)
        ) as cluster:
            z = cluster.client()
            for i in range(400):
                z.insert(f"zh-{i}", b"v")
            for i in range(400):
                z.lookup(f"zh-{i}")
            assert z.stats.redirects_followed == 0
            assert z.stats.retries == 0

    def test_at_most_one_redirect_when_stale(self):
        """§II Table 1: ZHT routing is "0 to 2" — one redirect round trip
        at worst, after which the lazy update makes the client current."""
        with build_local_cluster(
            2, ZHTConfig(transport="local", num_partitions=64)
        ) as cluster:
            z = cluster.client()
            for i in range(100):
                z.insert(f"zh-{i}", b"v")
            cluster.add_node()  # client's table is now stale
            before = z.stats.redirects_followed
            for i in range(100):
                z.lookup(f"zh-{i}")
            redirects = z.stats.redirects_followed - before
            assert redirects <= 1  # first redirect refreshes the table

    def test_bounded_hops_under_churn(self):
        with build_local_cluster(
            2, ZHTConfig(transport="local", num_partitions=64)
        ) as cluster:
            z = cluster.client()
            for i in range(50):
                z.insert(f"churn-{i}", b"v")
            for _ in range(3):
                cluster.add_node()
                for i in range(50):
                    assert z.lookup(f"churn-{i}") == b"v"
            # Across 3 joins, lazy refresh costs at most one redirect each.
            assert z.stats.redirects_followed <= 3


class TestMicroBenchmarkEndToEnd:
    """§IV.A's workload, run on the real implementation end to end."""

    def test_all_to_all_insert_lookup_remove(self):
        with build_local_cluster(
            4, ZHTConfig(transport="local", num_partitions=64)
        ) as cluster:
            workload = MicroBenchmarkWorkload(ops_per_client=25, seed=11)
            clients = [cluster.client(seed=i) for i in range(4)]
            for cid, z in enumerate(clients):
                for op, key, value in workload.client_ops(cid):
                    from repro.net.transport import drive

                    drive(z.run(z.core.driver(op, key, value)), z.transport)
            # insert+lookup+remove leaves the cluster empty.
            assert cluster.total_pairs() == 0
