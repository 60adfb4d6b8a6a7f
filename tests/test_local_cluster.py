"""Integration tests: full ZHT deployments on the local transport."""

import pytest

from repro import ZHT, ZHTConfig, build_local_cluster
from repro.core import KeyNotFound, ReplicationMode


@pytest.fixture
def cluster():
    with build_local_cluster(4, ZHTConfig(transport="local", num_partitions=64)) as c:
        yield c


class TestBasicWorkload:
    def test_insert_lookup_remove_append(self, cluster):
        z = cluster.client()
        z.insert("k", b"v")
        assert z.lookup("k") == b"v"
        z.append("k", b"+w")
        assert z.lookup("k") == b"v+w"
        z.remove("k")
        with pytest.raises(KeyNotFound):
            z.lookup("k")

    def test_many_keys_all_to_all(self, cluster):
        """The paper's micro-benchmark shape: every client op hits the
        owner directly (0 hops) wherever the key lands."""
        z = cluster.client()
        n = 200
        for i in range(n):
            z.insert(f"key-{i}", f"value-{i}".encode())
        for i in range(n):
            assert z.lookup(f"key-{i}") == f"value-{i}".encode()
        # Keys spread across all instances.
        loaded = [
            s
            for s in cluster.servers.values()
            if s.stats.inserts + s.stats.lookups > 0
        ]
        assert len(loaded) == len(cluster.servers)
        # Zero-hop: no redirects were needed with a current table.
        assert z.stats.redirects_followed == 0

    def test_get_and_contains_helpers(self, cluster):
        z = cluster.client()
        assert z.get("absent") is None
        assert z.get("absent", b"dflt") == b"dflt"
        z.insert("present", b"1")
        assert z.contains("present")
        assert not z.contains("absent")

    def test_str_and_bytes_keys_equivalent(self, cluster):
        z = cluster.client()
        z.insert("key", b"v")
        assert z.lookup(b"key") == b"v"

    def test_multiple_clients_see_same_data(self, cluster):
        a, b = cluster.client(), cluster.client()
        a.insert("shared", b"from-a")
        assert b.lookup("shared") == b"from-a"

    def test_concurrent_appends_interleave_losslessly(self, cluster):
        """Append is ZHT's lock-free concurrent modification primitive:
        every fragment from every client must survive."""
        clients = [cluster.client() for _ in range(4)]
        for round_no in range(10):
            for idx, z in enumerate(clients):
                z.append("dirlist", f"[c{idx}r{round_no}]".encode())
        final = clients[0].lookup("dirlist").decode()
        for idx in range(4):
            for round_no in range(10):
                assert f"[c{idx}r{round_no}]" in final


class TestReplicationIntegration:
    def test_replicas_receive_copies(self):
        cfg = ZHTConfig(transport="local", num_partitions=64, num_replicas=2)
        with build_local_cluster(4, cfg) as cluster:
            z = cluster.client()
            for i in range(30):
                z.insert(f"k{i}", b"v")
            # 30 keys x (1 primary + 2 replicas)
            assert cluster.total_pairs() == 90

    def test_sync_mode_also_replicates(self):
        cfg = ZHTConfig(
            transport="local",
            num_partitions=64,
            num_replicas=1,
            replication_mode=ReplicationMode.SYNC,
        )
        with build_local_cluster(3, cfg) as cluster:
            z = cluster.client()
            for i in range(10):
                z.insert(f"k{i}", b"v")
            assert cluster.total_pairs() == 20

    def test_remove_propagates_to_replicas(self):
        cfg = ZHTConfig(transport="local", num_partitions=64, num_replicas=1)
        with build_local_cluster(3, cfg) as cluster:
            z = cluster.client()
            z.insert("k", b"v")
            z.remove("k")
            assert cluster.total_pairs() == 0

    def test_append_propagates_to_replicas(self):
        cfg = ZHTConfig(transport="local", num_partitions=64, num_replicas=1)
        with build_local_cluster(3, cfg) as cluster:
            z = cluster.client()
            z.insert("k", b"a")
            z.append("k", b"b")
            values = [
                part.store.get(b"k")
                for server in cluster.servers.values()
                for part in server.partitions.values()
                if b"k" in part.store
            ]
            assert values == [b"ab", b"ab"]


class TestFailureHandling:
    def _failover_config(self):
        return ZHTConfig(
            transport="local",
            num_partitions=64,
            num_replicas=2,
            request_timeout=0.005,
            failures_before_dead=2,
            max_retries=12,
        )

    def test_lookup_survives_node_failure(self):
        with build_local_cluster(4, self._failover_config()) as cluster:
            z = cluster.client()
            for i in range(40):
                z.insert(f"k{i}", f"v{i}".encode())
            victim = cluster.membership.owner_of_partition(
                cluster.membership.partition_of_key(b"k0", "fnv1a_64")
            ).node_id
            cluster.kill_node(victim)
            # Every key must still be readable (replicas answer).
            for i in range(40):
                assert z.lookup(f"k{i}") == f"v{i}".encode()
            assert z.stats.failovers >= 1

    def test_writes_survive_node_failure(self):
        with build_local_cluster(4, self._failover_config()) as cluster:
            z = cluster.client()
            z.insert("k", b"v1")
            victim = cluster.membership.owner_of_partition(
                cluster.membership.partition_of_key(b"k", "fnv1a_64")
            ).node_id
            cluster.kill_node(victim)
            z.insert("k", b"v2")  # lands on the secondary
            assert z.lookup("k") == b"v2"

    def test_manager_repair_restores_routing(self):
        with build_local_cluster(4, self._failover_config()) as cluster:
            z = cluster.client()
            for i in range(40):
                z.insert(f"k{i}", b"v")
            victim = next(iter(cluster.membership.nodes))
            cluster.kill_node(victim)
            cluster.repair(victim)
            # The authoritative table no longer routes anything to victim.
            assert cluster.membership.partitions_of_node(victim) == []
            fresh = cluster.client()
            for i in range(40):
                assert fresh.lookup(f"k{i}") == b"v"
            assert fresh.stats.failovers == 0  # routed straight to survivors

    def test_unreplicated_failure_loses_data_but_not_routing(self):
        cfg = ZHTConfig(
            transport="local",
            num_partitions=64,
            num_replicas=0,
            request_timeout=0.005,
            failures_before_dead=1,
            max_retries=6,
        )
        with build_local_cluster(3, cfg) as cluster:
            z = cluster.client()
            z.insert("k", b"v")
            victim = cluster.membership.owner_of_partition(
                cluster.membership.partition_of_key(b"k", "fnv1a_64")
            ).node_id
            cluster.kill_node(victim)
            cluster.repair(victim)
            fresh = cluster.client()
            with pytest.raises(KeyNotFound):
                fresh.lookup("k")  # data gone, but the request routes


class TestDynamicMembership:
    def test_join_rebalances_partitions(self):
        with build_local_cluster(2, ZHTConfig(transport="local", num_partitions=64)) as cluster:
            z = cluster.client()
            for i in range(100):
                z.insert(f"k{i}", b"v")
            cluster.add_node()
            counts = [
                len(cluster.membership.partitions_of_node(n))
                for n in cluster.membership.nodes
            ]
            assert sum(counts) == 64
            assert min(counts) >= 16
            for i in range(100):
                assert z.lookup(f"k{i}") == b"v"

    def test_join_moves_data_without_rehash(self):
        """After a join, every key's *partition* is unchanged (no rehash);
        only partition→instance ownership moved."""
        cfg = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(2, cfg) as cluster:
            z = cluster.client()
            pids_before = {
                f"k{i}": cluster.membership.partition_of_key(
                    f"k{i}".encode(), cfg.hash_name
                )
                for i in range(50)
            }
            for k in pids_before:
                z.insert(k, b"v")
            cluster.add_node()
            for k, pid in pids_before.items():
                assert (
                    cluster.membership.partition_of_key(k.encode(), cfg.hash_name)
                    == pid
                )

    def test_retire_node_drains_and_departs(self):
        with build_local_cluster(3, ZHTConfig(transport="local", num_partitions=64)) as cluster:
            z = cluster.client()
            for i in range(60):
                z.insert(f"k{i}", b"v")
            victim = next(iter(cluster.membership.nodes))
            cluster.retire_node(victim)
            assert victim not in cluster.membership.nodes
            for i in range(60):
                assert z.lookup(f"k{i}") == b"v"

    def test_repeated_joins_scale_out(self):
        with build_local_cluster(1, ZHTConfig(transport="local", num_partitions=64)) as cluster:
            z = cluster.client()
            for i in range(50):
                z.insert(f"k{i}", b"v")
            for _ in range(3):
                cluster.add_node()
            assert len(cluster.membership.nodes) == 4
            for i in range(50):
                assert z.lookup(f"k{i}") == b"v"

    def test_stale_client_recovers_via_lazy_update(self):
        with build_local_cluster(2, ZHTConfig(transport="local", num_partitions=64)) as cluster:
            z = cluster.client()  # snapshot taken now
            for i in range(30):
                z.insert(f"k{i}", b"v")
            cluster.add_node()
            # Client still has the 2-node table; redirects fix it lazily.
            for i in range(30):
                assert z.lookup(f"k{i}") == b"v"
            assert z.stats.membership_refreshes >= 1
            assert (
                z.membership.epoch == cluster.membership.epoch
            )
