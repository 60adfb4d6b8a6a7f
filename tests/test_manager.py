"""Unit tests for manager orchestration scripts (repro.core.manager)."""

import inspect

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.core import MembershipError, MigrationReport
from repro.core.errors import Status
from repro.core.manager import ManagerCore
from repro.core.protocol import OpCode, Request
from repro.net.transport import run_script


@pytest.fixture
def cluster():
    with build_local_cluster(
        3, ZHTConfig(transport="local", num_partitions=32)
    ) as c:
        yield c


def populate(cluster, count=60):
    z = cluster.client()
    for i in range(count):
        z.insert(f"key-{i:05d}", f"v{i}".encode())
    return z


class TestMigratePartition:
    def test_moves_data_and_ownership(self, cluster):
        z = populate(cluster)
        manager = cluster.manager()
        pid = cluster.membership.partition_of_key(b"key-00000", "fnv1a_64")
        src = cluster.membership.owner_of_partition(pid)
        dst = next(
            i
            for i in cluster.membership.instances.values()
            if i.node_id != src.node_id
        )
        report = cluster.run(manager.migrate_partition(pid, dst.instance_id))
        assert isinstance(report, MigrationReport)
        assert report.committed
        assert report.pairs_moved >= 1
        assert cluster.membership.partition_owner[pid] == dst.instance_id
        # The source's store for that partition is now empty.
        src_server = cluster.server_for_instance(src.instance_id)
        assert len(src_server.partition(pid).store) == 0
        # Data still reachable (new owner serves it).
        assert z.lookup("key-00000") == b"v0"

    def test_migrate_to_self_is_noop(self, cluster):
        manager = cluster.manager()
        pid = 0
        owner = cluster.membership.owner_of_partition(pid)
        report = cluster.run(manager.migrate_partition(pid, owner.instance_id))
        assert report.committed
        assert report.pairs_moved == 0

    def test_unknown_destination_rejected(self, cluster):
        manager = cluster.manager()
        with pytest.raises(MembershipError):
            cluster.run(manager.migrate_partition(0, "no-such-instance"))

    def test_dead_destination_aborts_and_keeps_data(self, cluster):
        populate(cluster)
        manager = cluster.manager()
        pid = cluster.membership.partition_of_key(b"key-00000", "fnv1a_64")
        src = cluster.membership.owner_of_partition(pid)
        dst = next(
            i
            for i in cluster.membership.instances.values()
            if i.node_id != src.node_id
        )
        cluster.network.kill_address(dst.address)
        report = cluster.run(manager.migrate_partition(pid, dst.instance_id))
        assert not report.committed
        # Ownership unchanged, source still serves the key.
        assert cluster.membership.partition_owner[pid] == src.instance_id
        z = cluster.client()
        assert z.lookup("key-00000") == b"v0"

    def test_dead_source_fails_cleanly(self, cluster):
        populate(cluster)
        manager = cluster.manager()
        pid = 0
        src = cluster.membership.owner_of_partition(pid)
        dst = next(
            i
            for i in cluster.membership.instances.values()
            if i.node_id != src.node_id
        )
        cluster.network.kill_address(src.address)
        report = cluster.run(manager.migrate_partition(pid, dst.instance_id))
        assert not report.committed
        assert cluster.membership.partition_owner[pid] == src.instance_id


class TestOneTransferPath:
    def test_only_the_transfer_script_builds_migrate_requests(self):
        """Join, retire and repair all move partition state through
        `transfer_partition`; no second copy loop may grow beside it."""
        whole = inspect.getsource(inspect.getmodule(ManagerCore))
        script = inspect.getsource(ManagerCore.transfer_partition)
        assert whole.count("OpCode.MIGRATE_") == script.count("OpCode.MIGRATE_") > 0

    def test_migrate_data_ack_reports_the_installed_pairs(self, cluster):
        populate(cluster)
        pid = cluster.membership.partition_of_key(b"key-00000", "fnv1a_64")
        src = cluster.membership.owner_of_partition(pid)
        dst = next(
            i
            for i in cluster.membership.instances.values()
            if i.node_id != src.node_id
        )
        held = len(cluster.server_for_instance(src.instance_id).partition(pid).store)
        report = cluster.run(cluster.manager().migrate_partition(pid, dst.instance_id))
        assert report.pairs_moved == held >= 1


class TestBroadcastMembership:
    def test_delivers_to_all_alive_instances(self, cluster):
        manager = cluster.manager()
        cluster.membership.mark_node_dead("node-0002")
        delivered = cluster.run(manager.broadcast_membership())
        alive_instances = 2  # 3 nodes - 1 dead, 1 instance each
        assert delivered == alive_instances

    def test_servers_adopt_broadcast_table(self, cluster):
        # Give servers stale private copies, then broadcast the new one.
        for server in cluster.servers.values():
            server.membership = cluster.membership.copy()
        cluster.membership.mark_node_dead("node-0001")
        manager = cluster.manager()
        cluster.run(manager.broadcast_membership())
        for server in cluster.servers.values():
            if server.info.node_id != "node-0001":
                assert not server.membership.nodes["node-0001"].alive


class TestRetireNode:
    def test_retire_requires_known_node(self, cluster):
        manager = cluster.manager()
        with pytest.raises(MembershipError):
            cluster.run(manager.retire_node("ghost"))

    def test_cannot_retire_last_node(self):
        with build_local_cluster(
            1, ZHTConfig(transport="local", num_partitions=8)
        ) as single:
            manager = single.manager()
            with pytest.raises(MembershipError):
                single.run(manager.retire_node("node-0000"))

    def test_reports_one_migration_per_partition(self, cluster):
        populate(cluster, 20)
        victim = "node-0002"
        owned = len(cluster.membership.partitions_of_node(victim))
        reports = cluster.retire_node(victim)
        assert len(reports) == owned
        assert all(r.committed for r in reports)


class TestRepairAfterFailure:
    def test_repair_unknown_node(self, cluster):
        manager = cluster.manager()
        with pytest.raises(MembershipError):
            cluster.run(manager.repair_after_failure("ghost"))

    def test_repair_without_replicas_keeps_routing(self, cluster):
        populate(cluster, 20)
        victim = "node-0001"
        cluster.kill_node(victim)
        reassigned = cluster.repair(victim)
        assert len(reassigned) == 32 // 3 or len(reassigned) > 0
        assert cluster.membership.partitions_of_node(victim) == []
        # All partitions still have an owner.
        assert all(owner for owner in cluster.membership.partition_owner)

    def test_repair_with_replicas_rebuilds_copies(self):
        cfg = ZHTConfig(
            transport="local",
            num_partitions=32,
            num_replicas=1,
            request_timeout=0.005,
        )
        with build_local_cluster(4, cfg) as cluster:
            z = populate(cluster, 40)
            victim = next(iter(cluster.membership.nodes))
            cluster.kill_node(victim)
            cluster.repair(victim)
            fresh = cluster.client()
            for i in range(40):
                assert fresh.lookup(f"key-{i:05d}") == f"v{i}".encode()
            # Replication level restored: each key exists on >= 2 alive
            # instances (may transiently exceed while stale copies age).
            for key in (b"key-00000", b"key-00017"):
                holders = sum(
                    1
                    for iid, server in cluster.servers.items()
                    if cluster.membership.nodes[server.info.node_id].alive
                    and any(
                        key in part.store
                        for part in server.partitions.values()
                    )
                )
                assert holders >= 2

    def test_unreachable_receiver_still_releases_every_source(self):
        """Repair holds each source frozen across the pushes; a receiver
        that never answers must not leave a partition locked or a parked
        request unanswered."""
        cfg = ZHTConfig(
            transport="local",
            num_partitions=32,
            num_replicas=1,
            request_timeout=0.005,
        )
        with build_local_cluster(4, cfg) as cluster:
            populate(cluster, 40)
            victim, deaf, survivor = list(cluster.membership.nodes)[:3]
            cluster.kill_node(victim)
            # Unreachable but not known dead: still in the replica chains.
            cluster.kill_node(deaf)
            network, table = cluster.network, cluster.membership

            def key_in(pid):
                return next(
                    key
                    for key in (b"probe-%d" % i for i in range(10_000))
                    if table.partition_of_key(key, cfg.hash_name) == pid
                )

            script = cluster.manager(survivor).repair_after_failure(victim)
            frozen_at, parked, reply = None, 0, None
            while True:
                try:
                    call = script.send(reply)
                except StopIteration as stop:
                    reassigned = stop.value
                    break
                if call.request.op == OpCode.MIGRATE_BEGIN:
                    frozen_at = call.address
                elif (
                    call.request.op == OpCode.MIGRATE_DATA
                    and call.address in network.dead
                ):
                    # The source is frozen right now: park a write behind it.
                    write = Request(
                        op=OpCode.INSERT,
                        key=key_in(call.request.partition),
                        value=b"late",
                        request_id=1000 + parked,
                    )
                    answer = network.servers[frozen_at].process(
                        write, reply_context=f"parked-{parked}"
                    )
                    assert answer is None
                    parked += 1
                reply = network.roundtrip(call.address, call.request, 1.0)

            assert reassigned
            assert parked > 0  # the deaf node really was a receiver
            assert not any(
                part.is_migrating
                for server in cluster.servers.values()
                for part in server.partitions.values()
            )
            assert sorted(c for c, _ in network.deferred_replies) == sorted(
                f"parked-{i}" for i in range(parked)
            )
            assert all(
                r.status == Status.MIGRATING for _, r in network.deferred_replies
            )
