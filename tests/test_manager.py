"""Unit tests for manager orchestration scripts (repro.core.manager)."""

import inspect
import random
import shutil
import time

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.core import MembershipError, MigrationReport
from repro.core.errors import Status
from repro.core.manager import ManagerCore
from repro.core.protocol import OpCode, Request
from repro.core.loops import SCRIPT_TIMEOUT_FACTOR, script_loop
from repro.net.cluster import build_tcp_cluster
from repro.novoht import NoVoHT
from repro.sim.cluster import SimSpec, SimulatedCluster


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

    def test_committed_move_of_a_persistent_partition(self, tmp_path):
        """One image write on each side: the source is cleared by
        installing the empty image (0 WAL records, not 2N dead ones), and
        a copy of either directory reopens as exactly what it serves."""
        cfg = ZHTConfig(
            transport="local", num_partitions=4, persistence_dir=str(tmp_path / "live")
        )
        with build_local_cluster(2, cfg) as cluster:
            pid = 2
            src = cluster.membership.owner_of_partition(pid)
            dst = next(
                i for i in cluster.membership.instances.values() if i is not src
            )
            src_store = cluster.server_for_instance(src.instance_id).partition(pid).store
            pairs = {b"key-%05d" % i: b"v" * 100 for i in range(2000)}
            src_store.apply_batch([("put", k, v) for k, v in pairs.items()])
            report = cluster.run(cluster.manager().migrate_partition(pid, dst.instance_id))
            assert report.committed and report.pairs_moved == 2000
            assert src_store.info()["wal_records"] == 0
            dst_store = cluster.server_for_instance(dst.instance_id).partition(pid).store
            assert dst_store.info()["wal_records"] == 0
            for name, store, want in (("src", src_store, {}), ("dst", dst_store, pairs)):
                image = shutil.copytree(store.path, tmp_path / name)
                with NoVoHT(str(image)) as reopened:
                    assert dict(reopened.items()) == want

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


    def test_a_late_freeze_reply_still_releases_the_source(self):
        """A MIGRATE_BEGIN answered after the script's call timeout fails
        the move, and the abort sent after it lands behind the late freeze
        on a real socket: the source ends up serving, not frozen."""
        config = ZHTConfig(transport="tcp", num_partitions=8, request_timeout=0.05)
        with build_tcp_cluster(2, config) as cluster:
            z = cluster.client()
            z.insert("k", "v")
            pid = cluster.membership.partition_of_key(b"k", config.hash_name)
            src = cluster.membership.owner_of_partition(pid)
            dst = next(
                i for i in cluster.membership.instances.values()
                if i.node_id != src.node_id
            )
            core = next(c for c in cluster.cores if c.info.instance_id == src.instance_id)
            begin = core._handle_migrate_begin
            late = 1.5 * config.request_timeout * SCRIPT_TIMEOUT_FACTOR

            def slow_begin(request):
                frozen = begin(request)
                time.sleep(late)
                return frozen

            core._handle_migrate_begin = slow_begin
            report = cluster.run(cluster.manager().migrate_partition(pid, dst.instance_id))
            assert not report.committed
            deadline = time.monotonic() + 2.0
            while core.partition(pid).is_migrating and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not core.partition(pid).is_migrating
            assert cluster.membership.partition_owner[pid] == src.instance_id
            z.insert("k", "v2")
            assert z.lookup("k") == b"v2"


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
                    answer = network.serve(frozen_at, write, f"parked-{parked}")
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


class _Backend:
    """The two in-process ways to reach server cores and run a manager
    script: the threaded ``local`` network and the DES."""

    def __init__(self, kind: str, persistence_dir: str | None):
        self.config = ZHTConfig(
            transport="local",
            num_partitions=4,
            request_timeout=0.05,
            persistence_dir=persistence_dir,
        )
        if kind == "local":
            self.cluster = build_local_cluster(4, self.config)
            self.membership = self.cluster.membership
            self.cores = {
                iid: self.cluster.server_for_instance(iid)
                for iid in self.membership.instances
            }
            self.run = self.cluster.run
        else:
            self.cluster = sim = SimulatedCluster(
                SimSpec(num_nodes=4, config=self.config)
            )
            self.membership = sim.membership
            self.cores = {
                inst.instance_id: core
                for inst, core in zip(sim.instances, sim.handlers)
            }

            def run(script):
                done = sim.env.process(
                    sim.drive(script_loop(script, self.config)), name="manager"
                )
                sim.env.run()
                return done.result

            self.run = run
        self.manager = ManagerCore(
            next(iter(self.membership.nodes)),
            self.membership,
            self.config,
            rng=random.Random(0),
        )

    def close(self):
        if hasattr(self.cluster, "close"):
            self.cluster.close()
        else:
            for core in self.cores.values():
                core.close()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["local", "sim", "local-persistent"])
def test_every_transfer_replaces_what_the_receiver_held(kind, seed, tmp_path):
    """Model-based: random insert/remove/append on the owner of one
    partition, interleaved with copies (what repair runs) and moves
    (what join and retire run) to instances that still hold an older
    copy.  After every transfer each receiver's store equals the
    owner's — above all, a key removed on the owner answers
    ``KEY_NOT_FOUND`` on every receiver (the merging import kept it)."""
    backend = _Backend(
        kind.split("-")[0], str(tmp_path) if kind.endswith("persistent") else None
    )
    rng = random.Random(seed)
    table, pid = backend.membership, 1
    keys = [
        key
        for key in (b"k%d" % i for i in range(400))
        if table.partition_of_key(key, backend.config.hash_name) == pid
    ][:10]
    model: dict[bytes, bytes] = {}

    def store_of(iid):
        return dict(backend.cores[iid].partition(pid).store.items())

    def check(receivers):
        for inst in receivers:
            assert store_of(inst.instance_id) == model
            for key in keys:
                answer = backend.cores[inst.instance_id].handle(
                    Request(op=OpCode.LOOKUP, key=key, partition=pid, replica_index=1)
                ).response
                want = Status.OK if key in model else Status.KEY_NOT_FOUND
                assert answer.status == want, key

    try:
        for _step in range(60):
            owner = table.owner_of_partition(pid)
            others = [i for i in table.instances.values() if i is not owner]
            roll = rng.random()
            if roll < 0.75:
                key, value = rng.choice(keys), b"v%d" % rng.randrange(1000)
                op = rng.choice([OpCode.INSERT, OpCode.REMOVE, OpCode.APPEND])
                status = (
                    backend.cores[owner.instance_id]
                    .handle(Request(op=op, key=key, value=value, partition=pid))
                    .response.status
                )
                if op == OpCode.REMOVE:
                    assert status == (
                        Status.OK if key in model else Status.KEY_NOT_FOUND
                    )
                    model.pop(key, None)
                else:
                    assert status == Status.OK
                    model[key] = (
                        model.get(key, b"") + value if op == OpCode.APPEND else value
                    )
            elif roll < 0.9:
                receivers = rng.sample(others, rng.randint(1, 2))
                moved = backend.run(
                    backend.manager.transfer_partition(pid, owner, receivers)
                )
                assert moved == len(model)
                check(receivers)
            else:
                dst = rng.choice(others)
                report = backend.run(
                    backend.manager.migrate_partition(pid, dst.instance_id)
                )
                assert report.committed and report.pairs_moved == len(model)
                assert table.owner_of_partition(pid).instance_id == dst.instance_id
                check([dst])
                assert store_of(owner.instance_id) == {}
    finally:
        backend.close()
