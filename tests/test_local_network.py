"""Tests for the in-process transport's fault-injection surface."""

import sys
import threading
import time

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Status
from repro.net.local import LocalNetwork
from tests.test_server_core import deploy


def wire(table, servers):
    network = LocalNetwork()
    for server in servers.values():
        network.add_server(server)
    return network


class TestReachability:
    def test_roundtrip_to_registered_server(self):
        table, servers, _cfg = deploy()
        network = wire(table, servers)
        address = next(iter(servers.values())).info.address
        response = network.roundtrip(address, Request(op=OpCode.PING), 1.0)
        assert response.status == Status.OK
        assert network.stats.roundtrips == 1

    def test_unknown_address_times_out(self):
        table, servers, _cfg = deploy()
        network = wire(table, servers)
        assert network.roundtrip(Address("ghost", 1), Request(op=OpCode.PING), 1.0) is None
        assert network.stats.dropped == 1

    def test_kill_and_revive(self):
        table, servers, _cfg = deploy()
        network = wire(table, servers)
        address = next(iter(servers.values())).info.address
        network.kill_address(address)
        assert network.roundtrip(address, Request(op=OpCode.PING), 1.0) is None
        network.revive_address(address)
        assert (
            network.roundtrip(address, Request(op=OpCode.PING), 1.0).status
            == Status.OK
        )

    def test_kill_node_kills_all_its_addresses(self):
        table, servers, _cfg = deploy()
        network = wire(table, servers)
        addresses = [s.info.address for s in servers.values()]
        network.kill_node(addresses[:2])
        assert network.roundtrip(addresses[0], Request(op=OpCode.PING), 1.0) is None
        assert network.roundtrip(addresses[1], Request(op=OpCode.PING), 1.0) is None
        assert network.roundtrip(addresses[2], Request(op=OpCode.PING), 1.0) is not None

    def test_oneway_counts_and_drops(self):
        table, servers, _cfg = deploy()
        network = wire(table, servers)
        address = next(iter(servers.values())).info.address
        network.send_oneway(address, Request(op=OpCode.PING))
        network.send_oneway(Address("ghost", 1), Request(op=OpCode.PING))
        assert network.stats.oneways == 1
        assert network.stats.dropped == 1

    def test_close_closes_server_stores(self):
        from tests.test_server_core import owner_server

        table, servers, cfg = deploy()
        network = wire(table, servers)
        server, _pid = owner_server(table, servers, b"probe", cfg)
        server.handle(Request(op=OpCode.INSERT, key=b"probe", value=b"v"))
        network.close()
        from repro.core.errors import StoreError

        part = next(iter(server.partitions.values()))
        with pytest.raises(StoreError):
            part.store.put(b"x", b"y")


class TestParkedRoundtrip:
    """A round trip whose request is queued behind a frozen partition
    waits for the release like a socket client would — it used to come
    back as an instant ``None``: a timeout strike against a healthy owner,
    and a retry on top of the parked copy (a duplicate APPEND fragment)."""

    KEY = b"parked"

    def append_across_freeze(self, cluster, end_freeze):
        cfg = cluster.config
        pid = cluster.membership.partition_of_key(self.KEY, cfg.hash_name)
        owner = cluster.membership.owner_of_partition(pid)
        network = cluster.network
        begin = Request(op=OpCode.MIGRATE_BEGIN, partition=pid)
        assert network.roundtrip(owner.address, begin, 1.0).status == Status.OK
        client = cluster.client(seed=1)
        worker = threading.Thread(target=client.append, args=(self.KEY, b"x"))
        worker.start()
        part = cluster.server_for_instance(owner.instance_id).partition(pid)
        deadline = time.monotonic() + 5.0
        while not part.queued and time.monotonic() < deadline:
            time.sleep(0.001)
        assert part.queued and worker.is_alive()  # parked, caller waiting
        release = network.roundtrip(owner.address, end_freeze(pid, owner), 1.0)
        assert release.status == Status.OK
        worker.join(5.0)
        assert not worker.is_alive()
        assert client.stats.nodes_marked_dead == 0
        assert client.lookup(self.KEY) == b"x"  # applied exactly once
        return client

    @pytest.fixture
    def cluster(self):
        cfg = ZHTConfig(
            transport="local",
            num_partitions=16,
            request_timeout=1.0,  # also the (jittered) retry backoff base
            failures_before_dead=1,  # a single timeout strike would show
        )
        with build_local_cluster(3, cfg) as c:
            yield c

    def test_release_bounces_the_caller_with_migrating(self, cluster):
        def abort(pid, _owner):
            return Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")

        client = self.append_across_freeze(cluster, abort)
        assert client.stats.retries == 1  # the MIGRATING bounce, no timeout

    def test_commit_hands_the_caller_the_new_owners_answer(self, cluster):
        def commit(pid, owner):
            new_owner = next(
                inst
                for inst in cluster.membership.instances.values()
                if inst.node_id != owner.node_id
            )
            cluster.membership.reassign_partition(pid, new_owner.instance_id)
            return Request(
                op=OpCode.MIGRATE_COMMIT,
                partition=pid,
                value=b"commit",
                payload=str(new_owner.address).encode(),
            )

        client = self.append_across_freeze(cluster, commit)
        assert client.stats.retries == 0

    def test_an_unreleased_freeze_costs_the_callers_timeout(self, cluster):
        pid = cluster.membership.partition_of_key(self.KEY, cluster.config.hash_name)
        owner = cluster.membership.owner_of_partition(pid)
        network = cluster.network
        network.roundtrip(
            owner.address, Request(op=OpCode.MIGRATE_BEGIN, partition=pid), 1.0
        )
        t0 = time.monotonic()
        insert = Request(op=OpCode.INSERT, key=self.KEY, value=b"v")
        assert network.roundtrip(owner.address, insert, 0.05) is None
        assert 0.05 <= time.monotonic() - t0 < 1.0

    def test_stress_freezes_neither_lose_nor_duplicate_an_append(self):
        """More client threads than cores append to one partition while
        another thread freezes and releases it in a loop: every caller
        comes back, an acked fragment lands exactly once and a failed one
        at most once."""
        cfg = ZHTConfig(transport="local", num_partitions=4, request_timeout=0.02)
        workers, per_worker = 6, 25
        acked, failed = [], []
        with build_local_cluster(2, cfg) as cluster:
            pid = cluster.membership.partition_of_key(self.KEY, cfg.hash_name)
            owner = cluster.membership.owner_of_partition(pid)
            network = cluster.network
            stop = threading.Event()

            def freezer():
                begin = Request(op=OpCode.MIGRATE_BEGIN, partition=pid)
                abort = Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")
                while not stop.is_set():
                    network.roundtrip(owner.address, begin, 1.0)
                    time.sleep(0.001)
                    network.roundtrip(owner.address, abort, 1.0)
                    time.sleep(0.001)

            def appender(tag):
                client = cluster.client(seed=tag)
                for i in range(per_worker):
                    fragment = b"[%d:%d]" % (tag, i)
                    try:
                        client.append(self.KEY, fragment)
                    except Exception:  # noqa: BLE001 - tallied, judged below
                        failed.append(fragment)
                    else:
                        acked.append(fragment)

            threads = [threading.Thread(target=freezer)] + [
                threading.Thread(target=appender, args=(tag,)) for tag in range(workers)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads[1:]:
                    t.join(60.0)
                stop.set()
                threads[0].join(5.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert len(acked) + len(failed) == workers * per_worker
            value = cluster.client().lookup(self.KEY)
            assert cluster.server_for_instance(owner.instance_id).stats.queued > 0
        assert acked
        for fragment in acked:
            assert value.count(fragment) == 1, fragment
        for fragment in failed:
            assert value.count(fragment) <= 1, fragment
