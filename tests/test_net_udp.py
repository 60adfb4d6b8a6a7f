"""Tests for the UDP transport (repro.net.udp)."""

import threading
import time

import pytest

from repro.core import KeyNotFound, ZHTConfig
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request
from repro.net.cluster import build_udp_cluster
from repro.net.udp import UDPClient


@pytest.fixture(scope="module")
def udp_cluster():
    cfg = ZHTConfig(transport="udp", num_partitions=64, request_timeout=0.5)
    with build_udp_cluster(3, cfg) as cluster:
        yield cluster


class TestBasicOps:
    def test_full_op_cycle(self, udp_cluster):
        z = udp_cluster.client()
        z.insert("udp-key", b"udp-value")
        assert z.lookup("udp-key") == b"udp-value"
        z.append("udp-key", b"+more")
        assert z.lookup("udp-key") == b"udp-value+more"
        z.remove("udp-key")
        with pytest.raises(KeyNotFound):
            z.lookup("udp-key")

    def test_ack_per_message(self, udp_cluster):
        """Every datagram gets a response ack (that's how UDP mode works)."""
        z = udp_cluster.client()
        for i in range(30):
            z.insert(f"ack{i}", b"v")
        assert z.stats.retries == 0  # acks all arrived, no retransmits

    def test_many_ops(self, udp_cluster):
        z = udp_cluster.client()
        value = b"v" * 132
        for i in range(100):
            z.insert(f"m{i:014d}", value)
        assert all(z.lookup(f"m{i:014d}") == value for i in range(100))


class TestDeduplication:
    def test_duplicate_mutation_suppressed(self, udp_cluster):
        """A retransmitted append must not double-apply (§ udp docstring)."""
        z = udp_cluster.client()
        z.insert("dedup", b"base")
        # Build the exact datagram the client would send, then send it twice.
        pid_owner = z.core.membership.lookup_instance(b"dedup", "fnv1a_64")
        request = Request(
            op=OpCode.APPEND, key=b"dedup", value=b"+x", request_id=999_999
        )
        client = UDPClient()
        r1 = client.roundtrip(pid_owner.address, request, timeout=0.5)
        r2 = client.roundtrip(pid_owner.address, request, timeout=0.5)
        client.close()
        assert r1.status == r2.status
        assert z.lookup("dedup") == b"base+x"  # applied exactly once
        server = next(
            s
            for s in udp_cluster.servers
            if s.core.info.instance_id == pid_owner.instance_id
        )
        assert server.duplicates_suppressed >= 1

    def test_lookups_not_deduplicated(self, udp_cluster):
        """Reads are idempotent; they bypass the dedup cache."""
        z = udp_cluster.client()
        z.insert("read", b"v")
        owner = z.core.membership.lookup_instance(b"read", "fnv1a_64")
        request = Request(op=OpCode.LOOKUP, key=b"read", request_id=123_456)
        client = UDPClient()
        r1 = client.roundtrip(owner.address, request, timeout=0.5)
        r2 = client.roundtrip(owner.address, request, timeout=0.5)
        client.close()
        assert r1.value == r2.value == b"v"


class TestRobustness:
    def test_timeout_on_dead_address(self):
        client = UDPClient()
        response = client.roundtrip(
            Address("127.0.0.1", 1), Request(op=OpCode.PING), timeout=0.2
        )
        assert response is None
        client.close()

    def test_oversized_datagram_rejected_client_side(self, udp_cluster):
        client = UDPClient()
        request = Request(op=OpCode.INSERT, key=b"big", value=b"x" * 100_000)
        server_addr = udp_cluster.servers[0].address
        assert client.roundtrip(server_addr, request, timeout=0.2) is None
        client.close()

    def test_replication_over_udp(self):
        cfg = ZHTConfig(
            transport="udp",
            num_partitions=64,
            num_replicas=1,
            request_timeout=0.5,
        )
        with build_udp_cluster(3, cfg) as cluster:
            z = cluster.client()
            for i in range(15):
                z.insert(f"r{i}", b"v")
            deadline = time.time() + 2
            total = 0
            while time.time() < deadline:
                total = sum(
                    len(p.store)
                    for s in cluster.servers
                    for p in s.core.partitions.values()
                )
                if total == 30:
                    break
                time.sleep(0.05)
            assert total == 30

    def test_servers_replicating_to_each_other_do_not_wait_on_each_other(self):
        """Two servers, each the other's sync replica, under four writers:
        the loop hands a write that waits on its replica's ack to the
        effect worker and keeps serving, so no ack waits on a loop that
        is itself waiting for an ack."""
        timeout = 0.5
        cfg = ZHTConfig(
            transport="udp", num_partitions=64, num_replicas=1, request_timeout=timeout
        )
        errors: list[Exception] = []
        latencies: list[float] = []

        def writer(cluster, tid):
            z = cluster.client(seed=tid)
            for i in range(200):
                t0 = time.perf_counter()
                try:
                    z.insert(f"w{tid}-{i}", b"v")
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)
                latencies.append(time.perf_counter() - t0)

        with build_udp_cluster(2, cfg) as cluster:
            threads = [
                threading.Thread(target=writer, args=(cluster, tid)) for tid in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors[:3]
        assert len(latencies) == 800
        assert max(latencies) < timeout
