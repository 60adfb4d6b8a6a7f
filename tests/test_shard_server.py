"""Multi-core node serving: ShardedNodeServer end to end.

Covers the process-per-shard tentpole: shared-port delivery (both the
SO_REUSEPORT and the FD-passing dispatcher paths), graceful drain of
in-flight requests, ``kill -9`` of one worker leaving siblings serving
while the supervisor respawns the victim with WAL recovery, and a full
``repro verify`` linearizability run against a 4-shard node under
chaos.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.api import ZHT
from repro.core.client import ZHTClientCore
from repro.core.config import ZHTConfig
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    deframe_at,
    encode_framed_request,
)
from repro.net.shard import (
    ShardedNodeServer,
    fd_passing_supported,
    fork_supported,
    reuse_port_supported,
)
from repro.net.tcp import MultiplexedTCPClient, TCPClient
from tests._wait import wait_until

pytestmark = pytest.mark.skipif(
    not fork_supported(), reason="needs the fork start method"
)


def _config(**overrides) -> ZHTConfig:
    defaults = dict(
        transport="tcp",
        num_partitions=64,
        request_timeout=0.5,
        max_retries=8,
    )
    defaults.update(overrides)
    return ZHTConfig(**defaults)


def _standalone_node(config: ZHTConfig, **kwargs) -> ShardedNodeServer:
    node = ShardedNodeServer(config, **kwargs)
    node.bootstrap_membership(seed=0)
    node.start()
    return node


def _client(node: ShardedNodeServer) -> tuple[ZHT, MultiplexedTCPClient]:
    assert node.membership is not None
    transport = MultiplexedTCPClient()
    core = ZHTClientCore(
        node.membership.copy(), node.config, rng=random.Random(7)
    )
    return ZHT(core, transport), transport


@pytest.mark.skipif(
    not reuse_port_supported(), reason="SO_REUSEPORT unavailable"
)
def test_reuse_port_shards_serve_and_stats_aggregate():
    config = _config()
    node = _standalone_node(config, num_shards=2, reuse_port=True)
    try:
        zht, transport = _client(node)
        for i in range(80):
            zht.insert(f"rp-{i:03d}".encode(), f"v{i}".encode())
        for i in range(80):
            assert zht.lookup(f"rp-{i:03d}".encode()) == f"v{i}".encode()
        transport.close()
        # Both shard processes actually served: each private port answers
        # STATS and the merged node view sums to the full workload.
        snapshots = node.shard_stats()
        assert len(snapshots) == 2
        merged = node.node_stats()
        assert merged["shards"] == 2
        # >= not ==: a request that times out under load is retried and
        # counted on the server once per delivery.
        assert merged["counters"]["server.inserts"] >= 80
        assert merged["counters"]["server.lookups"] >= 80
        per_shard = [
            s["counters"].get("tcp.server.requests", 0) for s in snapshots
        ]
        assert all(n > 0 for n in per_shard), per_shard
    finally:
        node.stop()


@pytest.mark.skipif(
    not fd_passing_supported(), reason="FD passing unavailable"
)
def test_dispatcher_fallback_serves_without_reuse_port():
    config = _config()
    node = _standalone_node(config, num_shards=2, reuse_port=False)
    try:
        assert not node.reuse_port
        zht, transport = _client(node)
        for i in range(40):
            zht.insert(f"fd-{i:03d}".encode(), b"v")
        for i in range(40):
            assert zht.lookup(f"fd-{i:03d}".encode()) == b"v"
        transport.close()
        # The shared (dispatcher) port serves bootstrap traffic too: a
        # request landing on a non-owning shard gets a REDIRECT.
        client = TCPClient(cache_size=0)
        response = client.roundtrip(
            node.address,
            Request(op=OpCode.PING, request_id=1, epoch=1),
            2.0,
        )
        client.close()
        assert response is not None
    finally:
        node.stop()


def test_graceful_stop_drains_inflight_requests():
    config = _config()
    node = _standalone_node(config, num_shards=2)
    try:
        # Pipeline a burst of writes straight at one shard's private
        # port, then immediately ask for a graceful stop: every request
        # already on the wire must still get its response before the
        # worker exits.
        address = node.shard_addresses[0]
        sock = socket.create_connection((address.host, address.port), 2.0)
        n = 30
        burst = bytearray()
        for i in range(n):
            burst += encode_framed_request(
                Request(
                    op=OpCode.INSERT,
                    key=f"drain-{i}".encode(),
                    value=b"v",
                    request_id=i + 1,
                    epoch=1,
                )
            )
        sock.sendall(burst)
        stopper = threading.Thread(
            target=node.stop, kwargs={"graceful": True}
        )
        stopper.start()
        sock.settimeout(5.0)
        buffer = b""
        responses: list[Response] = []
        while len(responses) < n:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            offset = 0
            while True:
                payload, offset = deframe_at(buffer, offset)
                if payload is None:
                    break
                responses.append(Response.decode(payload))
            buffer = buffer[offset:]
        sock.close()
        stopper.join(timeout=10)
        assert len(responses) == n
        assert {r.request_id for r in responses} == set(range(1, n + 1))
    finally:
        node.stop()


def test_kill_shard_siblings_survive_and_respawn_recovers_wal(tmp_path):
    config = _config(persistence_dir=str(tmp_path))
    node = _standalone_node(config, num_shards=2)
    try:
        zht, transport = _client(node)
        for i in range(60):
            zht.insert(f"wal-{i:03d}".encode(), f"v{i}".encode())

        victim = 0
        survivor_addr = node.shard_addresses[1]
        old_pid = node.shard_pid(victim)
        assert old_pid is not None
        node.kill_shard(victim)

        # Sibling keeps serving while the victim is down (PING its
        # private port directly, no retries involved).
        client = TCPClient(cache_size=0)
        response = client.roundtrip(
            survivor_addr,
            Request(op=OpCode.PING, request_id=1, epoch=1),
            2.0,
        )
        client.close()
        assert response is not None

        # Supervisor respawns the victim on the same sockets...
        assert node.wait_for_respawn(victim, old_pid, timeout=10.0)
        assert node.respawns >= 1

        # ...and the fresh worker recovered its shard's keys from the
        # WAL: every key becomes readable, including the victim's.
        def all_keys_recovered() -> bool:
            return all(
                zht.lookup(f"wal-{i:03d}".encode()) == f"v{i}".encode()
                for i in range(60)
            )

        wait_until(
            all_keys_recovered,
            timeout=10.0,
            desc="respawned shard to recover all 60 WAL keys",
        )
        transport.close()
    finally:
        node.stop()


def test_sharded_verify_linearizable_under_chaos():
    """``repro verify --backend sharded``: a concurrent workload against
    4-shard nodes with a mid-run node kill + repair and flapping message
    chaos checks out linearizable."""
    from repro.faults.plan import FaultPlan
    from repro.verify import run_verify

    verdict = run_verify(
        "sharded",
        ops=240,
        seed=3,
        clients=4,
        nodes=3,
        replicas=1,
        chaos=True,
        plan=FaultPlan.flapping(3),
        shards=4,
    )
    assert verdict.ok, verdict.summary_lines()
