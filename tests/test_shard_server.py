"""Multi-core node serving: ShardedNodeServer end to end.

A sharded node is N instances on N private ports plus a supervisor.
Covers the process-per-shard tentpole: every shard serving its own
port, graceful drain of in-flight requests, ``kill -9`` of one worker
leaving siblings serving while the supervisor respawns the victim with
WAL recovery, connections queued in the private listener's backlog
across the respawn gap, a respawned shard serving the node's newest
membership table, and a full ``repro verify`` linearizability run
against 4-shard nodes under chaos.  Every node is built by
``build_sharded_tcp_cluster``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import socket
import threading

import pytest

import repro
from repro.core.config import ZHTConfig
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    deframe_at,
    encode_framed_request,
)
from repro.net.cluster import SocketCluster, build_sharded_tcp_cluster
from repro.net.shard import fork_supported
from repro.net.tcp import MultiplexedTCPClient
from repro.obs import merge_stats_snapshots
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


def _recv_responses(sock: socket.socket, n: int) -> list[Response]:
    """Read framed responses off *sock* until *n* arrived or it closes."""
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
    return responses


def _ping_epochs(cluster: SocketCluster, node_indexes: list[int]) -> list[int]:
    """The membership epoch each shard of the given nodes answers a PING with."""
    client = MultiplexedTCPClient(cache_connections=False)
    try:
        epochs = []
        for index in node_indexes:
            for address in cluster.servers[index].shard_addresses:
                response = client.roundtrip(
                    address, Request(op=OpCode.PING, request_id=1, epoch=1), 5.0
                )
                assert response is not None, address
                epochs.append(response.epoch)
        return epochs
    finally:
        client.close()


def test_shards_serve_and_stats_aggregate():
    cluster = build_sharded_tcp_cluster(1, _config(num_shards=2))
    node = cluster.servers[0]
    try:
        zht = cluster.client(seed=7)
        for i in range(80):
            zht.insert(f"rp-{i:03d}".encode(), f"v{i}".encode())
        for i in range(80):
            assert zht.lookup(f"rp-{i:03d}".encode()) == f"v{i}".encode()
        # Both shard processes actually served: each private port answers
        # STATS and the merged node view sums to the full workload.
        snapshots = node.shard_stats()
        assert len(snapshots) == 2
        merged = merge_stats_snapshots(snapshots)
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
        cluster.close()


def test_graceful_stop_drains_inflight_requests():
    cluster = build_sharded_tcp_cluster(1, _config(num_shards=2))
    node = cluster.servers[0]
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
        responses = _recv_responses(sock, n)
        sock.close()
        stopper.join(timeout=10)
        assert len(responses) == n
        assert {r.request_id for r in responses} == set(range(1, n + 1))
    finally:
        cluster.close()


def test_kill_shard_siblings_survive_and_respawn_recovers_wal(tmp_path):
    config = _config(num_shards=2, persistence_dir=str(tmp_path))
    cluster = build_sharded_tcp_cluster(1, config)
    node = cluster.servers[0]
    try:
        zht = cluster.client(seed=7)
        for i in range(60):
            zht.insert(f"wal-{i:03d}".encode(), f"v{i}".encode())

        victim = 0
        survivor_addr = node.shard_addresses[1]
        old_pid = node.shard_pid(victim)
        assert old_pid is not None
        node.kill_shard(victim)

        # Sibling keeps serving while the victim is down (PING its
        # private port directly, no retries involved).
        client = MultiplexedTCPClient(cache_connections=False)
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
    finally:
        cluster.close()


def test_respawn_gap_queues_connections_in_the_listener_backlog(monkeypatch):
    """A connection made while a shard is dead and not yet respawned
    waits in its private listener's backlog and is served, on that same
    connection, by the replacement worker."""
    cluster = build_sharded_tcp_cluster(1, _config(num_shards=2))
    node = cluster.servers[0]
    gate = threading.Event()
    spawn = node._spawn

    def gated_spawn(*args, **kwargs):
        gate.wait(10.0)
        spawn(*args, **kwargs)

    monkeypatch.setattr(node, "_spawn", gated_spawn)
    sock = None
    try:
        old_pid = node.shard_pid(0)
        node.kill_shard(0)
        # The supervisor counts a respawn after it has reaped the old
        # worker, just before it calls the (gated) spawn.
        wait_until(lambda: node.respawns == 1, timeout=10.0, desc="old worker reaped")
        address = node.shard_addresses[0]
        sock = socket.create_connection((address.host, address.port), 2.0)
        sock.sendall(
            encode_framed_request(Request(op=OpCode.PING, request_id=9, epoch=1))
        )
        sock.settimeout(0.2)
        with pytest.raises(TimeoutError):
            sock.recv(1)  # nobody serves the port during the gap
        gate.set()
        sock.settimeout(10.0)
        responses = _recv_responses(sock, 1)
        assert [r.request_id for r in responses] == [9]
        assert node.shard_pid(0) != old_pid
    finally:
        gate.set()
        if sock is not None:
            sock.close()
        cluster.close()


def test_respawned_shard_serves_the_newest_membership():
    """A shard respawned after a membership change serves the node's
    current table, not the one its node was attached with."""
    from repro.scenario.cluster import default_config, repair_script

    config = default_config("sharded", 1).replace(num_shards=2, num_partitions=64)
    cluster = build_sharded_tcp_cluster(3, config)
    try:
        cluster.kill_node("node-0001")
        cluster.run(repair_script(cluster.membership, "node-0001", config, 0))
        before = _ping_epochs(cluster, [0, 2])
        assert len(set(before)) == 1 and before[0] > 1, before
        node = cluster.servers[0]
        old_pid = node.shard_pid(0)
        node.kill_shard(0)
        assert node.wait_for_respawn(0, old_pid, timeout=10.0)
        assert _ping_epochs(cluster, [0, 2]) == before
    finally:
        cluster.close()


@pytest.mark.parametrize("seed", [2, 7])
def test_kill_repair_then_kill_shard_keeps_acked_writes(seed):
    """kill9-shard with a node kill and its repair before the shard
    kill: the respawned shard must not route by its pre-repair table."""
    from repro.scenario import Scenario, run_scenario
    from repro.scenario.library import load_scenario

    document = load_scenario("kill9-shard").to_dict()
    document["faults"]["events"] = [
        {"action": "kill", "at": 0.2},
        {"action": "repair", "at": 0.35},
        {"action": "kill_shard", "at": 0.5, "target": 0},
    ]
    document["workload"]["ops_per_client"] = 120
    verdict = run_scenario(Scenario.from_dict(document), backend="sharded", seed=seed)
    assert verdict.ok, verdict.summary_lines()


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


def test_a_shard_is_reached_only_through_its_private_port():
    """No shared node port, no SO_REUSEPORT, no fd passing, no knob."""
    package = pathlib.Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        for word in ("SO_REUSEPORT", "send_fds", "recv_fds", "conn_receiver", "reuse_port"):
            assert word not in text, (path, word)
    assert "reuse_port" not in {f.name for f in dataclasses.fields(ZHTConfig)}
