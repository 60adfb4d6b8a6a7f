"""ManagerCore.repair_after_failure over real TCP sockets.

The existing manager tests exercise repair over the in-process local
network; this file proves the same script works end to end when the
MIGRATE_BEGIN / MIGRATE_DATA / membership-broadcast traffic crosses
real loopback sockets and the dead node really is a stopped server."""

import random
import time

from repro.core.config import ZHTConfig
from repro.core.errors import ZHTError
from repro.core.manager import ManagerCore
from repro.core.protocol import OpCode
from repro.faults import AckLedger, audit_acked_writes
from repro.net.cluster import build_tcp_cluster


def _config() -> ZHTConfig:
    return ZHTConfig(
        transport="tcp",
        num_partitions=32,
        num_replicas=1,
        request_timeout=0.15,
        failures_before_dead=2,
        backoff_factor=1.5,
        max_retries=10,
    )


def _stop_node(cluster, victim: str) -> int:
    targets = {
        str(inst.address)
        for inst in cluster.membership.instances_on_node(victim)
    }
    stopped = 0
    for server in cluster.servers:
        if str(server.address) in targets:
            server.stop()
            stopped += 1
    return stopped


def _live_cores(cluster):
    return [s.core for s in cluster.servers if s.core is not None]


def test_repair_after_failure_over_tcp():
    config = _config()
    keys = [f"failover-{i:03d}".encode() for i in range(40)]
    with build_tcp_cluster(4, config, seed=11) as cluster:
        client = cluster.client(seed=11)
        for key in keys:
            client.insert(key, b"payload-" + key)
        time.sleep(0.2)  # drain in-flight async replica updates

        victim = sorted(cluster.membership.nodes)[1]
        assert _stop_node(cluster, victim) > 0

        manager_node = next(
            n for n in sorted(cluster.membership.nodes) if n != victim
        )
        manager = ManagerCore(
            manager_node, cluster.membership, config, rng=random.Random(7)
        )
        reassigned = cluster.run(manager.repair_after_failure(victim))
        assert len(reassigned) > 0
        assert not cluster.membership.nodes[victim].alive

        # Every acked write is readable through a fresh client that only
        # learns the post-repair table by talking to the survivors.
        fresh = cluster.client(seed=12)
        for key in keys:
            assert fresh.lookup(key) == b"payload-" + key

        # Repair restored the replication level: with one replica and
        # three survivors, every key must live on >= 2 alive servers.
        ledger = AckLedger()
        for key in keys:
            ledger.record(OpCode.INSERT, key, b"payload-" + key)
        audit = audit_acked_writes(
            ledger,
            None,
            _live_cores(cluster),
            cluster.membership,
            replicas=config.num_replicas,
            hash_name=config.hash_name,
        )
        assert audit.min_copies == 2
        assert audit.under_replicated == []


def test_client_failover_and_death_detection_over_tcp():
    """Without any manager at all, a client must ride through timeouts,
    mark the node dead after ``failures_before_dead``, and fail over to
    the replica for both reads and writes."""
    config = _config()
    with build_tcp_cluster(4, config, seed=3) as cluster:
        client = cluster.client(seed=3)
        keys = [f"ride-{i:03d}".encode() for i in range(20)]
        for key in keys:
            client.insert(key, b"v:" + key)
        time.sleep(0.2)

        victim = sorted(cluster.membership.nodes)[1]
        _stop_node(cluster, victim)

        acked = 0
        for key in keys:
            try:
                assert client.lookup(key) == b"v:" + key
                acked += 1
            except ZHTError:
                pass
        assert acked == len(keys), "replica failover lost reads"
        assert client.stats.failovers >= 1
        assert client.stats.nodes_marked_dead == 1
        assert client.stats.retries >= config.failures_before_dead
        # Writes keep landing on the failover replica too.
        client.insert(b"post-kill", b"w")
        assert client.lookup(b"post-kill") == b"w"
