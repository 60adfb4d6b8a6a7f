"""Tests for the simulated cluster and calibration (repro.sim.cluster)."""

import gc
import hashlib
import random
import weakref

import pytest

from repro.core.client import ZHTClientCore
from repro.core.loops import OpClient
from repro.core.config import ReplicationMode, ZHTConfig
from repro.core.errors import Status
from repro.core.protocol import OpCode, Request, Response
from repro.core.server import HandleResult
from repro.faults.plan import FaultPlan
from repro.sim import (
    CASSANDRA_CLUSTER,
    CLUSTER_ETHERNET_LINK,
    MEMCACHED_BGP,
    MEMCACHED_CLUSTER,
    ZHT_BGP,
    ZHT_BGP_NO_CONN_CACHE,
    ZHT_CLUSTER,
    MicroBenchmarkWorkload,
    SimSpec,
    SimulatedCluster,
    simulate,
)


class TestBasicRuns:
    def test_single_node(self):
        result = simulate(1, ops_per_client=8)
        assert result.ops == 24  # insert + lookup + remove phases
        assert result.latency_ms > 0
        assert result.throughput_ops_s > 0

    def test_all_clients_complete(self):
        result = simulate(16, ops_per_client=4)
        assert result.ops == 16 * 12

    def test_deterministic_given_seed(self):
        a = simulate(8, ops_per_client=4, seed=42)
        b = simulate(8, ops_per_client=4, seed=42)
        assert a.latency_ms == b.latency_ms
        assert a.duration_s == b.duration_s

    def test_real_core_semantics_hold_in_sim(self):
        """The sim runs genuine ZHTServerCore instances: after the full
        insert/lookup/remove cycle, every store is empty again."""
        spec = SimSpec(num_nodes=8, service=ZHT_BGP)
        cluster = SimulatedCluster(spec)
        cluster.run_workload(MicroBenchmarkWorkload(ops_per_client=6))
        total = sum(
            len(part.store)
            for handler in cluster.handlers
            for part in handler.partitions.values()
        )
        assert total == 0

    def test_insert_only_workload_leaves_data(self):
        spec = SimSpec(num_nodes=4, service=ZHT_BGP)
        cluster = SimulatedCluster(spec)
        cluster.run_workload(
            MicroBenchmarkWorkload(ops_per_client=5, include_remove=False)
        )
        total = sum(
            len(part.store)
            for handler in cluster.handlers
            for part in handler.partitions.values()
        )
        assert total == 4 * 5

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(SimSpec(num_nodes=2, topology="hypercube"))


class TestCalibration:
    """The sim must land on the paper's stated anchor points (§IV.C)."""

    def test_one_node_under_half_ms(self):
        # "on one node, the latency ... is extremely low (<0.5ms)"
        assert simulate(1, ops_per_client=16).latency_ms < 0.5

    def test_two_node_near_point_six_ms(self):
        # "100% efficiency implies a latency of about 0.6ms per operation"
        latency = simulate(2, ops_per_client=16).latency_ms
        assert 0.45 <= latency <= 0.75

    def test_latency_grows_with_scale(self):
        small = simulate(2, ops_per_client=8).latency_ms
        large = simulate(256, ops_per_client=8).latency_ms
        assert large > small

    def test_throughput_scales_near_linearly(self):
        # Fig 9: "throughputs ... increases near-linearly with scale".
        t64 = simulate(64, ops_per_client=8).throughput_ops_s
        t256 = simulate(256, ops_per_client=8).throughput_ops_s
        assert 2.5 <= t256 / t64 <= 4.5

    def test_memcached_slower_than_zht_on_bgp(self):
        # Fig 7: Memcached 25%-139% slower on the Blue Gene/P.
        zht = simulate(64, ops_per_client=8).latency_ms
        mem = simulate(
            64, ops_per_client=8, service=MEMCACHED_BGP, real_core=False
        ).latency_ms
        assert 1.2 <= mem / zht <= 3.0

    def test_no_connection_caching_hurts(self):
        # Fig 7: TCP without connection caching is clearly slower.
        cached = simulate(64, ops_per_client=8).latency_ms
        uncached = simulate(
            64, ops_per_client=8, service=ZHT_BGP_NO_CONN_CACHE
        ).latency_ms
        assert uncached > 1.2 * cached

    def test_memcached_slightly_beats_zht_on_cluster(self):
        # Fig 8: "Memcached only shows slightly better performance than
        # ZHT" (ZHT pays the disk write).
        zht = simulate(
            32,
            ops_per_client=8,
            service=ZHT_CLUSTER,
            link=CLUSTER_ETHERNET_LINK,
            topology="switch",
        ).latency_ms
        mem = simulate(
            32,
            ops_per_client=8,
            service=MEMCACHED_CLUSTER,
            link=CLUSTER_ETHERNET_LINK,
            topology="switch",
            real_core=False,
        ).latency_ms
        assert 0.6 * zht <= mem <= zht

    def test_cassandra_much_slower_on_cluster(self):
        # Fig 8/10: log-routing + JVM => multiples of ZHT's latency and a
        # large throughput gap (paper: ~7x at 64 nodes).
        zht = simulate(
            64,
            ops_per_client=6,
            service=ZHT_CLUSTER,
            link=CLUSTER_ETHERNET_LINK,
            topology="switch",
        )
        cas = simulate(
            64,
            ops_per_client=6,
            service=CASSANDRA_CLUSTER,
            link=CLUSTER_ETHERNET_LINK,
            topology="switch",
            real_core=False,
        )
        assert cas.latency_ms > 3 * zht.latency_ms
        assert zht.throughput_ops_s > 3 * cas.throughput_ops_s


class TestReplicationOverheads:
    def test_fire_and_forget_replication_cheap(self):
        # Fig 12: async replication adds ~20% (1 replica) / ~30% (2).
        base = simulate(32, ops_per_client=8).latency_ms
        one = simulate(32, ops_per_client=8, num_replicas=1).latency_ms
        two = simulate(32, ops_per_client=8, num_replicas=2).latency_ms
        assert 1.0 < one / base < 1.5
        assert one <= two <= base * 1.8

    def test_sync_replication_expensive(self):
        # Paper: synchronous replication "would have likely been 100%
        # increment for 1 replica, and 200% for 2 replicas".
        base = simulate(32, ops_per_client=8).latency_ms
        sync1 = simulate(
            32,
            ops_per_client=8,
            num_replicas=1,
            replication_mode=ReplicationMode.SYNC,
        ).latency_ms
        # One extra blocking round trip per mutation: ~+40% on the
        # insert+lookup+remove mix, several times the async overhead.
        assert sync1 > 1.25 * base

    def test_replicated_data_lands_on_replicas(self):
        spec = SimSpec(
            num_nodes=8,
            service=ZHT_BGP,
            config=ZHTConfig(
                num_partitions=8,
                num_replicas=1,
                replication_mode=ReplicationMode.NONE,
                transport="local",
            ),
        )
        cluster = SimulatedCluster(spec)
        cluster.run_workload(
            MicroBenchmarkWorkload(ops_per_client=4, include_remove=False)
        )
        total = sum(
            len(part.store)
            for handler in cluster.handlers
            for part in handler.partitions.values()
        )
        assert total == 8 * 4 * 2  # primary + 1 replica per key


class TestOneConfig:
    """The DES runs the one config it is given: servers, membership and
    benchmark clients alike."""

    def test_benchmark_clients_hash_with_the_cluster_config(self):
        config = ZHTConfig(num_partitions=4, hash_name="jenkins_64", transport="local")
        cluster = SimulatedCluster(SimSpec(num_nodes=4, config=config))
        result = cluster.run_workload(MicroBenchmarkWorkload(ops_per_client=4))
        assert result.ops == 48

    def test_partitions_and_replicas_come_from_the_config(self):
        config = ZHTConfig(num_partitions=8, num_replicas=1, transport="local")
        cluster = SimulatedCluster(SimSpec(num_nodes=4, config=config))
        assert cluster.membership.num_partitions == 8
        cluster.run_workload(
            MicroBenchmarkWorkload(ops_per_client=4, include_remove=False)
        )
        total = sum(
            len(part.store)
            for handler in cluster.handlers
            for part in handler.partitions.values()
        )
        assert total == 4 * 4 * 2  # primary + 1 replica per key

    @pytest.mark.parametrize("partitions", [2, 6])
    def test_partitions_must_be_a_whole_number_per_instance(self, partitions):
        config = ZHTConfig(num_partitions=partitions, transport="local")
        with pytest.raises(ValueError):
            SimSpec(num_nodes=4, config=config)


class TestInstancesPerNode:
    def test_more_instances_increase_aggregate_throughput(self):
        # Fig 14: 8 instances/node gives ~2.2x the 1-instance throughput.
        one = simulate(16, ops_per_client=6, instances_per_node=1)
        eight = simulate(16, ops_per_client=6, instances_per_node=8)
        assert eight.throughput_ops_s > 1.5 * one.throughput_ops_s

    def test_oversubscription_increases_latency(self):
        # Fig 13: beyond one instance per core, latency climbs.
        one = simulate(16, ops_per_client=6, instances_per_node=1)
        eight = simulate(16, ops_per_client=6, instances_per_node=8)
        assert eight.latency_ms > 1.3 * one.latency_ms

    def test_within_core_count_latency_stable(self):
        # 4 instances + 4 co-located clients on 4 cores: mild slowdown
        # only (the paper's best-utilisation configuration).
        one = simulate(16, ops_per_client=6, instances_per_node=1)
        four = simulate(16, ops_per_client=6, instances_per_node=4)
        assert four.latency_ms < 1.5 * one.latency_ms


class TestSyncReplicaAcks:
    def test_a_non_ok_sync_ack_degrades_the_reply(self):
        """A sync replica that answers its update with anything but OK
        (here it sheds it, RETRY_LATER) did not apply it: the write is
        answered REPLICATION_ERROR (§III.J), as on the live backends."""
        config = ZHTConfig(num_partitions=4, num_replicas=1, transport="local")
        cluster = SimulatedCluster(SimSpec(num_nodes=4, config=config))
        pid = cluster.membership.partition_of_key(b"k", config.hash_name)
        primary, secondary = cluster.membership.replicas_for_partition(pid, 1)
        replica = cluster.handlers[cluster._addr_to_index[secondary.address]]
        handle = replica.handle

        def shedding(request, reply_context=None):
            if request.op == OpCode.REPLICA_UPDATE:
                return HandleResult(
                    Response(status=Status.RETRY_LATER, request_id=request.request_id)
                )
            return handle(request, reply_context)

        replica.handle = shedding
        outcome = {}

        def client():
            outcome["response"] = yield from cluster.roundtrip(
                primary.address,
                Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=7,
                        epoch=cluster.membership.epoch),
                1.0,
            )

        cluster.env.process(client())
        cluster.env.run()
        assert outcome["response"].status == Status.REPLICATION_ERROR


class TestParkedRequests:
    """A request parked behind a frozen partition is answered when the
    freeze ends, by the effect loop every backend steps — the client
    never burns a timeout (and a suspicion strike) on it."""

    KEY = b"parked-key"

    def run_op_across_freeze(self, end_freeze):
        """INSERT ``KEY`` while its partition is frozen; *end_freeze*
        builds the MIGRATE_COMMIT that ends the freeze a few simulated
        milliseconds later.  Returns ``(cluster, client core)``."""
        spec = SimSpec(num_nodes=4)
        config = ZHTConfig(
            num_partitions=spec.num_partitions,
            transport="local",
            request_timeout=0.05,
        )
        spec.config = config
        cluster = SimulatedCluster(spec)
        env = cluster.env
        core = ZHTClientCore(
            cluster.membership.copy(),
            config,
            rng=random.Random(7),
            clock=lambda: env.now,
        )
        timeouts = []
        record_timeout = core.record_timeout
        core.record_timeout = lambda *a, **k: (
            timeouts.append(a),
            record_timeout(*a, **k),
        )[1]
        pid = cluster.membership.partition_of_key(self.KEY, config.hash_name)
        owner = cluster.membership.owner_of_partition(pid)
        outcome = {}

        def client():
            driver = core.driver(OpCode.INSERT, self.KEY, b"v")
            outcome["response"] = yield from cluster.drive(OpClient(core).run(driver))

        def main():
            begin = yield from cluster.roundtrip(
                owner.address, Request(op=OpCode.MIGRATE_BEGIN, partition=pid), 1.0
            )
            assert begin.status == Status.OK
            op = env.process(client(), name="parked-client")
            yield env.timeout(0.01)  # well inside the client's timeout
            assert "response" not in outcome  # still parked
            release = yield from cluster.roundtrip(
                owner.address, end_freeze(cluster, pid, owner), 1.0
            )
            assert release.status == Status.OK
            yield op

        env.process(main(), name="main")
        env.run()
        assert outcome["response"].status == Status.OK
        assert timeouts == []
        assert core.stats.nodes_marked_dead == 0
        return cluster, core

    def test_release_answers_migrating_and_the_client_retries(self):
        def abort(_cluster, pid, _owner):
            return Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")

        cluster, core = self.run_op_across_freeze(abort)
        assert core.stats.retries >= 1
        assert cluster.owner_value(self.KEY) == b"v"

    def test_commit_forwards_to_the_new_owner_which_answers(self):
        def commit(cluster, pid, owner):
            new_owner = next(
                inst for inst in cluster.instances if inst is not owner
            )
            cluster.membership.reassign_partition(pid, new_owner.instance_id)
            return Request(
                op=OpCode.MIGRATE_COMMIT,
                partition=pid,
                value=b"commit",
                payload=str(new_owner.address).encode(),
            )

        cluster, core = self.run_op_across_freeze(commit)
        # Answered by the forward itself: no MIGRATING bounce, no retry.
        assert core.stats.retries == 0
        assert cluster.owner_value(self.KEY) == b"v"


class TestTimedWaits:
    """A wait that may go unanswered is one cancellable timer: an answer in
    time leaves nothing queued, so the clock ends where the work did."""

    @staticmethod
    def _run(faults):
        cluster = SimulatedCluster(SimSpec(num_nodes=16, seed=3, faults=faults))
        return cluster.run_workload(MicroBenchmarkWorkload(ops_per_client=4, seed=3))

    def test_an_empty_fault_plan_changes_no_result(self):
        plain, planned = self._run(None), self._run(FaultPlan(seed=1))
        assert planned.ops == plain.ops == 16 * 12
        # The race against request_timeout used to run the clock on to it.
        assert planned.duration_s == plain.duration_s
        assert planned.latency.samples == plain.latency.samples

    def test_a_roundtrip_answered_at_t_drains_the_queue_at_t(self):
        cluster = SimulatedCluster(SimSpec(num_nodes=4))
        env = cluster.env
        answered = []

        def ping():
            request = Request(op=OpCode.PING, request_id=1)
            response = yield from cluster.roundtrip(cluster.instances[2].address, request, 5.0)
            answered.append(env.now)
            return response

        proc = env.process(ping())
        assert env.run() == answered[0] < 0.01
        assert proc.result.status == Status.OK
        assert not env._queue and not env._ready

    def test_an_unanswered_roundtrip_ends_with_none_at_its_timeout(self):
        cluster = SimulatedCluster(SimSpec(num_nodes=4))
        target = cluster.instances[2]
        cluster.kill_node(target.node_id)
        request = Request(op=OpCode.PING, request_id=1)
        proc = cluster.env.process(cluster.roundtrip(target.address, request, 0.25))
        assert cluster.env.run() == 0.25
        assert proc.done and proc.result is None


class TestClose:
    def test_a_closed_cluster_is_freed_without_the_collector(self):
        """``close()`` ends the server processes and the env's queues, and
        no core's clock holds the cluster, so the last reference to a
        closed cluster frees it: no full collection is needed."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with SimulatedCluster(SimSpec(num_nodes=16, seed=3)) as c:
                c.run_workload(MicroBenchmarkWorkload(ops_per_client=2, seed=3))
                cluster, env = weakref.ref(c), weakref.ref(c.env)
                cores = [weakref.ref(core) for core in c.cores]
            del c
            assert cluster() is None and env() is None
            assert not [core for core in cores if core() is not None]
        finally:
            if enabled:
                gc.enable()


class TestEventOrderPin:
    """The engine's event order, pinned bit for bit: a change to the DES
    that reorders one callback moves some latency sample, so this digest
    moves.  Set once from the engine before its ready queue; it changes
    only if a change to the simulated model is meant to change results."""

    RUNS = [
        dict(num_nodes=16, ops_per_client=4),
        dict(num_nodes=8, ops_per_client=4, topology="switch",
             service=ZHT_CLUSTER, link=CLUSTER_ETHERNET_LINK),
        dict(num_nodes=8, ops_per_client=4, real_core=False, service=MEMCACHED_BGP),
        dict(num_nodes=8, ops_per_client=4, service=ZHT_BGP_NO_CONN_CACHE),
        dict(num_nodes=8, ops_per_client=4, num_replicas=2,
             replication_mode=ReplicationMode.SYNC),
        dict(num_nodes=8, ops_per_client=4, num_replicas=2,
             replication_mode=ReplicationMode.ASYNC),
        dict(num_nodes=8, ops_per_client=4, instances_per_node=2),
        dict(num_nodes=8, ops_per_client=2, topology="switch", real_core=False,
             service=CASSANDRA_CLUSTER, link=CLUSTER_ETHERNET_LINK),
    ]
    DIGEST = "0c07c24d9f4088de9d17192266335e337400319e11a044e8f4b5537f4ea40384"

    def test_simulate_results_are_bit_for_bit_unchanged(self):
        digest = hashlib.sha256()
        for kwargs in self.RUNS:
            result = simulate(seed=3, **kwargs)
            digest.update(str(result.ops).encode())
            digest.update(result.duration_s.hex().encode())
            for sample in result.latency.samples:
                digest.update(sample.hex().encode())
        assert digest.hexdigest() == self.DIGEST
