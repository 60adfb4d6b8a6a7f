"""Tests for the client operation driver (repro.core.client)."""

import random

import pytest

from repro.core.client import OpState, ZHTClientCore
from repro.core.config import ZHTConfig
from repro.core.errors import (
    KeyNotFound,
    NodeDeadError,
    RequestTimeout,
    Status,
)
from repro.core.protocol import OpCode, Request, Response
from tests.test_server_core import deploy, owner_server


def make_client(table, cfg, seed=3):
    return ZHTClientCore(table.copy(), cfg, rng=random.Random(seed))


class TestHappyPath:
    def test_single_attempt_success(self):
        table, servers, cfg = deploy()
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        attempt = driver.next_attempt()
        expected, _ = owner_server(table, servers, b"k", cfg)
        assert attempt.address == expected.info.address
        assert attempt.request.op == OpCode.LOOKUP
        driver.on_response(Response(status=Status.OK, value=b"v"))
        assert driver.state is OpState.DONE
        assert driver.result().value == b"v"
        assert driver.next_attempt() is None

    def test_key_not_found_raises_at_result(self):
        table, servers, cfg = deploy()
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"missing")
        driver.next_attempt()
        driver.on_response(Response(status=Status.KEY_NOT_FOUND))
        with pytest.raises(KeyNotFound):
            driver.result()

    def test_request_ids_monotonic(self):
        table, _, cfg = deploy()
        client = make_client(table, cfg)
        d1 = client.driver(OpCode.LOOKUP, b"a")
        d2 = client.driver(OpCode.LOOKUP, b"b")
        r1 = d1.next_attempt().request.request_id
        r2 = d2.next_attempt().request.request_id
        assert r2 > r1


class TestTimeoutsAndBackoff:
    def test_backoff_schedule_is_exponential(self):
        table, _, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32,
            request_timeout=0.1,
            backoff_factor=2.0,
            failures_before_dead=10,
            max_retries=10,
            retry_jitter=False,
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        timeouts, delays = [], []
        for _ in range(4):
            attempt = driver.next_attempt()
            timeouts.append(attempt.timeout)
            delays.append(attempt.delay)
            driver.on_timeout()
        assert timeouts == [0.1, 0.2, 0.4, 0.8]
        assert delays == [0.0, 0.1, 0.2, 0.4]

    def test_full_jitter_bounded_by_exponential_schedule(self):
        table, _, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32,
            request_timeout=0.1,
            backoff_factor=2.0,
            failures_before_dead=10,
            max_retries=10,
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        delays = []
        for _ in range(4):
            attempt = driver.next_attempt()
            delays.append(attempt.delay)
            driver.on_timeout()
        # Full jitter: delay ~ U[0, base] where base follows the
        # deterministic exponential schedule.
        for delay, base in zip(delays, [0.0, 0.1, 0.2, 0.4]):
            assert 0.0 <= delay <= base
        # Two clients with different rngs must not retry in lockstep.
        other = make_client(table, cfg, seed=4)
        d2 = other.driver(OpCode.LOOKUP, b"k")
        delays2 = []
        for _ in range(4):
            delays2.append(d2.next_attempt().delay)
            d2.on_timeout()
        assert delays[1:] != delays2[1:]

    def test_exhausted_retries_fails(self):
        table, _, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32, max_retries=2, failures_before_dead=99
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        for _ in range(3):
            assert driver.next_attempt() is not None
            driver.on_timeout()
        assert driver.next_attempt() is None
        with pytest.raises(RequestTimeout):
            driver.result()
        assert client.stats.retries == 3

    def test_node_marked_dead_after_threshold(self):
        table, servers, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32, failures_before_dead=2, max_retries=8
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        first = driver.next_attempt()
        target_node = next(
            i.node_id
            for i in client.membership.instances.values()
            if i.address == first.address
        )
        driver.on_timeout()
        driver.next_attempt()
        driver.on_timeout()
        assert not client.membership.nodes[target_node].alive
        assert client.stats.nodes_marked_dead == 1

    def test_failure_notification_queued_for_manager(self):
        table, _, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32, failures_before_dead=1, max_retries=8
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        driver.next_attempt()
        driver.on_timeout()
        assert len(client.pending_notifications) == 1
        note = client.pending_notifications[0]
        assert note.request.op == OpCode.MEMBERSHIP_UPDATE
        # The payload carries the client's table with the dead node.
        from repro.core.membership import MembershipTable

        sent = MembershipTable.from_bytes(note.request.payload)
        assert any(not n.alive for n in sent.nodes.values())

    def test_success_resets_failure_count(self):
        table, _, _ = deploy()
        cfg = ZHTConfig(
            num_partitions=32, failures_before_dead=2, max_retries=20
        )
        client = make_client(table, cfg)
        d1 = client.driver(OpCode.LOOKUP, b"k")
        d1.next_attempt()
        d1.on_timeout()
        d2 = client.driver(OpCode.LOOKUP, b"k")
        d2.next_attempt()
        d2.on_response(Response(status=Status.OK))
        assert client.suspicion == {}


class TestFailover:
    def test_failover_to_replica(self):
        table, servers, _ = deploy(num_nodes=3)
        cfg = ZHTConfig(
            num_partitions=32,
            num_replicas=1,
            failures_before_dead=1,
            max_retries=8,
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        primary = driver.next_attempt()
        driver.on_timeout()  # primary node dies immediately
        second = driver.next_attempt()
        assert second.address != primary.address
        assert second.request.replica_index == 1
        assert client.stats.failovers == 1

    def test_all_replicas_dead_fails(self):
        table, _, _ = deploy(num_nodes=2)
        cfg = ZHTConfig(
            num_partitions=32,
            num_replicas=1,
            failures_before_dead=1,
            max_retries=20,
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        while (attempt := driver.next_attempt()) is not None:
            driver.on_timeout()
        with pytest.raises(NodeDeadError):
            driver.result()

    def test_no_replicas_dead_owner_fails_immediately(self):
        table, _, _ = deploy(num_nodes=2)
        cfg = ZHTConfig(
            num_partitions=32,
            num_replicas=0,
            failures_before_dead=1,
            max_retries=20,
        )
        client = make_client(table, cfg)
        driver = client.driver(OpCode.INSERT, b"k", b"v")
        driver.next_attempt()
        driver.on_timeout()
        assert driver.next_attempt() is None
        with pytest.raises(NodeDeadError):
            driver.result()


class TestRedirectsAndMembership:
    def test_redirect_reroutes_with_adopted_table(self):
        table, servers, cfg = deploy()
        client = make_client(table, cfg)
        # Fake a stale client: swap two partitions' owners in the real table.
        real_owner, pid = owner_server(table, servers, b"k", cfg)
        other = next(s for s in servers.values() if s is not real_owner)
        table.reassign_partition(pid, other.info.instance_id)
        driver = client.driver(OpCode.LOOKUP, b"k")
        first = driver.next_attempt()
        assert first.address == real_owner.info.address  # stale route
        driver.on_response(
            Response(
                status=Status.REDIRECT,
                epoch=table.epoch,
                membership=table.to_bytes(),
            )
        )
        assert driver.state is OpState.RUNNING
        second = driver.next_attempt()
        assert second.address == other.info.address
        assert client.stats.redirects_followed == 1
        assert client.stats.membership_refreshes == 1

    def test_piggybacked_membership_adopted_on_ok(self):
        table, servers, cfg = deploy()
        client = make_client(table, cfg)
        newer = table.copy()
        newer.mark_node_dead("n2")
        driver = client.driver(OpCode.LOOKUP, b"k")
        driver.next_attempt()
        driver.on_response(
            Response(status=Status.OK, value=b"v", membership=newer.to_bytes())
        )
        assert not client.membership.nodes["n2"].alive

    def test_migrating_response_retries(self):
        table, _, cfg = deploy()
        client = make_client(table, cfg)
        driver = client.driver(OpCode.INSERT, b"k", b"v")
        driver.next_attempt()
        driver.on_response(Response(status=Status.MIGRATING))
        assert driver.state is OpState.RUNNING
        attempt = driver.next_attempt()
        assert attempt.delay > 0  # backs off before hammering again

    def test_corrupt_membership_payload_ignored(self):
        table, _, cfg = deploy()
        client = make_client(table, cfg)
        assert client.adopt_membership(b"ceci n'est pas une table") is False

    def test_result_before_completion_raises(self):
        table, _, cfg = deploy()
        client = make_client(table, cfg)
        driver = client.driver(OpCode.LOOKUP, b"k")
        driver.next_attempt()
        from repro.core.errors import ZHTError

        with pytest.raises(ZHTError, match="in flight"):
            driver.result()
