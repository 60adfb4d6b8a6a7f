"""Tests for the transport glue (repro.net.transport): executor effects,
the client op loop, and manager script driving."""

import pytest

from repro.core.client import ZHTClientCore
from repro.core.config import ReplicationMode, ZHTConfig
from repro.core.errors import RequestTimeout, Status
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Response
from repro.net.local import LocalNetwork
from repro.core.loops import OpClient, script_loop
from repro.net.transport import drive
from tests.test_server_core import deploy, owner_server


def wire_up(table, servers):
    network = LocalNetwork()
    for server in servers.values():
        network.add_server(server)
    return network


class TestServerExecutorEffects:
    def test_failed_sync_replica_degrades_response(self):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        # Kill the secondary so the sync ack times out.
        secondary = table.replicas_for_partition(pid, 1)[1]
        network.kill_address(secondary.address)
        executor = network.servers[server.info.address]
        response = executor.process(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=5)
        )
        assert response.status == Status.REPLICATION_ERROR

    def test_successful_sync_replica_keeps_ok(self):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        network = wire_up(table, servers)
        server, _pid = owner_server(table, servers, b"k", cfg)
        executor = network.servers[server.info.address]
        response = executor.process(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=5)
        )
        assert response.status == Status.OK

    def test_async_replicas_fire_without_blocking_status(self):
        table, servers, cfg = deploy(
            num_nodes=3,
            num_replicas=2,
            replication_mode=ReplicationMode.NONE,
        )
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        # Even with every replica dead, fire-and-forget stays OK.
        for inst in table.replicas_for_partition(pid, 2)[1:]:
            network.kill_address(inst.address)
        executor = network.servers[server.info.address]
        response = executor.process(
            Request(op=OpCode.INSERT, key=b"k", value=b"v")
        )
        assert response.status == Status.OK

    def test_migration_forward_relays_reply(self):
        table, servers, cfg = deploy()
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        executor = network.servers[server.info.address]
        other = next(s for s in servers.values() if s is not server)
        # Lock the partition, queue a mutation, then commit toward `other`.
        executor.process(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        queued_response = executor.process(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=42),
            reply_context="origin",
        )
        assert queued_response is None
        # The manager flips ownership before committing; do the same here
        # so the new owner accepts the forwarded mutation.
        table.reassign_partition(pid, other.info.instance_id)
        executor.process(
            Request(
                op=OpCode.MIGRATE_COMMIT,
                partition=pid,
                value=b"commit",
                payload=str(other.info.address).encode(),
            )
        )
        # The queued request was forwarded and its answer parked for the
        # original requester.
        assert len(network.deferred_replies) == 1
        context, response = network.deferred_replies[0]
        assert context == "origin"
        assert response.request_id == 42
        # The new owner (a replica-style holder) applied the write.
        assert other.partition(pid).store.get(b"k") == b"v"

    def test_migration_abort_fails_queued(self):
        table, servers, cfg = deploy()
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        executor = network.servers[server.info.address]
        executor.process(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        executor.process(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=9),
            reply_context="origin",
        )
        executor.process(
            Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")
        )
        context, response = network.deferred_replies[0]
        assert response.status == Status.MIGRATING


class TestExecuteOp:
    def test_flushes_failure_notifications(self):
        table, servers, cfg = deploy()
        cfg = cfg.replace(failures_before_dead=1, max_retries=6, num_replicas=0)
        network = wire_up(table, servers)
        client = ZHTClientCore(table.copy(), cfg)
        victim, _ = owner_server(table, servers, b"k", cfg)
        network.kill_address(victim.info.address)
        driver = client.driver(OpCode.LOOKUP, b"k")
        with pytest.raises(Exception):
            drive(OpClient(client).run(driver), network, sleep=lambda _t: None)
        # The dead-node report reached a manager (via the network).
        assert client.pending_notifications == []

    def test_sleep_called_for_backoff(self):
        table, servers, cfg = deploy()
        cfg = cfg.replace(
            failures_before_dead=10,
            max_retries=2,
            request_timeout=0.01,
            retry_jitter=False,  # deterministic schedule; jitter is covered
        )  # by tests/test_overload.py
        network = wire_up(table, servers)
        client = ZHTClientCore(table.copy(), cfg)
        victim, _ = owner_server(table, servers, b"k", cfg)
        network.kill_address(victim.info.address)
        sleeps: list[float] = []
        driver = client.driver(OpCode.LOOKUP, b"k")
        with pytest.raises(RequestTimeout):
            drive(OpClient(client).run(driver), network, sleep=sleeps.append)
        assert sleeps and sleeps == sorted(sleeps)  # growing backoff


class TestRunScript:
    def test_returns_script_value(self):
        table, servers, cfg = deploy()
        network = wire_up(table, servers)

        def script():
            from repro.core.manager import PeerCall

            response = yield PeerCall(
                next(iter(servers.values())).info.address,
                Request(op=OpCode.PING, request_id=1),
            )
            return response.status

        assert drive(script_loop(script(), cfg), network) == Status.OK

    def test_feeds_none_on_timeout(self):
        table, servers, cfg = deploy()
        network = wire_up(table, servers)

        def script():
            from repro.core.manager import PeerCall

            response = yield PeerCall(
                Address("nowhere", 1), Request(op=OpCode.PING)
            )
            return response

        assert drive(script_loop(script(), cfg), network) is None
