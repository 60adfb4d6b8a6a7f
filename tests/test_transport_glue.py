"""Tests for the transport glue: the server-effect loop
(repro.core.loops.effect_loop) and its live trampoline, the client op
loop, and manager script driving."""

import pytest

from repro.core.client import ZHTClientCore
from repro.core.config import ReplicationMode, ZHTConfig
from repro.core.errors import RequestTimeout, Status
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Response
from repro.net.local import LocalNetwork
from repro.core.loops import Answer, Cast, Group, OpClient, effect_loop, script_loop
from repro.net.transport import drive
from tests.test_server_core import deploy, owner_server


def wire_up(table, servers):
    network = LocalNetwork()
    for server in servers.values():
        network.add_server(server)
    return network


class ScriptedPeers:
    """Steps an effect loop as a runtime would: a call group is answered
    with *acks*, each forward call by *forward(call)*; casts and answers
    are only logged."""

    def __init__(self, acks=(), forward=lambda call: None) -> None:
        self.acks = list(acks)
        self.forward = forward
        self.log: list = []

    def run(self, loop):
        reply = None
        while True:
            try:
                command = loop.send(reply)
            except StopIteration as stop:
                return stop.value
            self.log.append(command)
            reply = None
            if isinstance(command, Group):
                reply = self.acks
            elif not isinstance(command, (Cast, Answer)):
                reply = self.forward(command)


def ack(status=Status.OK) -> Response:
    return Response(status=status)


def park_then_release(commit: bool):
    """Park a write (request id 42, reply context ``"origin"``) behind
    a frozen partition, then commit the migration toward another
    instance (*commit*) or abort it; returns the release's result, the
    new owner and the partition."""
    table, servers, cfg = deploy()
    server, pid = owner_server(table, servers, b"k", cfg)
    other = next(s for s in servers.values() if s is not server)
    server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
    parked = server.handle(
        Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=42), "origin"
    )
    assert parked.response is None and not parked.effects
    if commit:
        # The manager flips ownership before committing; do the same here
        # so the new owner accepts the forwarded mutation.
        table.reassign_partition(pid, other.info.instance_id)
        release = Request(
            op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"commit",
            payload=str(other.info.address).encode(),
        )
    else:
        release = Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")
    return server.handle(release), other, pid


class TestServerExecutorEffects:
    """The effect loop (repro.core.loops.effect_loop) stepped by a
    scripted runtime: one case per rule."""

    def _write(self, acks, **cfg):
        table, servers, cfg = deploy(num_nodes=3, **cfg)
        server, pid = owner_server(table, servers, b"k", cfg)
        result = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=5))
        assert result.effects
        peers = ScriptedPeers(acks)
        return peers.run(effect_loop(result, 0.5)), peers.log, table, pid

    def test_failed_sync_replica_degrades_response(self):
        response, log, _table, _pid = self._write([None], num_replicas=1)
        assert response.status == Status.REPLICATION_ERROR
        assert [type(c) for c in log] == [Group]

    def test_a_non_ok_ack_degrades_the_response(self):
        # A sync replica that sheds the update (RETRY_LATER) did not apply it.
        response, _log, _table, _pid = self._write([ack(Status.RETRY_LATER)], num_replicas=1)
        assert response.status == Status.REPLICATION_ERROR

    def test_successful_sync_replica_keeps_ok(self):
        response, log, table, pid = self._write([ack()], num_replicas=1)
        assert response.status == Status.OK
        (group,) = log
        secondary = table.replicas_for_partition(pid, 1)[1]
        assert [address for address, _update in group.sends] == [secondary.address]
        assert group.timeout == 0.5

    def test_async_replicas_fire_without_blocking_status(self):
        # Fire-and-forget: two casts, no call waits, and the status stays OK.
        response, log, _table, _pid = self._write(
            [], num_replicas=2, replication_mode=ReplicationMode.NONE
        )
        assert response.status == Status.OK
        assert [type(c) for c in log] == [Cast, Cast]

    def test_migration_forward_relays_reply(self):
        result, other, pid = park_then_release(commit=True)
        # The forward is a call to the new owner, answered by its core.
        peers = ScriptedPeers(forward=lambda call: other.handle(call.request).response)
        response = peers.run(effect_loop(result, 0.5))
        assert response.status == Status.OK  # the manager's commit ack
        call, answer = peers.log
        assert call.address == other.info.address and call.timeout == 0.5
        # The owner's answer goes back to the original requester.
        assert isinstance(answer, Answer) and answer.context == "origin"
        assert answer.response.status == Status.OK
        assert answer.response.request_id == 42
        assert other.partition(pid).store.get(b"k") == b"v"

    def test_a_lost_forward_relays_timeout(self):
        result, _other, _pid = park_then_release(commit=True)
        peers = ScriptedPeers(forward=lambda call: None)
        peers.run(effect_loop(result, 0.5))
        answer = peers.log[-1]
        assert answer.context == "origin"
        assert answer.response.status == Status.TIMEOUT
        assert answer.response.request_id == 42

    def test_migration_abort_fails_queued(self):
        result, _other, _pid = park_then_release(commit=False)
        peers = ScriptedPeers()
        assert peers.run(effect_loop(result, 0.5)).status == Status.OK
        (answer,) = peers.log
        assert answer.context == "origin"
        assert answer.response.status == Status.MIGRATING
        assert answer.response.request_id == 42


class TestLocalServing:
    """The live trampoline (serve_effects over drive) on the local network."""

    def test_a_dead_sync_replica_degrades_the_response(self):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        network.kill_address(table.replicas_for_partition(pid, 1)[1].address)
        response = network.serve(
            server.info.address, Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=5)
        )
        assert response.status == Status.REPLICATION_ERROR

    def test_a_forward_answers_the_parked_requester(self):
        table, servers, cfg = deploy()
        network = wire_up(table, servers)
        server, pid = owner_server(table, servers, b"k", cfg)
        other = next(s for s in servers.values() if s is not server)
        address = server.info.address
        network.serve(address, Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        write = Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=42)
        assert network.serve(address, write, "origin") is None
        table.reassign_partition(pid, other.info.instance_id)
        network.serve(address, Request(
            op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"commit",
            payload=str(other.info.address).encode(),
        ))
        ((context, response),) = network.deferred_replies
        assert context == "origin" and response.request_id == 42
        assert other.partition(pid).store.get(b"k") == b"v"


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
