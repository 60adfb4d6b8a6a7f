"""Tests for the sans-I/O server core (repro.core.server)."""

import os
import random
import sys
import threading

import pytest

from repro.core.config import ReplicationMode, ZHTConfig
from repro.core.errors import Status
from repro.core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from repro.core.partition import Partition
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    decode_batch_responses,
    encode_batch_requests,
)
from repro.core.server import ZHTServerCore
from repro.novoht import NoVoHT, encode_image
from repro.novoht.checkpoint import IMAGE_HEADER_LEN


def deploy(num_nodes=3, num_partitions=32, **cfg_kwargs):
    """Build a membership table and one server core per instance."""
    cfg = ZHTConfig(num_partitions=num_partitions, transport="local", **cfg_kwargs)
    rng = random.Random(7)
    nodes, instances = [], []
    for n in range(num_nodes):
        node_id = f"n{n}"
        nodes.append(NodeInfo(node_id, Address(node_id, 1)))
        instances.append(
            InstanceInfo(new_instance_id(rng), node_id, Address(node_id, 9000 + n))
        )
    table = MembershipTable.bootstrap(num_partitions, nodes, instances)
    servers = {
        inst.instance_id: ZHTServerCore(inst, table, cfg) for inst in instances
    }
    return table, servers, cfg


def owner_server(table, servers, key, cfg):
    pid = table.partition_of_key(key, cfg.hash_name)
    return servers[table.partition_owner[pid]], pid


class TestClientOps:
    def test_insert_lookup_remove_append(self):
        table, servers, cfg = deploy()
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        assert r.response.status == Status.OK
        r = server.handle(Request(op=OpCode.LOOKUP, key=b"k"))
        assert r.response.value == b"v"
        r = server.handle(Request(op=OpCode.APPEND, key=b"k", value=b"+w"))
        assert r.response.status == Status.OK
        r = server.handle(Request(op=OpCode.LOOKUP, key=b"k"))
        assert r.response.value == b"v+w"
        r = server.handle(Request(op=OpCode.REMOVE, key=b"k"))
        assert r.response.status == Status.OK
        r = server.handle(Request(op=OpCode.LOOKUP, key=b"k"))
        assert r.response.status == Status.KEY_NOT_FOUND

    def test_wrong_server_redirects(self):
        table, servers, cfg = deploy()
        right, pid = owner_server(table, servers, b"k", cfg)
        wrong = next(s for s in servers.values() if s is not right)
        r = wrong.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        assert r.response.status == Status.REDIRECT
        assert r.response.redirect == str(right.info.address).encode()
        assert r.response.membership  # table piggybacked for lazy update
        assert wrong.stats.redirects == 1

    def test_redirect_membership_is_current(self):
        table, servers, cfg = deploy()
        right, _ = owner_server(table, servers, b"k", cfg)
        wrong = next(s for s in servers.values() if s is not right)
        r = wrong.handle(Request(op=OpCode.LOOKUP, key=b"k"))
        adopted = MembershipTable.from_bytes(r.response.membership)
        assert adopted.epoch == table.epoch

    def test_stale_client_gets_membership_piggyback(self):
        table, servers, cfg = deploy()
        server, _ = owner_server(table, servers, b"k", cfg)
        table.mark_node_dead("n2")  # bump epoch past the client's
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", epoch=1)
        )
        assert r.response.status == Status.OK
        assert r.response.membership

    def test_current_client_gets_no_piggyback(self):
        table, servers, cfg = deploy()
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", epoch=table.epoch)
        )
        assert r.response.membership == b""

    def test_key_size_limit(self):
        table, servers, cfg = deploy(max_key_bytes=4)
        server, _ = owner_server(table, servers, b"longkey", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"longkey", value=b"v"))
        assert r.response.status == Status.KEY_TOO_LARGE

    def test_value_size_limit(self):
        table, servers, cfg = deploy(max_value_bytes=8)
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v" * 100))
        assert r.response.status == Status.VALUE_TOO_LARGE

    def test_ping(self):
        _, servers, _ = deploy()
        server = next(iter(servers.values()))
        r = server.handle(Request(op=OpCode.PING))
        assert r.response.status == Status.OK

    def test_get_membership(self):
        table, servers, _ = deploy()
        server = next(iter(servers.values()))
        r = server.handle(Request(op=OpCode.GET_MEMBERSHIP))
        assert MembershipTable.from_bytes(r.response.membership).epoch == table.epoch

    def test_request_id_echoed(self):
        table, servers, cfg = deploy()
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=777)
        )
        assert r.response.request_id == 777

    def test_racing_first_touch_builds_one_partition(self, monkeypatch):
        """Two threads touching a partition for the first time (the local
        backend serves on its callers' threads) must end up with the same
        `Partition`, or the loser's writes vanish with its private copy."""
        _table, servers, _cfg = deploy()
        server = next(iter(servers.values()))
        both_built = threading.Barrier(2)
        build = Partition.__init__

        def build_then_meet(self, *args, **kwargs):
            build(self, *args, **kwargs)
            both_built.wait(5.0)

        monkeypatch.setattr(Partition, "__init__", build_then_meet)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(server.partition(7)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(got) == 2 and got[0] is got[1] is server.partitions[7]


class TestReplication:
    def test_async_mode_sync_secondary_async_rest(self):
        table, servers, cfg = deploy(
            num_nodes=4, num_replicas=2, replication_mode=ReplicationMode.ASYNC
        )
        server, pid = owner_server(table, servers, b"k", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        assert len(r.sync_sends) == 1  # the strongly-consistent secondary
        assert len(r.async_sends) == 1  # the weak third copy
        chain = table.replicas_for_partition(pid, 2)
        assert r.sync_sends[0][0] == chain[1].address
        assert r.async_sends[0][0] == chain[2].address

    def test_sync_mode_all_synchronous(self):
        table, servers, cfg = deploy(
            num_nodes=4, num_replicas=2, replication_mode=ReplicationMode.SYNC
        )
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        assert len(r.sync_sends) == 2 and not r.async_sends

    def test_none_mode_all_async(self):
        table, servers, cfg = deploy(
            num_nodes=4, num_replicas=2, replication_mode=ReplicationMode.NONE
        )
        server, _ = owner_server(table, servers, b"k", cfg)
        r = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        assert len(r.async_sends) == 2 and not r.sync_sends

    def test_lookup_generates_no_replication(self):
        table, servers, cfg = deploy(num_nodes=4, num_replicas=2)
        server, _ = owner_server(table, servers, b"k", cfg)
        server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        r = server.handle(Request(op=OpCode.LOOKUP, key=b"k"))
        assert not r.sync_sends and not r.async_sends

    def test_replica_update_applies_to_replica_store(self):
        table, servers, cfg = deploy(num_nodes=4, num_replicas=1)
        server, pid = owner_server(table, servers, b"k", cfg)
        primary_result = server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v")
        )
        addr, update = primary_result.sync_sends[0]
        replica = next(
            s for s in servers.values() if s.info.address == addr
        )
        r = replica.handle(update)
        assert r.response.status == Status.OK
        assert replica.partition(pid).store.get(b"k") == b"v"
        # Replica updates never cascade.
        assert not r.sync_sends and not r.async_sends

    def test_replica_update_not_redirected(self):
        """Replica stores data for partitions it does not own."""
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        server, pid = owner_server(table, servers, b"k", cfg)
        result = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        addr, update = result.sync_sends[0]
        replica = next(s for s in servers.values() if s.info.address == addr)
        assert replica.handle(update).response.status == Status.OK

    def test_failover_read_from_replica(self):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        server, pid = owner_server(table, servers, b"k", cfg)
        result = server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        addr, update = result.sync_sends[0]
        replica = next(s for s in servers.values() if s.info.address == addr)
        replica.handle(update)
        # replica_index > 0 marks a failover request: no redirect.
        r = replica.handle(
            Request(op=OpCode.LOOKUP, key=b"k", replica_index=1)
        )
        assert r.response.status == Status.OK
        assert r.response.value == b"v"

    def test_replica_remove_of_missing_key_is_ok(self):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1)
        server, pid = owner_server(table, servers, b"k", cfg)
        update = Request(
            op=OpCode.REPLICA_UPDATE,
            key=b"never-inserted",
            partition=pid,
            replica_index=1,
            inner_op=int(OpCode.REMOVE),
        )
        replica = next(s for s in servers.values() if s is not server)
        assert replica.handle(update).response.status == Status.OK


def replica_update_both_ways(inner_op, value=b"v", partition=None, **cfg_kwargs):
    """The same REPLICA_UPDATE sent alone and inside a BATCH, each to a
    fresh replica: ``(sub-status, replica, pid)`` for the two forms."""
    out = []
    for batched in (False, True):
        table, servers, cfg = deploy(num_nodes=3, num_replicas=1, **cfg_kwargs)
        owner, pid = owner_server(table, servers, b"k", cfg)
        replica = next(s for s in servers.values() if s is not owner)
        update = Request(
            op=OpCode.REPLICA_UPDATE, key=b"k", value=value, request_id=5,
            epoch=table.epoch, partition=pid if partition is None else partition,
            replica_index=1, inner_op=int(inner_op),
        )
        if batched:
            outer = replica.handle(Request(
                op=OpCode.BATCH, request_id=6, epoch=table.epoch,
                payload=encode_batch_requests([update]),
            ))
            status = decode_batch_responses(outer.response.value)[0].status
        else:
            status = replica.handle(update).response.status
        out.append((status, replica, pid))
    return out


class TestReplicaUpdateRules:
    """A replica update is peer input with one rule per case, whether it
    travels alone or inside a BATCH."""

    def test_inner_lookup_is_a_bad_request(self):
        for status, replica, pid in replica_update_both_ways(OpCode.LOOKUP):
            assert status == Status.BAD_REQUEST
            assert replica.stats.lookups == replica.stats.replica_updates == 0
            assert pid not in replica.partitions

    def test_value_over_the_limit_is_stored_as_the_owner_accepted_it(self):
        for status, replica, pid in replica_update_both_ways(
            OpCode.INSERT, value=b"x" * 60, max_value_bytes=48
        ):
            assert status == Status.OK
            assert replica.partition(pid).store.get(b"k") == b"x" * 60

    def test_inner_ping_is_a_bad_request_that_leaves_no_trace(self):
        for status, replica, pid in replica_update_both_ways(OpCode.PING):
            assert status == Status.BAD_REQUEST
            assert replica.stats.replica_updates == 0
            assert not replica.partitions
            assert replica.partition_load.snapshot()["total_requests"] == 0

    def test_applied_update_counts_replica_updates_and_partition_load(self):
        for status, replica, pid in replica_update_both_ways(OpCode.INSERT):
            assert status == Status.OK
            assert (replica.stats.replica_updates, replica.stats.inserts) == (1, 0)
            assert replica.partition_load.snapshot()["hottest"] == [[pid, 1]]

    def test_update_for_a_partition_that_does_not_exist_is_a_bad_request(self):
        for status, replica, _pid in replica_update_both_ways(OpCode.INSERT, partition=10**6):
            assert status == Status.BAD_REQUEST
            assert not replica.partitions


class TestMigrationMessages:
    def test_begin_exports_and_locks(self):
        table, servers, cfg = deploy()
        server, pid = owner_server(table, servers, b"k", cfg)
        server.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        r = server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        assert r.response.status == Status.OK
        assert r.response.value == encode_image([(b"k", b"v")])
        assert server.stats.migration_bytes_out == len(r.response.value)
        assert server.partition(pid).is_migrating

    def test_begin_reply_is_a_checkpoint_file(self, tmp_path):
        """One format: the MIGRATE_BEGIN reply of a persistent partition,
        written as ``novoht.ckpt`` into an empty directory, opens as the
        source's exact content."""
        table, servers, cfg = deploy(persistence_dir=str(tmp_path / "live"))
        server, pid = owner_server(table, servers, b"k0", cfg)
        store = server.partition(pid).store
        for i in range(40):
            store.put(b"k%d" % i, bytes([i]) * i)
        store.remove(b"k7")
        store.append(b"k8", b"+tail")
        reply = server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        os.makedirs(tmp_path / "copy")
        with open(tmp_path / "copy" / "novoht.ckpt", "wb") as f:
            f.write(reply.response.value)
        with NoVoHT(str(tmp_path / "copy")) as copy:
            assert dict(copy.items()) == dict(store.items())
            assert len(copy) == 39
        server.close()

    def test_requests_queue_during_migration(self):
        table, servers, cfg = deploy()
        server, pid = owner_server(table, servers, b"k", cfg)
        server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v"), reply_context="ctx1"
        )
        assert r.response is None
        assert server.stats.queued == 1

    def test_commit_forwards_queue_to_new_owner(self):
        table, servers, cfg = deploy()
        server, pid = owner_server(table, servers, b"k", cfg)
        server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v"), reply_context="ctx"
        )
        r = server.handle(
            Request(
                op=OpCode.MIGRATE_COMMIT,
                partition=pid,
                value=b"commit",
                payload=b"n9:9999",
            )
        )
        assert r.response.status == Status.OK
        assert len(r.forwards) == 1
        addr, queued = r.forwards[0]
        assert (addr.host, addr.port) == ("n9", 9999)
        assert queued.reply_context == "ctx"

    def test_abort_fails_queued_requests(self):
        table, servers, cfg = deploy()
        server, pid = owner_server(table, servers, b"k", cfg)
        server.handle(Request(op=OpCode.MIGRATE_BEGIN, partition=pid))
        server.handle(
            Request(op=OpCode.INSERT, key=b"k", value=b"v"), reply_context="ctx"
        )
        r = server.handle(
            Request(op=OpCode.MIGRATE_COMMIT, partition=pid, value=b"abort")
        )
        assert len(r.failed_queued) == 1

    def test_migrate_data_imports(self):
        table, servers, cfg = deploy()
        src, pid = owner_server(table, servers, b"k", cfg)
        src.handle(Request(op=OpCode.INSERT, key=b"k", value=b"v"))
        export = src.handle(
            Request(op=OpCode.MIGRATE_BEGIN, partition=pid)
        ).response.value
        dst = next(s for s in servers.values() if s is not src)
        r = dst.handle(
            Request(op=OpCode.MIGRATE_DATA, partition=pid, value=export)
        )
        assert r.response.status == Status.OK
        assert r.response.value == b"1"
        assert dst.partition(pid).store.get(b"k") == b"v"
        assert dst.stats.migration_bytes_in == len(export)

    def test_migrate_data_bad_payload(self):
        table, servers, cfg = deploy()
        server = next(iter(servers.values()))
        r = server.handle(
            Request(op=OpCode.MIGRATE_DATA, partition=0, value=b"garbage{")
        )
        assert r.response.status == Status.MIGRATING
        # A header that is valid in itself but counts a record that is
        # not there is refused the same way, and nothing is installed.
        server.partition(0).store.put(b"mine", b"before")
        one, two = [(b"a", b"1")], [(b"a", b"1"), (b"b", b"2")]
        inflated = (
            encode_image(two)[:IMAGE_HEADER_LEN] + encode_image(one)[IMAGE_HEADER_LEN:]
        )
        r = server.handle(
            Request(op=OpCode.MIGRATE_DATA, partition=0, value=inflated)
        )
        assert r.response.status == Status.MIGRATING
        assert dict(server.partition(0).store.items()) == {b"mine": b"before"}
        assert server.stats.migrations_in == 0
        assert server.stats.migration_bytes_in == 0


class TestMembershipUpdate:
    def test_adopts_newer_table(self):
        table, servers, cfg = deploy()
        server = next(iter(servers.values()))
        newer = table.copy()
        newer.mark_node_dead("n1")
        # Give this server its own older copy to prove adoption.
        server.membership = table.copy()
        r = server.handle(
            Request(op=OpCode.MEMBERSHIP_UPDATE, payload=newer.to_bytes())
        )
        assert r.response.status == Status.OK
        assert not server.membership.nodes["n1"].alive
        assert server.stats.membership_updates == 1

    def test_ignores_stale_table(self):
        table, servers, cfg = deploy()
        server = next(iter(servers.values()))
        stale = table.copy()
        server.membership.mark_node_dead("n1")
        r = server.handle(
            Request(op=OpCode.MEMBERSHIP_UPDATE, payload=stale.to_bytes())
        )
        assert r.response.status == Status.OK
        assert server.stats.membership_updates == 0

    def test_bad_payload(self):
        _, servers, _ = deploy()
        server = next(iter(servers.values()))
        r = server.handle(
            Request(op=OpCode.MEMBERSHIP_UPDATE, payload=b"junk")
        )
        assert r.response.status == Status.BAD_REQUEST


class TestReplicationSequencer:
    """Replica sends must leave in store-apply (ticket) order."""

    def test_tickets_are_fifo(self):
        import threading

        from repro.core.server import ReplicationSequencer

        seq = ReplicationSequencer()
        order = []
        tickets = [seq.ticket() for _ in range(3)]

        def sender(t):
            seq.wait_turn(t, timeout=5.0)
            order.append(t)
            seq.retire(t)

        # Start the senders in reverse ticket order; the sequencer must
        # still release them 0, 1, 2.
        threads = [
            threading.Thread(target=sender, args=(t,))
            for t in reversed(tickets)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert order == tickets

    def test_concurrent_tickets_are_unique(self):
        """Taking a ticket takes no lock: threads racing for tickets must
        still each get a different one."""
        from repro.core.server import ReplicationSequencer

        seq = ReplicationSequencer()
        taken: list[list[int]] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: taken.append([seq.ticket() for _ in range(2000)]))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        tickets = [t for batch in taken for t in batch]
        assert sorted(tickets) == list(range(8 * 2000))

    def test_wait_turn_times_out_instead_of_wedging(self):
        import time

        from repro.core.server import ReplicationSequencer

        seq = ReplicationSequencer()
        stuck = seq.ticket()  # never retired (peer hung)
        late = seq.ticket()
        t0 = time.monotonic()
        seq.wait_turn(late, timeout=0.05)  # returns rather than wedging
        assert time.monotonic() - t0 < 1.0

    def test_reticket_retires_the_old_ticket(self):
        from repro.core.server import ReplicationSequencer

        seq = ReplicationSequencer()
        first = seq.ticket()
        second = seq.reticket(first)
        assert second > first
        # The trade retired `first`, so retiring `second` drains the
        # queue and a new ticket's turn comes up immediately.
        seq.retire(second)
        seq.wait_turn(seq.ticket(), timeout=0.0)

    def test_replicated_mutations_carry_ticket(self):
        table, servers, cfg = deploy(num_nodes=4, num_replicas=1)
        server, _ = owner_server(table, servers, b"seq-key", cfg)
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"seq-key", value=b"v")
        )
        assert r.repl_sequencer is server.repl_sequencer
        assert r.repl_ticket is not None
        assert r.sync_sends  # the strong secondary
        read = server.handle(Request(op=OpCode.LOOKUP, key=b"seq-key"))
        assert read.repl_sequencer is None and read.repl_ticket is None

    def test_tickets_issued_in_apply_order(self):
        table, servers, cfg = deploy(num_nodes=4, num_replicas=1)
        server, _ = owner_server(table, servers, b"seq-key", cfg)
        tickets = []
        for i in range(3):
            r = server.handle(
                Request(op=OpCode.APPEND, key=b"seq-key", value=b"|%d;" % i)
            )
            tickets.append(r.repl_ticket)
        assert tickets == sorted(tickets)

    def test_the_ticket_is_taken_under_the_store_lock(self):
        """Ticket order is apply order only if no other mutation of the
        partition can land between a group's apply and its ticket."""
        table, servers, cfg = deploy(num_nodes=4, num_replicas=1)
        server, pid = owner_server(table, servers, b"seq-key", cfg)
        held = []
        reticket = server.repl_sequencer.reticket

        def spy(old):
            held.append(server.partitions[pid].store.lock._is_owned())
            return reticket(old)

        server.repl_sequencer.reticket = spy
        for op in (OpCode.INSERT, OpCode.APPEND, OpCode.REMOVE):
            r = server.handle(Request(op=op, key=b"seq-key", value=b"v"))
            assert r.response.status == Status.OK
        assert held == [True, True, True]

    def test_unreplicated_mutations_carry_no_ticket(self):
        table, servers, cfg = deploy(num_replicas=0)
        server, _ = owner_server(table, servers, b"seq-key", cfg)
        r = server.handle(
            Request(op=OpCode.INSERT, key=b"seq-key", value=b"v")
        )
        assert r.repl_sequencer is None and r.repl_ticket is None
