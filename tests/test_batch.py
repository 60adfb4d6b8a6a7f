"""Batched + pipelined request path: BATCH opcode, per-owner planning,
multiplexed TCP, WAL group commit (tentpole tests)."""

import dataclasses
import inspect
import random
import re
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.client
import repro.core.server
from repro.api import ZHT, build_local_cluster
from repro.core import KeyNotFound, ZHTConfig
from repro.core.client import BatchEntry, ZHTClientCore
from repro.core.loops import OpClient
from repro.core.errors import ProtocolError, Status
from repro.core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    new_instance_id,
)
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    decode_batch_requests,
    decode_batch_responses,
    encode_batch_requests,
    encode_batch_responses,
    frame,
)
from repro.faults.files import faulty_wal_opener
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.transport import FaultyClientTransport
from repro.net.cluster import build_tcp_cluster, build_udp_cluster
from repro.core.server import ZHTServerCore
from repro.net.tcp import MultiplexedTCPClient
from repro.net.transport import ClientTransport
from repro.net.udp import MAX_DATAGRAM
from repro.novoht import NoVoHT
from repro.obs import REGISTRY, PartitionLoadTracker


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestBatchCodec:
    def test_request_roundtrip(self):
        subs = [
            Request(
                op=OpCode.INSERT,
                key=f"k{i}".encode(),
                value=bytes([i]) * i,
                request_id=100 + i,
                epoch=7,
                replica_index=i % 3,
            )
            for i in range(5)
        ]
        decoded = decode_batch_requests(encode_batch_requests(subs))
        assert len(decoded) == 5
        for orig, got in zip(subs, decoded):
            assert got.op == orig.op
            assert got.key == orig.key
            assert got.value == orig.value
            assert got.request_id == orig.request_id
            assert got.replica_index == orig.replica_index

    def test_response_roundtrip(self):
        subs = [
            Response(
                status=Status.OK if i % 2 else Status.KEY_NOT_FOUND,
                value=b"v" * i,
                request_id=i,
            )
            for i in range(4)
        ]
        decoded = decode_batch_responses(encode_batch_responses(subs))
        assert [r.status for r in decoded] == [r.status for r in subs]
        assert [r.value for r in decoded] == [r.value for r in subs]

    def test_truncated_payload_raises(self):
        payload = encode_batch_requests(
            [Request(op=OpCode.LOOKUP, key=b"k", request_id=1)]
        )
        with pytest.raises(ProtocolError):
            decode_batch_requests(payload[:-1])

    def test_empty_payload_is_empty_batch(self):
        assert decode_batch_requests(b"") == []


# ---------------------------------------------------------------------------
# Client-side planning
# ---------------------------------------------------------------------------


def _planned_entries(core, keys, value=b"v"):
    """Entries as an :class:`OpDriver` hands them to the planner: hashed."""
    return [
        BatchEntry(key, value, pid=core.membership.partition_of_key(key, core.config.hash_name))
        for key in keys
    ]


class TestBatchPlanning:
    def test_groups_by_owner_and_covers_all_entries(self):
        with build_local_cluster(4, ZHTConfig(transport="local")) as cluster:
            core = cluster.client().core
            entries = _planned_entries(core, [f"key-{i}".encode() for i in range(64)])
            attempts, unroutable = core.plan_batches(OpCode.INSERT, entries)
            assert not unroutable
            assert sum(len(a.entries) for a in attempts) == 64
            # 64 keys over 4 instances: more than one owner group, and
            # each group targets a distinct instance.
            assert 1 < len(attempts) <= 4
            assert len({a.instance_id for a in attempts}) == len(attempts)
            for attempt in attempts:
                for entry in attempt.entries:
                    owner = core.membership.owner_of_partition(entry.pid)
                    assert owner.instance_id == attempt.instance_id
                    assert entry.replica_index == 0
                # Planning mints no request id: the driver does, on sending.
                assert attempt.request is None and attempt.sub_ids is None

    def test_max_bytes_chunks_attempts(self):
        with build_local_cluster(1, ZHTConfig(transport="local")) as cluster:
            core = cluster.client().core
            entries = [
                BatchEntry(key=f"key-{i:04d}".encode(), value=b"v" * 100)
                for i in range(50)
            ]
            limit = 1024
            driver = core.driver_many(OpCode.INSERT, entries, max_bytes=limit)
            sizes = []
            while (attempt := driver.next_attempt()) is not None:
                sizes.append(len(attempt.request.encode()))
                driver.on_response(
                    cluster.network.roundtrip(attempt.address, attempt.request, 1.0)
                )
            assert len(sizes) > 1 and max(sizes) <= limit
            assert all(entry.status == Status.OK for entry in entries)

    def test_dead_chain_is_unroutable(self):
        with build_local_cluster(1, ZHTConfig(transport="local")) as cluster:
            core = cluster.client().core
            node_id = next(iter(core.membership.nodes))
            core.membership.mark_node_dead(node_id)
            attempts, unroutable = core.plan_batches(
                OpCode.INSERT, _planned_entries(core, [b"k"])
            )
            assert not attempts
            assert len(unroutable) == 1


# ---------------------------------------------------------------------------
# End-to-end batched operations
# ---------------------------------------------------------------------------


class TestBatchOps:
    def test_many_ops_cycle_local(self):
        with build_local_cluster(3, ZHTConfig(transport="local")) as cluster:
            z = cluster.client()
            items = {f"bk{i}": f"bv{i}".encode() for i in range(100)}
            z.insert_many(items)
            got = z.lookup_many(items.keys())
            assert got == items
            removed = z.remove_many(items.keys())
            assert all(removed.values())
            with pytest.raises(KeyNotFound):
                z.lookup("bk0")

    def test_missing_key_fails_only_its_entry(self):
        with build_local_cluster(2, ZHTConfig(transport="local")) as cluster:
            z = cluster.client()
            z.insert_many({"present-1": b"a", "present-2": b"b"})
            got = z.lookup_many(["present-1", "ghost", "present-2"])
            assert got == {"present-1": b"a", "ghost": None, "present-2": b"b"}
            removed = z.remove_many(["present-1", "ghost"])
            assert removed == {"present-1": True, "ghost": False}

    def test_batch_stats_counted(self):
        with build_local_cluster(2, ZHTConfig(transport="local")) as cluster:
            z = cluster.client()
            z.insert_many({f"s{i}": b"v" for i in range(10)})
            assert z.stats.batch_ops == 10
            # At most one round trip per owning instance (2 instances).
            assert 1 <= z.stats.batches <= 2

    def test_replicated_batch_materializes_replicas(self):
        cfg = ZHTConfig(transport="local", num_replicas=1)
        with build_local_cluster(3, cfg) as cluster:
            z = cluster.client()
            z.insert_many({f"r{i}": b"v" for i in range(30)})
            # Local-network sends are synchronous, so primaries and
            # replicas have both landed by the time insert_many returns.
            assert cluster.total_pairs() == 60

    def test_stale_epoch_replans_via_per_key_redirect(self):
        """A client planning against a stale membership table gets per-key
        REDIRECTs and settles every entry after re-planning."""
        with build_local_cluster(2, ZHTConfig(transport="local")) as cluster:
            z = cluster.client()  # copies the table now
            cluster.add_node()  # moves partitions; client copy is stale
            items = {f"stale{i}": b"v" for i in range(40)}
            z.insert_many(items)
            assert z.stats.redirects_followed > 0
            assert z.lookup_many(items.keys()) == items

    def test_migrating_partition_fails_only_its_keys(self):
        with build_local_cluster(1, ZHTConfig(transport="local")) as cluster:
            z = cluster.client()
            core = z.core
            server = next(iter(cluster.servers.values()))
            keys = [f"mig{i}".encode() for i in range(20)]
            pids = {
                k: core.membership.partition_of_key(k, core.config.hash_name)
                for k in keys
            }
            locked_pid = pids[keys[0]]
            server.partition(locked_pid).begin_migration()
            try:
                subs = [
                    Request(
                        op=OpCode.INSERT,
                        key=k,
                        value=b"v",
                        request_id=1000 + i,
                        epoch=core.membership.epoch,
                    )
                    for i, k in enumerate(keys)
                ]
                outer = Request(
                    op=OpCode.BATCH,
                    request_id=999,
                    epoch=core.membership.epoch,
                    payload=encode_batch_requests(subs),
                )
                result = server.handle(outer, None)
                assert result.response.status == Status.OK
                decoded = decode_batch_responses(result.response.value)
                for k, sub in zip(keys, decoded):
                    expect = (
                        Status.MIGRATING
                        if pids[k] == locked_pid
                        else Status.OK
                    )
                    assert sub.status == expect
                assert any(s.status == Status.OK for s in decoded)
            finally:
                server.partition(locked_pid).abort_migration()


# ---------------------------------------------------------------------------
# Batches under fault injection
# ---------------------------------------------------------------------------


def _faulty_client(cluster, plan) -> ZHT:
    core = ZHTClientCore(cluster.membership.copy(), cluster.config)
    return ZHT(core, FaultyClientTransport(cluster.network, plan))


class TestBatchFaults:
    def test_dropped_batch_retries_to_success(self):
        with build_local_cluster(
            2, ZHTConfig(transport="local", request_timeout=0.05)
        ) as cluster:
            plan = FaultPlan(seed=1).add(
                FaultRule(FaultKind.DROP, op="BATCH", count=2)
            )
            z = _faulty_client(cluster, plan)
            items = {f"d{i}": b"v" for i in range(20)}
            z.insert_many(items)
            assert [r.kind for r in plan.trace] == [FaultKind.DROP] * 2
            assert z.lookup_many(items.keys()) == items

    def test_duplicated_batch_is_harmless_for_inserts(self):
        with build_local_cluster(
            2, ZHTConfig(transport="local", request_timeout=0.05)
        ) as cluster:
            plan = FaultPlan(seed=2).add(
                FaultRule(FaultKind.DUPLICATE, op="BATCH", count=3)
            )
            z = _faulty_client(cluster, plan)
            items = {f"dup{i}": b"v" for i in range(20)}
            z.insert_many(items)
            assert FaultKind.DUPLICATE in [r.kind for r in plan.trace]
            assert z.lookup_many(items.keys()) == items

    def test_swapped_sub_responses_are_not_matched_by_position(self):
        """Every sub-response echoes its sub-request's id and op; a reply
        whose subs arrive out of place is re-planned, not believed."""

        class Swapping(ClientTransport):
            def __init__(self, inner):
                self.inner = inner
                self.swapped = 0

            def roundtrip(self, address, request, timeout):
                response = self.inner.roundtrip(address, request, timeout)
                if request.op == OpCode.BATCH and response and not self.swapped:
                    subs = decode_batch_responses(response.value)
                    subs[0], subs[1] = subs[1], subs[0]
                    response = dataclasses.replace(
                        response, value=encode_batch_responses(subs)
                    )
                    self.swapped += 1
                return response

            def send_oneway(self, address, request):
                self.inner.send_oneway(address, request)

        with build_local_cluster(
            1, ZHTConfig(transport="local", request_timeout=0.02)
        ) as cluster:
            z = cluster.client()
            items = {f"swap{i}": f"value-{i}".encode() for i in range(8)}
            z.insert_many(items)
            z.transport = Swapping(z.transport)
            assert z.lookup_many(items.keys()) == items
            assert z.transport.swapped == 1
            assert z.stats.batches == 3  # insert, poisoned lookup, retry

    def test_delayed_batch_still_settles(self):
        with build_local_cluster(
            2, ZHTConfig(transport="local", request_timeout=0.2)
        ) as cluster:
            plan = FaultPlan(seed=3).add(
                FaultRule(FaultKind.DELAY, op="BATCH", delay=0.02, count=4)
            )
            z = _faulty_client(cluster, plan)
            items = {f"slow{i}": b"v" for i in range(12)}
            z.insert_many(items)
            assert z.lookup_many(items.keys()) == items


# ---------------------------------------------------------------------------
# The batch path against the per-op path it must agree with
# ---------------------------------------------------------------------------

_POOL = [b"key-%02d" % i for i in range(10)] + [b"k" * 30]  # the last is over-limit
_CLIENT_OPS = (OpCode.INSERT, OpCode.LOOKUP, OpCode.REMOVE, OpCode.APPEND)
_COMPARED = ("inserts", "lookups", "removes", "appends", "redirects", "replica_updates")

_client_sub = st.tuples(
    st.sampled_from(_CLIENT_OPS),
    st.integers(0, len(_POOL) - 1),
    st.binary(max_size=60),  # max_value_bytes is 48
    st.integers(0, 1),  # replica_index: 1 = failover-addressed
)
_replica_sub = st.tuples(
    st.just(OpCode.REPLICA_UPDATE),
    st.integers(0, len(_POOL) - 1),  # over-limit keys and values are stored as sent
    st.binary(max_size=60),
    # inner op: the three a chain carries, two it does not, one no OpCode has
    st.sampled_from([int(op) for op in _CLIENT_OPS + (OpCode.PING,)] + [99]),
)


def _twin_cores(num_replicas: int) -> tuple[ZHTServerCore, ZHTServerCore, int]:
    """Two cores with the same identity over equal membership tables, and
    a partition both hold frozen for migration."""
    cfg = ZHTConfig(
        num_partitions=8, transport="local", num_replicas=num_replicas,
        max_key_bytes=24, max_value_bytes=48,
    )
    rng = random.Random(11)
    nodes = [NodeInfo(f"n{n}", Address(f"n{n}", 1)) for n in range(3)]
    instances = [
        InstanceInfo(new_instance_id(rng), f"n{n}", Address(f"n{n}", 9000 + n))
        for n in range(3)
    ]
    table = MembershipTable.bootstrap(8, nodes, instances)
    me = instances[0]
    cores = [ZHTServerCore(me, table.copy(), cfg) for _ in range(2)]
    for core in cores:
        core.partition_load = PartitionLoadTracker(clock=lambda: 0.0)
    owned = {table.partition_of_key(key, cfg.hash_name) for key in _POOL}
    frozen = min(pid for pid in owned if table.partition_owner[pid] == me.instance_id)
    for core in cores:
        core.partition(frozen).begin_migration()
    return cores[0], cores[1], frozen


def _flat_sends(result) -> list:
    """``(sync?, address, update)`` for every replica update a result
    carries, whether it travels alone or inside a per-peer BATCH."""
    flat = []
    for sync, sends in ((True, result.sync_sends), (False, result.async_sends)):
        for address, request in sends:
            updates = (
                decode_batch_requests(request.payload)
                if request.op == OpCode.BATCH
                else [request]
            )
            flat += [(sync, str(address), update) for update in updates]
    return flat


class TestBatchEqualsSingles:
    @pytest.mark.parametrize("num_replicas", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(st.one_of(_client_sub, _replica_sub), min_size=1, max_size=24))
    def test_one_batch_equals_the_same_ops_one_at_a_time(self, num_replicas, specs):
        batched, single, frozen = _twin_cores(num_replicas)
        table, cfg = batched.membership, batched.config
        subs = []
        for i, (op, key_index, value, extra) in enumerate(specs):
            key = _POOL[key_index]
            if op == OpCode.REPLICA_UPDATE:
                subs.append(Request(
                    op=op, key=key, value=value, request_id=100 + i, epoch=table.epoch,
                    partition=table.partition_of_key(key, cfg.hash_name),
                    replica_index=1, inner_op=extra,
                ))
            else:
                subs.append(Request(
                    op=op, key=key, value=value if op != OpCode.LOOKUP else b"",
                    request_id=100 + i, epoch=table.epoch, replica_index=extra,
                ))
        try:
            result = batched.handle(Request(
                op=OpCode.BATCH, request_id=1, epoch=table.epoch,
                payload=encode_batch_requests(subs),
            ))
            got = [
                (r.status, r.value, r.redirect, r.request_id, r.op)
                for r in decode_batch_responses(result.response.value)
            ]

            expected, sends = [], []
            counts = dict.fromkeys(_COMPARED, 0)
            for sub in subs:
                before = single.stats.as_dict()
                one = single.handle(sub)
                for name in _COMPARED:
                    counts[name] += getattr(single.stats, name) - before[name]
                sends += _flat_sends(one)
                if one.response is None:  # parked behind the freeze
                    expected.append((Status.MIGRATING, b"", b"", sub.request_id, int(sub.op)))
                else:
                    r = one.response
                    expected.append((r.status, r.value, r.redirect, r.request_id, r.op))

            assert got == expected
            assert sorted(_flat_sends(result), key=repr) == sorted(sends, key=repr)
            for name in _COMPARED:
                assert getattr(batched.stats, name) == counts[name], name
            assert (batched.stats.batches, batched.stats.batch_sub_ops) == (1, len(subs))
            contents = [
                {pid: dict(p.store.items()) for pid, p in core.partitions.items() if len(p.store)}
                for core in (batched, single)
            ]
            assert contents[0] == contents[1]
            assert set(batched.partitions) == set(single.partitions)
            loads = [
                core.partition_load.snapshot(top=cfg.num_partitions) for core in (batched, single)
            ]
            for load in loads:
                load["hottest"].sort()
            assert loads[0] == loads[1]
            # The outer response: membership rides iff a sub was redirected,
            # and only a failed replica update folds outward.
            statuses = [status for status, *_ in got]
            assert bool(result.response.membership) == (Status.REDIRECT in statuses)
            failed_updates = [
                status for sub, status in zip(subs, statuses)
                if sub.op == OpCode.REPLICA_UPDATE and status != Status.OK
            ]
            assert result.response.status == (failed_updates or [Status.OK])[0]
            if sends:  # replica sends are released in ticket order
                assert result.repl_ticket is not None
        finally:
            for core in (batched, single):
                core.partition(frozen).abort_migration()
                core.close()

    @pytest.mark.parametrize("backend", ["local", "sim"])
    def test_mixed_length_keys_answer_as_point_ops(self, backend):
        """Keys of five lengths, three of them groups the lane hash runs and
        two too short for it, spanning both owners: each core answers one
        BATCH of lookups with the OK / REDIRECT / NOT_FOUND, value and
        redirect that a point lookup of each key gets."""
        from repro.scenario.cluster import build_cluster

        keys = [
            (b"%d-" % i).ljust(length, b"k")
            for length, count in ((4, 12), (7, 3), (15, 12), (40, 12), (100, 3))
            for i in range(count)
        ]
        stored = keys[::2]
        config = ZHTConfig(transport="local", num_partitions=16)
        with build_cluster(backend, 2, config, seed=5) as cluster:
            cores = cluster.cores
            assert len(cores) == 2
            epoch = cores[0].membership.epoch

            def point(core, op, key, value=b""):
                request = Request(op=op, key=key, value=value, request_id=7, epoch=epoch)
                response = core.handle(request).response
                return (response.status, response.value, response.redirect)

            for key in stored:
                assert {point(core, OpCode.INSERT, key, key)[0] for core in cores} == {
                    Status.OK, Status.REDIRECT
                }
            statuses = set()
            for core in cores:
                batch = core.handle(Request(
                    op=OpCode.BATCH, request_id=1, epoch=epoch,
                    payload=encode_batch_requests([
                        Request(op=OpCode.LOOKUP, key=key, request_id=7, epoch=epoch)
                        for key in keys
                    ]),
                ))
                got = [
                    (r.status, r.value, r.redirect)
                    for r in decode_batch_responses(batch.response.value)
                ]
                assert got == [point(core, OpCode.LOOKUP, key) for key in keys]
                statuses |= {status for status, _, _ in got}
            assert statuses == {Status.OK, Status.REDIRECT, Status.KEY_NOT_FOUND}

    def test_a_batch_takes_the_counter_lock_a_few_times_not_per_key(self):
        """32 inserts bump ``batches``, ``batch_sub_ops`` and ``inserts``:
        three locks, where one per key made 34."""
        with build_local_cluster(1, ZHTConfig(transport="local")) as cluster:
            server = next(iter(cluster.servers.values()))
            epoch = server.membership.epoch
            subs = [
                Request(op=OpCode.INSERT, key=b"lock-%d" % i, value=b"v", request_id=i, epoch=epoch)
                for i in range(32)
            ]
            calls = []
            stats = server.stats

            class Counting:
                def inc(self, field, n=1):
                    calls.append((field, n))
                    stats.inc(field, n)

            server.stats = Counting()
            try:
                result = server.handle(Request(
                    op=OpCode.BATCH, request_id=99, epoch=epoch,
                    payload=encode_batch_requests(subs),
                ))
            finally:
                server.stats = stats
            assert result.response.status == Status.OK
            assert len(calls) <= 8
            assert dict(calls) == {"batches": 1, "batch_sub_ops": 32, "inserts": 32}

    def test_the_hot_path_builds_no_per_key_message(self):
        """Replace, not fork: one group function serves every client op
        and replica update against a partition store and builds no per-key
        message object, and each message kind has one header check and
        one pack."""
        server_src = inspect.getsource(repro.core.server)
        assert "_sub_respond" not in server_src
        for gone in ("_apply_to_store", "_handle_replica_update", "_plan_replication"):
            assert not hasattr(ZHTServerCore, gone), gone
        group = inspect.getsource(ZHTServerCore._serve_group)
        for handler in (group, inspect.getsource(ZHTServerCore._handle_batch_inner)):
            assert "Response(" not in handler and "Request(" not in handler
        # apply_batch( is the only call made on a partition store, and only
        # the group function makes it (the broadcast store is not one).
        calls = re.findall(r"(\w*store)\.(put|get|remove|append|apply_batch)\(", server_src)
        assert {call for call in calls if call[0] != "broadcast_store"} == {("store", "apply_batch")}
        assert server_src.count("apply_batch(") == group.count("apply_batch(") > 0
        planner = inspect.getsource(ZHTClientCore.plan_batches)
        assert "Request(" not in planner
        protocol_src = inspect.getsource(repro.core.protocol)
        for header in ("_REQ_HEADER", "_RESP_HEADER"):
            assert protocol_src.count(f"{header}.unpack_from(") == 1
            assert protocol_src.count(f"{header}.pack(") == 1


# ---------------------------------------------------------------------------
# The client: one retry engine, a batch is N entries and a point op is one
# ---------------------------------------------------------------------------

_SCRIPTED = ("ok", "not_found", "redirect", "migrating", "retry_later", "timeout", "wrong_id")
_SUB_STATUS = {
    "ok": Status.OK,
    "not_found": Status.KEY_NOT_FOUND,
    "redirect": Status.REDIRECT,
    "migrating": Status.MIGRATING,
}
_CLIENT_COUNTERS = ("retries", "failovers", "degraded_reads", "redirects_followed")


class _ScriptedServers:
    """Answers a round trip by its address and the round it belongs to —
    the same answer for every entry a round sends to one address, whether
    the entries travel in one BATCH or one request each."""

    def __init__(self, script: dict, newer_table: bytes):
        self.script = script
        self.newer_table = newer_table

    def reply(self, attempt):
        outcomes = self.script[attempt.address]
        kind = outcomes[min(attempt.entries[0].attempts - 1, len(outcomes) - 1)]
        request = attempt.request
        if kind == "timeout":
            return None
        if kind == "retry_later":
            return Response(status=Status.RETRY_LATER, request_id=request.request_id)
        membership = self.newer_table if kind == "redirect" else b""
        if request.op != OpCode.BATCH:
            # A plain request with a wrong id never reaches its caller.
            if kind == "wrong_id":
                return None
            return Response(
                status=_SUB_STATUS[kind], value=b"got:" + request.key,
                request_id=request.request_id, membership=membership, op=request.op,
            )
        subs = [
            Response(
                status=_SUB_STATUS.get(kind, Status.OK), value=b"got:" + sub.key,
                request_id=sub.request_id + (kind == "wrong_id"), op=sub.op,
            )
            for sub in decode_batch_requests(request.payload)
        ]
        return Response(
            status=Status.OK, value=encode_batch_responses(subs),
            request_id=request.request_id, membership=membership, op=OpCode.BATCH,
        )


def _client_twins():
    """Two client cores over equal tables with a fixed clock, and a newer
    table (partitions moved one instance along) a REDIRECT can carry."""
    cfg = ZHTConfig(
        num_partitions=16, transport="local", num_replicas=2, request_timeout=0.01,
        max_retries=4, failures_before_dead=1, retry_jitter=False,
    )
    rng = random.Random(5)
    nodes = [NodeInfo(f"n{n}", Address(f"n{n}", 1)) for n in range(4)]
    instances = [
        InstanceInfo(new_instance_id(rng), f"n{n}", Address(f"n{n}", 9000 + n))
        for n in range(4)
    ]
    table = MembershipTable.bootstrap(16, nodes, instances)
    newer = table.copy()
    ids = sorted(newer.instances)
    for pid in range(16):
        owner = newer.partition_owner[pid]
        newer.reassign_partition(pid, ids[(ids.index(owner) + 1) % len(ids)])
    newer.epoch = table.epoch + 100
    cores = [
        ZHTClientCore(table.copy(), cfg, rng=random.Random(1), clock=lambda: 1000.0)
        for _ in range(2)
    ]
    return cores, [inst.address for inst in instances], newer.to_bytes()


def _outcome(entry):
    error = None if entry.error is None else type(entry.error)
    return (entry.status, entry.result, error, entry.replica_index)


class TestClientBatchEqualsSingles:
    @settings(max_examples=150, deadline=None)
    @given(
        op=st.sampled_from(_CLIENT_OPS),
        key_count=st.integers(1, 8),
        scripts=st.lists(
            st.lists(st.sampled_from(_SCRIPTED), min_size=1, max_size=4),
            min_size=4, max_size=4,
        ),
    )
    def test_one_driver_over_n_entries_equals_n_drivers_of_one(self, op, key_count, scripts):
        (batched, single), addresses, newer = _client_twins()
        servers = _ScriptedServers(dict(zip(addresses, scripts)), newer)
        keys = [b"key-%d" % i for i in range(key_count)]
        value = b"" if op == OpCode.LOOKUP else b"v"

        entries = [BatchEntry(key, value) for key in keys]
        driver = batched.driver_many(op, entries)
        while (attempt := driver.next_attempt()) is not None:
            response = servers.reply(attempt)
            driver.on_timeout() if response is None else driver.on_response(response)

        # The singles run in lockstep, a round at a time, and their replies
        # arrive in the order the batch's round trips went out.
        drivers = [single.driver(op, key, value) for key in keys]
        while True:
            by_address: dict = {}
            for one in drivers:
                attempt = one.next_attempt()
                if attempt is not None:
                    by_address.setdefault(attempt.address, []).append((one, attempt))
            if not by_address:
                break
            for sent in by_address.values():
                for one, attempt in sent:
                    response = servers.reply(attempt)
                    one.on_timeout() if response is None else one.on_response(response)

        assert [_outcome(e) for e in entries] == [_outcome(d.entries[0]) for d in drivers]
        for name in _CLIENT_COUNTERS:
            assert getattr(batched.stats, name) == getattr(single.stats, name), name

    def test_the_des_runs_a_batch(self):
        from repro.sim import SimSpec, SimulatedCluster

        spec = SimSpec(num_nodes=4)
        config = ZHTConfig(num_partitions=spec.num_partitions, transport="local")
        spec.config = config
        cluster = SimulatedCluster(spec)
        env = cluster.env
        core = ZHTClientCore(
            cluster.membership.copy(), config, rng=random.Random(3), clock=lambda: env.now
        )
        items = {b"des-%d" % i: b"v%d" % i for i in range(24)}
        inserts = [BatchEntry(key, value) for key, value in items.items()]
        lookups = [BatchEntry(key) for key in items]

        client_ops = OpClient(core)

        def client():
            yield from cluster.drive(client_ops.run(core.driver_many(OpCode.INSERT, inserts)))
            yield from cluster.drive(client_ops.run(core.driver_many(OpCode.LOOKUP, lookups)))

        env.process(client(), name="batch-client")
        env.run()
        assert all(entry.status == Status.OK for entry in inserts)
        assert {entry.key: entry.result for entry in lookups} == items
        assert 1 < core.stats.batches <= 8  # one BATCH per owner, per op
        assert all(cluster.owner_value(key) == value for key, value in items.items())

    def test_the_des_runs_a_mixed_length_batch_as_point_ops(self):
        """The same harness: a lookup batch over keys of several lengths,
        half of them stored, settles each key as a point lookup does."""
        from repro.sim import SimSpec, SimulatedCluster

        spec = SimSpec(num_nodes=4)
        config = ZHTConfig(num_partitions=spec.num_partitions, transport="local")
        spec.config = config
        keys = [
            (b"%d-" % i).ljust(length, b"d")
            for length, count in ((5, 16), (9, 4), (23, 16), (64, 10))
            for i in range(count)
        ]
        stored = {key: b"v-" + key for key in keys[::2]}
        with SimulatedCluster(spec) as cluster:
            env = cluster.env
            core = ZHTClientCore(
                cluster.membership.copy(), config, rng=random.Random(3), clock=lambda: env.now
            )
            client_ops = OpClient(core)
            inserts = [BatchEntry(key, value) for key, value in stored.items()]
            batch = [BatchEntry(key) for key in keys]
            points = [core.driver(OpCode.LOOKUP, key) for key in keys]

            def settle(driver):
                try:
                    yield from cluster.drive(client_ops.run(driver))
                except KeyNotFound:
                    pass  # the entries hold the outcomes compared below

            def client():
                yield from settle(core.driver_many(OpCode.INSERT, inserts))
                yield from settle(core.driver_many(OpCode.LOOKUP, batch))
                for driver in points:
                    yield from settle(driver)

            env.process(client(), name="batch-client")
            env.run()
        assert all(entry.status == Status.OK for entry in inserts)
        assert [_outcome(entry) for entry in batch] == [_outcome(d.entries[0]) for d in points]
        assert {entry.key: entry.result for entry in batch if entry.status == Status.OK} == stored
        assert {entry.status for entry in batch} == {Status.OK, Status.KEY_NOT_FOUND}


class TestBatchHistory:
    def test_batch_read_records_the_chain_position_that_served_it(self):
        from repro.verify import HistoryRecorder

        cfg = ZHTConfig(
            transport="local", num_partitions=16, num_replicas=2, retry_jitter=False
        )
        with build_local_cluster(4, cfg) as cluster:
            recorder = HistoryRecorder()
            writer = cluster.client()
            table = cluster.membership
            pid = table.partition_of_key(b"anchor", cfg.hash_name)
            keys = [b"anchor"] + [
                key for key in (b"k%d" % i for i in range(400))
                if table.partition_of_key(key, cfg.hash_name) == pid
            ][:3]
            items = {key: b"v" + key for key in keys}
            writer.insert_many(items)
            chain = table.replicas_for_partition(pid, 2)

            # Owner and secondary dead in this client's view: the chain
            # re-forms from alive successors and position 1 serves.
            z = cluster.client(recorder=recorder)
            z.core.membership.mark_node_dead(chain[0].node_id)
            z.core.membership.mark_node_dead(chain[1].node_id)
            assert z.lookup_many(keys) == items

            # Owner and secondary shed load: the reads degrade to chain
            # position 2, an asynchronously updated replica.
            for inst in chain[:2]:
                cluster.servers[inst.instance_id].extra_inflight = lambda: 10**6
            z = cluster.client(recorder=recorder)
            assert z.lookup_many(keys) == items
            assert z.stats.degraded_reads == 2 * len(keys)
        reads = [event for event in recorder.events() if event.op == "lookup"]
        assert [event.replica_index for event in reads] == [1] * len(keys) + [2] * len(keys)


class TestOneClientRetryEngine:
    def test_one_driver_handles_every_status_and_mints_every_id(self):
        """Replace, not fork: a batch is an OpDriver over N entries, so each
        retry status is handled in one client function and every request
        id of an operation is minted inside OpDriver."""
        import ast

        import repro.api
        import repro.core.loops
        import repro.net.transport
        import repro.sim.cluster

        assert not hasattr(repro.net.transport, "execute_batch")
        assert not hasattr(repro.core.client, "BatchAttempt")
        # Every function of the client modules, and the client-side ones
        # of the modules that also hold server glue.
        server_side = {"SimulatedCluster", "effect_loop"}
        functions = {}
        modules = (
            repro.core.client, repro.core.loops, repro.net.transport, repro.api,
            repro.sim.cluster,
        )
        for module in modules:
            source = inspect.getsource(module)
            tree = ast.parse(source)
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.Module)):
                    owner = getattr(node, "name", module.__name__)
                    for child in node.body:
                        if isinstance(child, ast.FunctionDef) and not (
                            server_side & {owner, child.name}
                        ):
                            functions[f"{owner}.{child.name}"] = ast.get_source_segment(
                                source, child
                            )
        functions["SimulatedCluster.drive"] = inspect.getsource(
            repro.sim.cluster.SimulatedCluster.drive
        )
        for status in ("RETRY_LATER", "MIGRATING", "REDIRECT", "DEADLINE_EXCEEDED"):
            handlers = [name for name, src in functions.items() if f"Status.{status}" in src]
            assert handlers == ["OpDriver.on_response"], (status, handlers)
        minting = {
            name for name, src in functions.items()
            if "allocate_request_id()" in src or "_request_ids" in src
        }
        allowed = {
            "OpDriver._encode",
            "ZHTClientCore.__init__",  # creates the counter
            "ZHTClientCore.allocate_request_id",
            "ZHTClientCore._mark_node_dead",  # the manager notification
            "ZHT.broadcast",
            "ZHT.lookup_broadcast",  # LOOKUP_LOCAL
            "ZHT.refresh_membership",  # GET_MEMBERSHIP
        }
        assert minting <= allowed, minting - allowed
        assert "OpDriver._encode" in minting


# ---------------------------------------------------------------------------
# Real sockets
# ---------------------------------------------------------------------------


class TestBatchOverSockets:
    def test_tcp_batch_cycle(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=1.0)
        with build_tcp_cluster(2, cfg) as cluster:
            z = cluster.client()
            assert isinstance(z.transport, MultiplexedTCPClient)
            items = {f"tcpb{i}": f"val{i}".encode() * 4 for i in range(80)}
            z.insert_many(items)
            assert z.lookup_many(items.keys()) == items
            assert all(z.remove_many(items.keys()).values())

    def test_udp_batch_chunks_to_datagrams(self):
        cfg = ZHTConfig(transport="udp", num_partitions=64, request_timeout=1.0)
        with build_udp_cluster(1, cfg) as cluster:
            z = cluster.client()
            # 120 x 1800 B values cannot fit one datagram, so the planner
            # must chunk the inserts into several BATCH round trips.
            items = {f"udpb{i}": b"x" * 1800 for i in range(120)}
            z.insert_many(items)
            assert z.stats.batches > 1
            # Responses are single datagrams too, so verify in slices
            # whose summed values fit (the same inherent UDP limit the
            # per-op path has for oversized values).
            keys = list(items)
            for start in range(0, len(keys), 25):
                chunk = keys[start : start + 25]
                assert z.lookup_many(chunk) == {k: items[k] for k in chunk}

    def test_udp_batch_straddling_datagram_limit_splits_exactly(self):
        cfg = ZHTConfig(transport="udp", num_partitions=64, request_timeout=1.0)
        with build_udp_cluster(1, cfg) as cluster:
            z = cluster.client()
            sizes = []
            roundtrip = z.transport.roundtrip

            def recording(address, request, timeout):
                sizes.append(len(request.encode()))
                return roundtrip(address, request, timeout)

            z.transport.roundtrip = recording
            # Each sub-request frames to 2 + 44 + 4 + 5363 = 5413 bytes and
            # 12 of them plus the 44-byte BATCH header are MAX_DATAGRAM to
            # the byte, so the 13th key must travel in a second datagram —
            # alone, so as a plain 44 + 4 + 5363-byte request.
            items = {f"s{i:03d}": bytes([i]) * 5363 for i in range(13)}
            z.insert_many(items)
            assert sizes == [MAX_DATAGRAM, 44 + 4 + 5363]
            for key, value in items.items():
                assert z.lookup(key) == value


# ---------------------------------------------------------------------------
# Multiplexed TCP client
# ---------------------------------------------------------------------------


class _ReorderServer:
    """Accepts one connection, reads ``expect`` framed requests, then
    answers them in REVERSE order — out-of-order completion that the
    multiplexed client must re-match by request id."""

    def __init__(self, expect: int):
        self.expect = expect
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.address = Address("127.0.0.1", self._sock.getsockname()[1])
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn:
            from repro.core.protocol import deframe_at

            buffer = bytearray()
            offset = 0
            requests = []
            while len(requests) < self.expect:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while True:
                    message, offset = deframe_at(buffer, offset)
                    if message is None:
                        break
                    requests.append(Request.decode(message))
            for request in reversed(requests):
                response = Response(
                    status=Status.OK,
                    value=request.key,
                    request_id=request.request_id,
                    op=int(request.op),
                )
                conn.sendall(frame(response.encode()))

    def close(self):
        self._sock.close()
        self.thread.join(timeout=2)


class TestMultiplexedClient:
    def test_out_of_order_responses_match_by_id(self):
        depth = 8
        server = _ReorderServer(depth)
        client = MultiplexedTCPClient()
        results: dict[int, Response | None] = {}

        def run(rid: int):
            results[rid] = client.roundtrip(
                server.address,
                Request(op=OpCode.LOOKUP, key=f"key{rid}".encode(), request_id=rid),
                timeout=5.0,
            )

        try:
            # Establish the connection up front: the fake server accepts
            # exactly one socket, so the racing threads must all find a
            # cached connection rather than dialing concurrently.
            assert client._get(server.address) is not None
            threads = [
                threading.Thread(target=run, args=(rid,))
                for rid in range(1, depth + 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            for rid in range(1, depth + 1):
                assert results[rid] is not None
                assert results[rid].request_id == rid
                assert results[rid].value == f"key{rid}".encode()
            # All depth requests shared ONE pipelined connection.
            assert client.connects == 1
        finally:
            client.close()
            server.close()

    def test_timeout_leaves_connection_usable(self):
        server = _ReorderServer(expect=2)  # answers only once 2 arrived
        client = MultiplexedTCPClient()
        try:
            first = client.roundtrip(
                server.address,
                Request(op=OpCode.LOOKUP, key=b"a", request_id=1),
                timeout=0.1,  # server is still waiting for the 2nd request
            )
            assert first is None  # timed out; connection must survive
            second = client.roundtrip(
                server.address,
                Request(op=OpCode.LOOKUP, key=b"b", request_id=2),
                timeout=5.0,
            )
            assert second is not None and second.value == b"b"
            assert client.connects == 1
            # The late response to request 1 was discarded silently, not
            # mis-matched to request 2.
            assert second.request_id == 2
        finally:
            client.close()
            server.close()

    def test_roundtrip_to_dead_address_returns_none(self):
        client = MultiplexedTCPClient(connect_timeout=0.2)
        assert (
            client.roundtrip(
                Address("127.0.0.1", 1), Request(op=OpCode.PING, request_id=1), 0.2
            )
            is None
        )
        client.close()

    def test_oneway_drop_on_dead_address_counted(self):
        client = MultiplexedTCPClient(connect_timeout=0.2)
        before = REGISTRY.counter("tcp.client.oneway_drops").value
        client.send_oneway(
            Address("127.0.0.1", 1), Request(op=OpCode.PING, request_id=9)
        )
        assert REGISTRY.counter("tcp.client.oneway_drops").value == before + 1
        client.close()


# ---------------------------------------------------------------------------
# WAL group commit
# ---------------------------------------------------------------------------


class TestGroupCommit:
    def test_one_fsync_per_batch(self, tmp_path):
        before = REGISTRY.counter("wal.fsyncs").value
        commits = REGISTRY.counter("wal.group_commits").value
        with NoVoHT(str(tmp_path / "store"), fsync=True) as store:
            ops = [("put", f"gk{i}".encode(), b"v" * 32) for i in range(64)]
            results = store.apply_batch(ops)
            assert all(ok for ok, _ in results)
            # 64 mutations, ONE fsync (vs 64 on the per-op path).
            assert REGISTRY.counter("wal.fsyncs").value == before + 1
            assert REGISTRY.counter("wal.group_commits").value == commits + 1

    def test_apply_batch_matches_sequential_semantics(self, tmp_path):
        with NoVoHT(str(tmp_path / "store")) as store:
            store.put(b"seed", b"s")
            results = store.apply_batch(
                [
                    ("put", b"a", b"1"),
                    ("append", b"a", b"2"),
                    ("get", b"a", b""),
                    ("get", b"ghost", b""),
                    ("remove", b"seed", b""),
                    ("remove", b"ghost", b""),
                    ("append", b"fresh", b"new"),
                ]
            )
            assert results == [
                (True, None),
                (True, None),
                (True, b"12"),
                (False, None),
                (True, None),
                (False, None),
                (True, None),
            ]
            assert store.get(b"a") == b"12"
            assert store.get(b"fresh") == b"new"
            assert b"seed" not in store

    def test_group_commit_crash_recovery_drops_only_torn_suffix(self, tmp_path):
        """Batch 1 is fsynced (durable); batch 2's fsync is lost and the
        crash tears its single group write — recovery must keep all of
        batch 1 and only a *prefix* of batch 2's records."""
        plan = FaultPlan(seed=0).add(
            FaultRule(FaultKind.FSYNC_LOSS, after=1)  # lose 2nd+ fsyncs
        )
        opener = faulty_wal_opener(plan)
        path = str(tmp_path / "store")
        store = NoVoHT(
            path, fsync=True, checkpoint_interval_ops=0, wal_opener=opener
        )
        batch1 = [("put", f"durable{i}".encode(), b"D" * 40) for i in range(8)]
        batch2 = [("put", f"volatile{i}".encode(), b"V" * 40) for i in range(8)]
        store.apply_batch(batch1)
        store.apply_batch(batch2)
        opener.last.simulate_crash()

        recovered = NoVoHT(path, checkpoint_interval_ops=0)
        try:
            for _, key, value in batch1:
                assert recovered.get(key) == value
            survived = [
                recovered.contains(key) for _, key, _ in batch2
            ]
            # Only a prefix of the torn group survives: once one record is
            # gone, every later record of that group is gone too.
            assert not all(survived)
            first_gone = survived.index(False)
            assert all(survived[:first_gone])
            assert not any(survived[first_gone:])
            # Surviving values are intact, never torn mid-record.
            for flag, (_, key, value) in zip(survived, batch2):
                if flag:
                    assert recovered.get(key) == value
        finally:
            recovered.close()

    def test_replay_streams_records(self, tmp_path):
        store = NoVoHT(str(tmp_path / "s"), checkpoint_interval_ops=0)
        for i in range(10):
            store.put(f"k{i}".encode(), b"v")
        wal = store._wal
        store._wal = None  # keep close() from checkpointing/truncating
        store.close()
        replay = wal.replay()
        assert iter(replay) is replay  # a lazy iterator, not a list
        first = next(replay)
        assert wal.record_count == 1  # counts as records are consumed
        assert first == (1, b"k0", b"v")
        assert sum(1 for _ in replay) == 9
        assert wal.record_count == 10


# ---------------------------------------------------------------------------
# Client-core thread safety (failure bookkeeping)
# ---------------------------------------------------------------------------


class TestClientCoreLocking:
    def test_concurrent_timeouts_mark_dead_exactly_once(self):
        with build_local_cluster(2, ZHTConfig(transport="local")) as cluster:
            core = cluster.client().core
            node_id = next(iter(core.membership.nodes))
            threads = [
                threading.Thread(
                    target=lambda: [core.record_timeout(node_id) for _ in range(50)]
                )
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # 400 concurrent timeouts: the node dies exactly once and
            # exactly one manager notification is queued.
            assert not core.membership.nodes[node_id].alive
            notes = core.take_notifications()
            assert len(notes) == 1
            assert core.take_notifications() == []
