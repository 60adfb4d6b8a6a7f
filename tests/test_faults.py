"""Tests for the fault-injection subsystem (repro.faults) and the
transport hardening that rides along with it."""

import socket
import threading
import time

import pytest

from repro.api import build_local_cluster
from repro.core.config import ZHTConfig
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Response
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultyClientTransport,
    FaultyWALFile,
)
from repro.net.tcp import MultiplexedTCPClient
from repro.net.transport import ClientTransport
from repro.obs import REGISTRY


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("meteor")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(FaultKind.DROP, probability=1.5)

    def test_wildcards(self):
        rule = FaultRule(FaultKind.DROP)
        assert rule.matches("anywhere", "INSERT")
        scoped = FaultRule(FaultKind.DROP, target="n1", op="LOOKUP")
        assert scoped.matches("n1", "LOOKUP")
        assert not scoped.matches("n2", "LOOKUP")
        assert not scoped.matches("n1", "INSERT")


class TestFaultPlanDeterminism:
    def _drive(self, plan, events=40):
        for i in range(events):
            plan.message_fate(target=f"t{i % 3}", op="INSERT")
        return plan.trace_keys()

    def test_same_seed_same_sequence(self):
        mk = lambda: FaultPlan(
            42,
            [
                FaultRule(FaultKind.DROP, probability=0.3),
                FaultRule(FaultKind.DELAY, probability=0.5, delay=0.001),
            ],
        )
        a, b = mk(), mk()
        assert self._drive(a) == self._drive(b)
        assert a.trace_digest() == b.trace_digest()
        assert len(a.trace) > 0

    def test_different_seed_different_sequence(self):
        rules = lambda: [FaultRule(FaultKind.DROP, probability=0.3)]
        a = FaultPlan(1, rules())
        b = FaultPlan(2, rules())
        self._drive(a)
        self._drive(b)
        assert a.trace_digest() != b.trace_digest()

    def test_after_and_count(self):
        plan = FaultPlan(0, [FaultRule(FaultKind.DROP, after=2, count=3)])
        fired = [plan.message_fate(target="x").lost is not None for _ in range(10)]
        assert fired == [False, False, True, True, True, False] + [False] * 4

    def test_message_fate_reads_every_fired_rule(self):
        plan = FaultPlan(
            0,
            [
                FaultRule(FaultKind.DELAY, delay=0.002),
                FaultRule(FaultKind.DUPLICATE),
                FaultRule(FaultKind.STALL, delay=0.003),
                FaultRule(FaultKind.DUPLICATE),
            ],
        )
        fate = plan.message_fate(target="x")
        assert fate.lost is None and fate.copies == 3
        assert fate.delay == pytest.approx(0.005)

    def test_message_fate_loss_is_the_first_in_rule_order(self):
        plan = FaultPlan(
            0, [FaultRule(FaultKind.RESET), FaultRule(FaultKind.DROP)]
        )
        assert plan.message_fate(target="x").lost == FaultKind.RESET
        # Both rules still fired and were traced.
        assert [r.kind for r in plan.trace] == [FaultKind.RESET, FaultKind.DROP]

    def test_file_faults_separate_from_message_faults(self):
        plan = FaultPlan(
            0,
            [
                FaultRule(FaultKind.FSYNC_LOSS, after=1),
                FaultRule(FaultKind.DROP),
            ],
        )
        # Message path never fires file rules and vice versa.
        assert plan.file_fault(FaultKind.FSYNC_LOSS) is None  # after=1
        assert plan.file_fault(FaultKind.FSYNC_LOSS) is not None
        fired = len(plan.trace)
        assert plan.message_fate(target="x").lost == FaultKind.DROP
        assert [r.kind for r in plan.trace[fired:]] == [FaultKind.DROP]

    def test_crash_bookkeeping(self):
        plan = FaultPlan(0)
        assert not plan.is_crashed("n1", "n1:20001")
        plan.crash_target("n1", "n1:20001")
        assert plan.is_crashed("n1")
        assert plan.is_crashed("n1:20001", "other")
        plan.revive_target("n1")
        assert not plan.is_crashed("n1")
        assert [r.kind for r in plan.trace] == [FaultKind.CRASH] * 2

    def test_scheduled_crashes_sorted(self):
        plan = FaultPlan(
            0,
            [
                FaultRule(FaultKind.CRASH, target="n3", at_time=0.5),
                FaultRule(FaultKind.CRASH, target="n1", at_time=0.1),
            ],
        )
        assert plan.scheduled_crashes() == [(0.1, "n1"), (0.5, "n3")]

    def test_message_chaos_factory(self):
        plan = FaultPlan.message_chaos(7, drop=0.1, delay=0.2, delay_seconds=0.01)
        kinds = {r.kind for r in plan.rules}
        assert kinds == {FaultKind.DROP, FaultKind.DELAY}


class _StubTransport(ClientTransport):
    """Records every call; always answers OK."""

    def __init__(self):
        self.roundtrips = []
        self.oneways = []
        self.evicted = []

    def roundtrip(self, address, request, timeout):
        self.roundtrips.append((address, request.op))
        return Response(status=0, request_id=request.request_id)

    def send_oneway(self, address, request):
        self.oneways.append((address, request.op))

    def evict(self, address):
        self.evicted.append(address)


def _nosleep(_seconds):
    pass


class TestFaultyClientTransport:
    ADDR = Address("n1", 7)

    def _wrap(self, rules, seed=0):
        inner = _StubTransport()
        plan = FaultPlan(seed, rules)
        return inner, FaultyClientTransport(inner, plan, sleep=_nosleep)

    def _req(self):
        return Request(op=OpCode.INSERT, key=b"k", value=b"v", request_id=1)

    def test_drop_swallows_request(self):
        inner, faulty = self._wrap([FaultRule(FaultKind.DROP, count=1)])
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is None
        assert inner.roundtrips == []
        assert [r.kind for r in faulty.plan.trace] == [FaultKind.DROP]
        # The single-shot rule is spent; the next send goes through.
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is not None

    def test_reset_fails_fast_and_evicts(self):
        inner, faulty = self._wrap([FaultRule(FaultKind.RESET, count=1)])
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is None
        assert inner.evicted == [self.ADDR]
        assert inner.roundtrips == []
        assert [r.kind for r in faulty.plan.trace] == [FaultKind.RESET]

    def test_delay_still_delivers(self):
        slept = []
        inner = _StubTransport()
        plan = FaultPlan(0, [FaultRule(FaultKind.DELAY, delay=0.005)])
        faulty = FaultyClientTransport(inner, plan, sleep=slept.append)
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is not None
        assert slept == [0.005]
        assert len(inner.roundtrips) == 1

    def test_duplicate_sends_twice(self):
        inner, faulty = self._wrap([FaultRule(FaultKind.DUPLICATE, count=1)])
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is not None
        assert len(inner.roundtrips) == 2
        faulty.send_oneway(self.ADDR, self._req())
        assert len(inner.oneways) == 1  # rule already spent

    def test_live_duplicates_at_most_once(self):
        inner, faulty = self._wrap(
            [FaultRule(FaultKind.DUPLICATE), FaultRule(FaultKind.DUPLICATE)]
        )
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is not None
        assert len(inner.roundtrips) == 2
        faulty.send_oneway(self.ADDR, self._req())
        assert len(inner.oneways) == 2

    def test_crashed_target_is_blackhole(self):
        inner, faulty = self._wrap([])
        faulty.plan.crash_target(str(self.ADDR))
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is None
        faulty.send_oneway(self.ADDR, self._req())
        assert inner.roundtrips == [] and inner.oneways == []
        # A black hole consults no rule: the trace holds the crash only.
        assert [r.kind for r in faulty.plan.trace] == [FaultKind.CRASH]
        faulty.plan.revive_target(str(self.ADDR))
        assert faulty.roundtrip(self.ADDR, self._req(), 0.1) is not None


class TestTCPOnewayRetry:
    """Satellite fix: a stale cached socket must not silently swallow
    one-way messages (async replica updates, failure reports)."""

    def _listener(self):
        chunks = []
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    while True:
                        data = conn.recv(65536)
                        if not data:
                            break
                        chunks.append(data)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        return listener, stop, chunks, Address(host, port)

    def _stale_client(self, address):
        """A client whose cached connection to *address* has gone bad in
        place (still cached, its socket closed)."""
        client = MultiplexedTCPClient()
        client._get(address).sock.close()
        return client

    def test_retry_on_stale_cached_socket(self):
        listener, stop, chunks, address = self._listener()
        try:
            client = self._stale_client(address)
            retries = REGISTRY.counter("tcp.client.oneway_retries").value
            drops = REGISTRY.counter("tcp.client.oneway_drops").value
            client.send_oneway(
                address, Request(op=OpCode.PING, request_id=9)
            )
            assert REGISTRY.counter("tcp.client.oneway_retries").value == retries + 1
            assert REGISTRY.counter("tcp.client.oneway_drops").value == drops
            deadline = time.time() + 2.0
            while not chunks and time.time() < deadline:
                time.sleep(0.01)
            assert chunks, "retried one-way message never arrived"
            client.close()
        finally:
            stop.set()
            listener.close()

    def test_drop_counted_when_unreachable(self):
        # A port with no listener: the retry cannot connect either.
        probe = socket.create_server(("127.0.0.1", 0))
        address = Address(*probe.getsockname())
        probe.close()
        client = MultiplexedTCPClient()
        drops = REGISTRY.counter("tcp.client.oneway_drops").value
        client.send_oneway(address, Request(op=OpCode.PING, request_id=9))
        assert REGISTRY.counter("tcp.client.oneway_drops").value == drops + 1

    def test_evict_closes_cached_connection(self):
        listener, stop, _chunks, address = self._listener()
        try:
            client = MultiplexedTCPClient()
            conn = client._get(address)
            client.evict(address)
            assert conn.closed and conn.sock.fileno() == -1
            client.evict(address)  # idempotent on an empty cache
        finally:
            stop.set()
            listener.close()

    def test_uncached_client_dials_every_operation(self):
        listener, stop, chunks, address = self._listener()
        try:
            client = MultiplexedTCPClient(cache_connections=False)
            for i in range(3):
                client.send_oneway(address, Request(op=OpCode.PING, request_id=i + 1))
            assert client.connects == 3 and not client._conns
            deadline = time.time() + 2.0
            while len(chunks) < 3 and time.time() < deadline:
                time.sleep(0.01)
            assert len(chunks) == 3  # one connection, one message each
        finally:
            stop.set()
            listener.close()


class TestDeadNodeEviction:
    """Satellite fix: marking a node dead evicts its cached connections."""

    def test_on_node_dead_evicts_all_instance_addresses(self):
        config = ZHTConfig(
            transport="local",
            num_partitions=16,
            failures_before_dead=2,
            instances_per_node=2,
        )
        with build_local_cluster(3, config) as cluster:
            z = cluster.client()
            spy = _StubTransport()
            z.transport = spy
            victim = sorted(z.membership.nodes)[1]
            expected = {
                inst.address
                for inst in z.membership.instances_on_node(victim)
            }
            assert len(expected) == 2
            for _ in range(config.failures_before_dead):
                z.core.record_timeout(victim)
            assert z.core.stats.nodes_marked_dead == 1
            assert set(spy.evicted) == expected


class TestFaultyWALFile:
    def test_honest_fsync_advances_durability(self, tmp_path):
        path = str(tmp_path / "wal")
        f = FaultyWALFile(path)
        f.write(b"abcdef")
        assert f.durable_bytes == 0
        f.fsync()
        assert f.durable_bytes == 6
        f.close()

    def test_lost_fsync_freezes_durability(self, tmp_path):
        path = str(tmp_path / "wal")
        plan = FaultPlan(0, [FaultRule(FaultKind.FSYNC_LOSS)])
        f = FaultyWALFile(path, plan=plan)
        f.write(b"abcdef")
        f.fsync()
        assert f.fsyncs_lost == 1
        assert f.durable_bytes == 0
        survived = f.simulate_crash()
        # No TORN_TAIL rule in the plan: clean truncation to durability.
        assert survived == 0

    def test_crash_without_plan_tears_tail(self, tmp_path):
        path = str(tmp_path / "wal")
        f = FaultyWALFile(path)
        f.write(b"x" * 100)
        survived = f.simulate_crash()
        assert 0 < survived < 100  # a torn prefix of the record remains
