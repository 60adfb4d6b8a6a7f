"""Tests for the real TCP transport (repro.net.tcp, repro.net.cluster)."""

import array
import fcntl
import heapq
import random
import select
import socket
import termios
import threading
import time

import pytest

from repro.api import build_membership
from repro.core import KeyNotFound, ZHTConfig
from repro.core.errors import Status
from repro.core.membership import Address
from repro.core.protocol import OpCode, Request, Response, deframe_span, frame
from repro.core.server import ZHTServerCore
from repro.net.cluster import build_tcp_cluster
from repro.net.tcp import EventDrivenTCPServer, MultiplexedTCPClient, tcp_listener
from repro.obs import REGISTRY
from tests._wait import wait_until


@pytest.fixture(scope="module")
def tcp_cluster():
    cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
    with build_tcp_cluster(3, cfg) as cluster:
        yield cluster


class TestBasicOps:
    def test_full_op_cycle(self, tcp_cluster):
        z = tcp_cluster.client()
        z.insert("tcp-key", b"tcp-value")
        assert z.lookup("tcp-key") == b"tcp-value"
        z.append("tcp-key", b"+more")
        assert z.lookup("tcp-key") == b"tcp-value+more"
        z.remove("tcp-key")
        with pytest.raises(KeyNotFound):
            z.lookup("tcp-key")

    def test_paper_workload_shape(self, tcp_cluster):
        """15-byte keys, 132-byte values — the micro-benchmark payload."""
        z = tcp_cluster.client()
        keys = [f"k{i:014d}" for i in range(50)]
        value = b"v" * 132
        for k in keys:
            z.insert(k, value)
        assert all(z.lookup(k) == value for k in keys)

    def test_two_clients_shared_state(self, tcp_cluster):
        a, b = tcp_cluster.client(), tcp_cluster.client()
        a.insert("shared", b"1")
        assert b.lookup("shared") == b"1"

    def test_large_value_crosses_frames(self, tcp_cluster):
        z = tcp_cluster.client()
        big = bytes(range(256)) * 2000  # 512 KB
        z.insert("big", big)
        assert z.lookup("big") == big

    def test_binary_keys(self, tcp_cluster):
        z = tcp_cluster.client()
        key = bytes([0, 255, 10, 13, 127])
        z.insert(key, b"binary")
        assert z.lookup(key) == b"binary"


class TestConnectionCaching:
    def test_cached_client_reuses_connections(self, tcp_cluster):
        z = tcp_cluster.client()
        for i in range(30):
            z.insert(f"cc{i}", b"v")
        # At most one connect per server (3 servers).
        assert z.transport.connects <= 3

    def test_uncached_client_connects_every_op(self):
        cfg = ZHTConfig(
            transport="tcp",
            num_partitions=64,
            connection_cache_size=0,
            request_timeout=0.5,
        )
        with build_tcp_cluster(2, cfg) as cluster:
            z = cluster.client()
            for i in range(10):
                z.insert(f"nc{i}", b"v")
            assert z.transport.connects == 10

    def test_caching_is_faster_than_no_caching(self):
        """Connection caching must beat per-op connects (Fig 7's gap).

        One wall-clock sample per side flips under host load, so the two
        sides run interleaved and each is judged by its best round; the
        sibling tests pin the mechanism itself (connect counts)."""
        ops, rounds = 150, 4

        def cfg(cache_size):
            return ZHTConfig(
                transport="tcp",
                num_partitions=64,
                connection_cache_size=cache_size,
                request_timeout=1.0,
            )

        def timed(z, tag):
            t0 = time.perf_counter()
            for i in range(ops):
                z.insert(f"t{tag}-{i}", b"v")
            return time.perf_counter() - t0

        with build_tcp_cluster(2, cfg(128)) as cached_cluster, build_tcp_cluster(
            2, cfg(0)
        ) as uncached_cluster:
            cached, uncached = cached_cluster.client(), uncached_cluster.client()
            cached.insert("warmup", b"x")
            uncached.insert("warmup", b"x")
            best_cached = best_uncached = float("inf")
            for r in range(rounds):
                best_cached = min(best_cached, timed(cached, r))
                best_uncached = min(best_uncached, timed(uncached, r))
        assert best_cached < best_uncached


class TestReplicationOverTCP:
    def test_replicas_materialize(self):
        cfg = ZHTConfig(
            transport="tcp",
            num_partitions=64,
            num_replicas=1,
            request_timeout=0.5,
        )
        with build_tcp_cluster(3, cfg) as cluster:
            z = cluster.client()
            for i in range(20):
                z.insert(f"r{i}", b"v")
            deadline = time.time() + 2
            while time.time() < deadline:
                total = sum(
                    len(p.store)
                    for s in cluster.servers
                    for p in s.core.partitions.values()
                )
                if total == 40:
                    break
                time.sleep(0.05)
            assert total == 40

    def test_failover_on_real_sockets(self):
        cfg = ZHTConfig(
            transport="tcp",
            num_partitions=64,
            num_replicas=2,
            request_timeout=0.1,
            failures_before_dead=2,
            max_retries=10,
        )
        with build_tcp_cluster(3, cfg) as cluster:
            z = cluster.client()
            for i in range(20):
                z.insert(f"f{i}", f"v{i}".encode())
            time.sleep(0.2)  # let async replicas land
            pid = cluster.membership.partition_of_key(b"f0", cfg.hash_name)
            owner = cluster.membership.owner_of_partition(pid)
            cluster.kill_node(owner.node_id)
            assert z.lookup("f0") == b"v0"
            assert z.stats.failovers >= 1


class _FakeReplica:
    """A replica whose answers a test scripts: ``answer(request)`` is the
    response to send, or ``None`` to stay silent (the default: a replica
    whose server has stalled, which accepts and reads but never answers)."""

    def __init__(self, answer=lambda _request: None):
        self._answer = answer
        self._listener = tcp_listener()
        self.address = Address("127.0.0.1", self._listener.getsockname()[1])
        self._conns = {}  # socket -> bytes of a frame still arriving
        self.accepted = 0
        self.received = 0  # requests
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while not self._stop.is_set():
            ready, _, _ = select.select([self._listener, *self._conns], [], [], 0.01)
            for sock in ready:
                if sock is self._listener:
                    self._conns[sock.accept()[0]] = bytearray()
                    self.accepted += 1
                    continue
                try:
                    data = sock.recv(65536)
                except OSError:
                    data = b""
                if not data:
                    del self._conns[sock]
                    sock.close()
                    continue
                buffer = self._conns[sock]
                buffer += data
                offset = 0
                while True:
                    start, end, offset = deframe_span(buffer, offset)
                    if start < 0:
                        break
                    self.received += 1
                    response = self._answer(Request.decode(bytes(buffer[start:end])))
                    if response is not None:
                        sock.sendall(frame(response.encode()))
                del buffer[:offset]

    def close(self):
        """Go away the way a stopped replica does: every connection and
        the listener close."""
        self._stop.set()
        self.thread.join(timeout=2)
        for conn in self._conns:
            conn.close()
        self._listener.close()


def _primary_with_fake_replica(config, answer=lambda _request: None):
    """A two-node deployment whose node 0 is a real server and whose node
    1, the replica of node 0's partitions, is a :class:`_FakeReplica`."""
    server, replica = EventDrivenTCPServer(), _FakeReplica(answer)
    addresses = iter([server.address, replica.address])
    membership, _nodes, instances = build_membership(
        2, config, random.Random(0), port_allocator=lambda _node, _i: next(addresses)
    )
    server.attach_core(ZHTServerCore(instances[0], membership.copy(), config))
    server.start()
    return server, replica, membership, instances


def _keys_owned_by(membership, config, address, count):
    keys = []
    for i in range(10_000):
        key = f"owned-{i}".encode()
        pid = membership.partition_of_key(key, config.hash_name)
        if membership.owner_of_partition(pid).address == address:
            keys.append(key)
            if len(keys) == count:
                return keys
    raise AssertionError("no keys owned by the primary")


class TestReplicationFailuresOverSockets:
    """The primary replicates on its event loop: a write's reply is held
    until the sync replica acks, and a replica that fails answers the
    write REPLICATION_ERROR without stalling the loop."""

    def test_a_replica_that_never_answers_times_the_write_out_not_the_loop(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=8, num_replicas=1, request_timeout=0.5)
        server, deaf, membership, _ = _primary_with_fake_replica(cfg)
        client = MultiplexedTCPClient()
        try:
            (key,) = _keys_owned_by(membership, cfg, server.address, 1)
            box = {}

            def write():
                start = time.monotonic()
                box["response"] = client.roundtrip(
                    server.address, Request(OpCode.INSERT, key, b"v", request_id=1), 5.0
                )
                box["elapsed"] = time.monotonic() - start

            writer = threading.Thread(target=write)
            writer.start()
            wait_until(lambda: deaf.received > 0, desc="the update reached the replica")
            start = time.monotonic()
            lookup = client.roundtrip(
                server.address, Request(OpCode.LOOKUP, key, request_id=2), 5.0
            )
            assert lookup is not None and lookup.value == b"v"
            assert time.monotonic() - start < 0.25
            assert writer.is_alive()  # the write is still held for its ack
            writer.join(timeout=5)
            assert box["response"].status == Status.REPLICATION_ERROR
            assert box["elapsed"] <= cfg.request_timeout + 0.5
            assert not server._pending_effects
        finally:
            client.close()
            server.stop()
            deaf.close()

    def test_a_stopped_replica_fails_every_pending_write_and_a_restart_reconnects(self):
        # A peer timeout far beyond the test's waits: only the closed
        # link can answer the writes this fast.
        cfg = ZHTConfig(transport="tcp", num_partitions=8, num_replicas=1, request_timeout=5.0)
        server, deaf, membership, instances = _primary_with_fake_replica(cfg)
        client = MultiplexedTCPClient()
        replica = None
        try:
            keys = _keys_owned_by(membership, cfg, server.address, 5)
            responses = {}

            def write(rid, key):
                responses[rid] = client.roundtrip(
                    server.address, Request(OpCode.INSERT, key, b"v", request_id=rid), 10.0
                )

            writers = [
                threading.Thread(target=write, args=(rid, key))
                for rid, key in enumerate(keys[:4], start=1)
            ]
            for writer in writers:
                writer.start()
            wait_until(lambda: len(server._pending_effects) == 4, desc="4 writes held for acks")
            stopped = time.monotonic()
            deaf.close()
            for writer in writers:
                writer.join(timeout=3)
                assert not writer.is_alive()
            assert time.monotonic() - stopped < 2.0
            assert [responses[rid].status for rid in range(1, 5)] == [Status.REPLICATION_ERROR] * 4
            assert not server._pending_effects

            replica = EventDrivenTCPServer(port=deaf.address.port)
            replica.attach_core(ZHTServerCore(instances[1], membership.copy(), cfg))
            replica.start()
            key = keys[4]
            response = client.roundtrip(
                server.address, Request(OpCode.INSERT, key, b"after", request_id=9), 10.0
            )
            assert response.status == Status.OK
            pid = membership.partition_of_key(key, cfg.hash_name)
            assert replica.core.partitions[pid].store.get(key) == b"after"
        finally:
            client.close()
            server.stop()
            deaf.close()
            if replica is not None:
                replica.stop()

    def test_an_error_ack_fails_the_write_and_a_stray_ack_closes_the_link(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=8, num_replicas=1, request_timeout=5.0)
        script = {"status": Status.BAD_REQUEST, "id_shift": 0}

        def answer(request):
            return Response(
                status=script["status"],
                request_id=request.request_id + script["id_shift"],
                op=int(request.op),
            )

        server, fake, membership, _ = _primary_with_fake_replica(cfg, answer)
        client = MultiplexedTCPClient()

        def insert(rid, key):
            start = time.monotonic()
            response = client.roundtrip(
                server.address, Request(OpCode.INSERT, key, b"v", request_id=rid), 10.0
            )
            assert time.monotonic() - start < 1.0  # answered by the ack, not the timeout
            return response.status

        try:
            keys = _keys_owned_by(membership, cfg, server.address, 4)
            assert insert(1, keys[0]) == Status.REPLICATION_ERROR
            script["status"] = Status.OK
            assert insert(2, keys[1]) == Status.OK
            assert fake.accepted == 1  # an error ack leaves the stream in step
            script["id_shift"] = 1  # answers some other update's id
            assert insert(3, keys[2]) == Status.REPLICATION_ERROR
            script["id_shift"] = 0
            assert insert(4, keys[3]) == Status.OK
            assert fake.accepted == 2  # the stray ack closed the link
        finally:
            client.close()
            server.stop()
            fake.close()

    def test_the_replica_wait_shows_in_stats_when_spans_are_on(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=8, num_replicas=1, request_timeout=2.0)
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            wait = REGISTRY.histogram("server.replication_wait")
            before = wait.count
            with build_tcp_cluster(2, cfg) as cluster:
                z = cluster.client()
                for i in range(10):
                    z.insert(f"wait-{i}", b"v")
            assert wait.count >= before + 10  # one sync replica per write
        finally:
            if not was_enabled:
                REGISTRY.disable()

    def test_concurrent_appends_leave_primary_and_secondary_identical(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=8, num_replicas=1, request_timeout=2.0)
        keys = [f"shared-{i}".encode() for i in range(4)]
        with build_tcp_cluster(2, cfg) as cluster:
            errors = []

            def appender(tid):
                z = cluster.client(seed=tid, client_id=f"appender-{tid}")
                try:
                    for i in range(60):
                        z.append(keys[i % len(keys)], f"|c{tid}i{i:03d};".encode())
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)

            threads = [threading.Thread(target=appender, args=(tid,)) for tid in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            for key in keys:
                pid = cluster.membership.partition_of_key(key, cfg.hash_name)
                values = [core.partitions[pid].store.get(key) for core in cluster.cores]
                assert len(values[0]) == 2 * 15 * len(b"|c0i000;")
                assert values[0] == values[1]


class TestClientRobustness:
    def test_roundtrip_to_nothing_returns_none(self):
        client = MultiplexedTCPClient(connect_timeout=0.2)
        response = client.roundtrip(
            Address("127.0.0.1", 1), Request(op=OpCode.PING), timeout=0.2
        )
        assert response is None
        client.close()

    def test_oneway_to_nothing_is_silent(self):
        client = MultiplexedTCPClient(connect_timeout=0.2)
        client.send_oneway(Address("127.0.0.1", 1), Request(op=OpCode.PING))
        client.close()

    def test_stale_cached_connection_recovers(self):
        """A connection cached across a server restart fails once, then a
        retry reconnects (driver retries handle it end-to-end)."""
        cfg = ZHTConfig(
            transport="tcp",
            num_partitions=64,
            request_timeout=0.3,
            failures_before_dead=5,
            max_retries=6,
        )
        with build_tcp_cluster(1, cfg) as cluster:
            z = cluster.client()
            z.insert("k", b"v")
            # Kill the cached connection out from under the client; the
            # next operation must reconnect transparently.
            for conn in list(z.transport._conns.values()):
                conn.sock.close()
            assert z.lookup("k") == b"v"

    def test_roundtrip_skips_stale_oneway_reply(self, tcp_cluster):
        """Servers answer one-way messages too; a later roundtrip on the
        same cached socket must return *its* reply, not that stale one."""
        address = tcp_cluster.servers[0].address
        client = MultiplexedTCPClient()
        try:
            client.send_oneway(address, Request(op=OpCode.PING, request_id=111))
            response = client.roundtrip(
                address, Request(op=OpCode.PING, request_id=222), timeout=1.0
            )
            assert response is not None and response.request_id == 222
            assert client.connects == 1  # same socket throughout
        finally:
            client.close()

    def test_oneway_replies_do_not_pile_up_unread(self, tcp_cluster):
        """A socket that only ever carries one-way traffic must not let
        the server's replies accumulate (first in the kernel buffer, then
        in the server's write queue, without bound)."""
        server = tcp_cluster.servers[0]
        client = MultiplexedTCPClient()
        sends = 5000

        def wait_served(count):
            deadline = time.monotonic() + 5
            while server.requests_served < count:
                assert time.monotonic() < deadline
                time.sleep(0.005)

        try:
            served = server.requests_served
            for i in range(1, sends + 1):
                client.send_oneway(
                    server.address, Request(op=OpCode.PING, request_id=i)
                )
                if i % 500 == 0:
                    # Keep the (in-process) server within 500 replies of
                    # the sender, so what is unread at the end is bounded
                    # by the client's behaviour and not by thread timing.
                    wait_served(served + i)
            time.sleep(0.1)  # let the last replies reach the socket
            unread = array.array("i", [0])
            fcntl.ioctl(client._conns[server.address].sock, termios.FIONREAD, unread)
            assert unread[0] < 64 * 1024  # 5,000 PING replies are ~145 KB
            assert client.connects == 1
        finally:
            client.close()


# ---------------------------------------------------------------------------
# The multiplexed client without a reader thread
# ---------------------------------------------------------------------------


class _StallingServer:
    """Accepts one connection and answers request ``rid``
    ``delay_of(rid)`` seconds after it arrives (``None``: never), so a
    test decides the order replies come back in, or withholds them."""

    def __init__(self, delay_of):
        self._delay_of = delay_of
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = Address("127.0.0.1", self._listener.getsockname()[1])
        self._conn = None
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        self._conn, _ = self._listener.accept()
        conn = self._conn
        conn.settimeout(0.005)
        buffer, due = bytearray(), []
        while not self._stop.is_set():
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                chunk = None
            except OSError:
                return
            if chunk == b"":
                return
            now = time.monotonic()
            if chunk:
                buffer += chunk
                offset = 0
                while True:
                    start, end, offset = deframe_span(buffer, offset)
                    if start < 0:
                        break
                    request = Request.decode(bytes(buffer[start:end]))
                    delay = self._delay_of(request.request_id)
                    if delay is not None:
                        reply = Response(
                            status=Status.OK,
                            value=request.key,
                            request_id=request.request_id,
                            op=int(request.op),
                        )
                        heapq.heappush(
                            due, (now + delay, request.request_id, frame(reply.encode()))
                        )
                del buffer[:offset]
            try:
                while due and due[0][0] <= now:
                    conn.sendall(heapq.heappop(due)[2])
            except OSError:
                return

    def kill(self):
        """Drop the connection the way a crashed server would."""
        self._stop.set()
        self._listener.close()
        if self._conn is not None:
            self._conn.close()

    def close(self):
        self.kill()
        self.thread.join(timeout=2)
        assert not self.thread.is_alive()


def _mux_call(client, address, rid, timeout, results):
    started = time.monotonic()
    response = client.roundtrip(
        address,
        Request(op=OpCode.LOOKUP, key=b"key-%d" % rid, request_id=rid),
        timeout,
    )
    results[rid] = (response, time.monotonic() - started)


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestMuxWithoutReaderThread:
    def test_no_thread_per_server(self):
        cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=0.5)
        with build_tcp_cluster(4, cfg) as cluster:
            before = threading.active_count()
            zht = cluster.client()
            served = [server.requests_served for server in cluster.servers]
            for i in range(200):
                zht.insert(f"spread-{i}", b"v")
            assert all(
                server.requests_served > then
                for server, then in zip(cluster.servers, served)
            )
            assert len(zht.transport._conns) == 4
            assert not [t for t in threading.enumerate() if t.name.startswith("zht-mux")]
            assert threading.active_count() == before

    def test_sixteen_callers_each_get_their_own_reordered_reply(self):
        callers = 16
        # Later requests are answered first.
        server = _StallingServer(lambda rid: 0.01 * (callers + 1 - rid))
        client = MultiplexedTCPClient()
        results = {}
        try:
            assert client._get(server.address) is not None  # one accept only
            threads = [
                threading.Thread(
                    target=_mux_call, args=(client, server.address, rid, 5.0, results)
                )
                for rid in range(1, callers + 1)
            ]
            for thread in threads:
                thread.start()
            _join_all(threads)
            for rid in range(1, callers + 1):
                response, _elapsed = results[rid]
                assert response is not None
                assert response.request_id == rid
                assert response.value == b"key-%d" % rid
            assert client.connects == 1
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("impatient_reads", [True, False])
    def test_one_timeout_neither_fails_nor_delays_the_others(self, impatient_reads):
        """Request 1 gives up before its reply is sent; 2 and 3 are
        answered later still.  Whether the impatient caller held the read
        role or was parked behind a reader, the others get their replies
        when those arrive, and the late reply to 1 is eaten by id."""
        delays = {1: 0.6, 2: 0.3, 3: 0.3, 4: 0.0}
        timeouts = {1: 0.15, 2: 2.0, 3: 2.0}
        server = _StallingServer(delays.get)
        client = MultiplexedTCPClient()
        unmatched = REGISTRY.counter("tcp.client.mux_unmatched")
        unmatched_before = unmatched.value
        results = {}
        try:
            assert client._get(server.address) is not None
            order = [1, 2, 3] if impatient_reads else [2, 3, 1]
            threads = []
            for rid in order:
                thread = threading.Thread(
                    target=_mux_call,
                    args=(client, server.address, rid, timeouts[rid], results),
                )
                thread.start()
                threads.append(thread)
                time.sleep(0.02)  # the first caller takes the read role
            _join_all(threads)
            gave_up, waited = results[1]
            assert gave_up is None and 0.15 <= waited < 0.29
            for rid in (2, 3):
                response, waited = results[rid]
                assert response is not None and response.request_id == rid
                assert waited < 0.55  # its own reply's arrival, not 1's
            time.sleep(0.4)  # the reply to 1 is on the wire by now
            _mux_call(client, server.address, 4, 2.0, results)
            assert results[4][0].request_id == 4
            assert unmatched.value == unmatched_before
            assert client.connects == 1
        finally:
            client.close()
            server.close()

    def test_server_death_fails_every_waiter_promptly(self):
        request_timeout = 3.0
        server = _StallingServer(lambda rid: None)  # never answers
        client = MultiplexedTCPClient()
        results = {}
        try:
            assert client._get(server.address) is not None
            threads = [
                threading.Thread(
                    target=_mux_call,
                    args=(client, server.address, rid, request_timeout, results),
                )
                for rid in range(1, 9)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            server.kill()
            _join_all(threads)
            for rid in range(1, 9):
                response, waited = results[rid]
                assert response is None
                assert waited < request_timeout
        finally:
            client.close()
            server.close()

    def test_idle_connection_closed_by_peer_costs_no_failed_roundtrip(self):
        """No thread watches an idle socket, so a peer's close is first
        seen by the next request's read; that request is re-sent once
        on a fresh connection instead of being reported as a timeout."""
        listener = socket.create_server(("127.0.0.1", 0))
        address = Address("127.0.0.1", listener.getsockname()[1])

        def serve():
            for _ in range(2):  # one request per connection, then close
                conn, _addr = listener.accept()
                with conn:
                    request = Request.decode(bytes(conn.recv(65536))[1:])
                    reply = Response(status=Status.OK, request_id=request.request_id)
                    conn.sendall(frame(reply.encode()))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = MultiplexedTCPClient()
        try:
            for rid in (1, 2):
                response = client.roundtrip(
                    address, Request(op=OpCode.PING, request_id=rid), 2.0
                )
                assert response is not None and response.request_id == rid
                time.sleep(0.05)  # the server's close reaches the socket
            assert client.connects == 2
        finally:
            client.close()
            listener.close()
            thread.join(timeout=2)
            assert not thread.is_alive()

    def test_oneway_burst_leaves_no_replies_queued(self, tcp_cluster):
        """10k one-way sends and not one round trip: the replies must be
        drained by the sends themselves, or they back up into the
        server's write queue."""
        server = tcp_cluster.servers[0]
        client = MultiplexedTCPClient()
        sends = 10_000
        try:
            served = server.requests_served
            for i in range(1, sends + 1):
                client.send_oneway(
                    server.address, Request(op=OpCode.PING, request_id=i)
                )
                if i % 500 == 0:
                    # Keep the in-process server within 500 replies of
                    # the sender: what is left unread is then bounded by
                    # the client's behaviour and not by thread timing.
                    deadline = time.monotonic() + 5
                    while server.requests_served < served + i:
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
            time.sleep(0.1)
            queued = [len(conn.outbuf) for conn in list(server._conns.values())]
            assert queued and not any(queued)
            unread = array.array("i", [0])
            fcntl.ioctl(client._conns[server.address].sock, termios.FIONREAD, unread)
            assert unread[0] < 64 * 1024  # 10,000 PING replies are ~290 KB
            assert client.connects == 1
        finally:
            client.close()


# ---------------------------------------------------------------------------
# A length prefix longer than a 64-bit varint can never become a frame
# ---------------------------------------------------------------------------

#: Eleven continuation bytes: past the ten a 64-bit varint may take.
OVERLONG_PREFIX = b"\xff" * 11


def _ping_frame(request_id: int) -> bytes:
    return frame(Request(op=OpCode.PING, request_id=request_id).encode())


class TestMalformedLengthPrefix:
    def test_server_drops_the_connection_and_counts_it(self, tcp_cluster):
        """The server cannot find a frame boundary past such a prefix, so
        it must not sit on the connection buffering whatever follows: it
        counts a decode error and closes, and a valid PING behind the
        prefix is never answered."""
        server = tcp_cluster.servers[0]
        before = REGISTRY.counter("tcp.server.decode_errors").value
        sock = socket.create_connection((server.address.host, server.address.port), timeout=1.0)
        try:
            sock.sendall(OVERLONG_PREFIX + _ping_frame(7))
            # EOF (or a reset), not a PING reply and not a 1 s silence.
            try:
                assert sock.recv(65536) == b""
            except ConnectionResetError:
                pass
        finally:
            sock.close()
        deadline = time.monotonic() + 2
        while REGISTRY.counter("tcp.server.decode_errors").value < before + 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert REGISTRY.counter("tcp.server.decode_errors").value == before + 1
        # The server goes on serving everyone else.
        client = MultiplexedTCPClient()
        try:
            reply = client.roundtrip(server.address, Request(op=OpCode.PING, request_id=8), 1.0)
            assert reply is not None and reply.status == Status.OK
        finally:
            client.close()

    def test_mux_client_shuts_a_garbled_socket_and_reconnects(self):
        """A reply stream that starts with an over-long prefix is lost:
        the client counts ``tcp.client.decode_errors`` and shuts the
        socket at once — not at the caller's timeout — and the request is
        sent again on a fresh connection, as for any connection found
        dead."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        address = Address("127.0.0.1", listener.getsockname()[1])
        accepted = []

        def serve():
            # First connection: answer with garbage.  Second: a real reply.
            for garbage in (True, False):
                conn, _ = listener.accept()
                accepted.append(conn)
                data = conn.recv(65536)
                request = Request.decode(data[1:])  # one-byte prefix
                if garbage:
                    conn.sendall(OVERLONG_PREFIX)
                else:
                    reply = Response(status=Status.OK, request_id=request.request_id,
                                     op=int(OpCode.PING))
                    conn.sendall(frame(reply.encode()))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = MultiplexedTCPClient()
        before = REGISTRY.counter("tcp.client.decode_errors").value
        try:
            start = time.monotonic()
            reply = client.roundtrip(address, Request(op=OpCode.PING, request_id=1), 5.0)
            assert reply is not None and reply.request_id == 1
            assert time.monotonic() - start < 2.0
            assert REGISTRY.counter("tcp.client.decode_errors").value == before + 1
            assert client.connects == 2
        finally:
            client.close()
            thread.join(5)
            for conn in accepted:
                conn.close()
            listener.close()
