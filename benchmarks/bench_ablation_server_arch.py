"""Ablation D1 (§IV.D): server hot-path architecture on real TCP.

Paper: "In early prototypes, we explored a multi-threading design, in
which each request had a separate thread, but the overheads of starting,
managing, and stopping threads was too high ... The current epoll-based
ZHT outperforms the multithread version 3X."

Three architectures, all on loopback sockets:

- ``thread-per-request``: one thread spawned per request (the paper's
  rejected prototype; :class:`ThreadPerRequestTCPServer` below is its
  only implementation — ``src/`` ships the event-driven server alone).
  Its worker runs a result's effects with the live trampoline
  (:func:`repro.net.transport.serve_effects`).
- ``event + inline``: the epoll loop answering no-peer-IO ops directly
  on the loop thread (the shipped server).
- ``event + inline + BATCH``: same server, multiplexed client shipping
  ``insert_many`` batches — the client-side half of the thin-path
  argument.
"""

import socket
import threading
import time

from _util import (
    emit_json,
    fmt,
    fmt_int,
    print_table,
    registry_capture,
    registry_percentiles,
    scales,
)

from repro.core import ZHTConfig
from repro.core.membership import Address
from repro.core.protocol import Request, deframe_at, encode_framed_response
from repro.net.cluster import _build_socket_cluster, build_tcp_cluster
from repro.net.tcp import MultiplexedTCPClient
from repro.net.transport import serve_effects
from repro.obs import REGISTRY

OPS = scales(small=(1500,), paper=(6000,))[0]
BATCH = 64
VALUE = b"v" * 132


class _ThreadedConnection:
    """One accepted socket: frame reassembly plus a write lock, so a
    deferred reply from another thread cannot interleave with a frame."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = bytearray()
        self.write_lock = threading.Lock()

    def feed(self, chunk):
        """Absorb *chunk*; return every complete frame now available."""
        self.buffer += chunk
        messages, offset = [], 0
        while True:
            message, offset = deframe_at(self.buffer, offset)
            if message is None:
                break
            messages.append(message)
        del self.buffer[:offset]
        return messages

    def send_response(self, response):
        data = encode_framed_response(response)
        with self.write_lock:
            try:
                self.sock.sendall(data)
            except OSError:
                pass


class ThreadPerRequestTCPServer:
    """Thread-per-request server (the rejected early ZHT prototype).

    Every framed request spawns a fresh worker thread, reproducing the
    start/manage/stop overhead the paper measured at ~3× slower than the
    event-driven architecture.  Same ``address`` / ``attach_core`` /
    ``start`` / ``stop`` surface as the servers in :mod:`repro.net`, so
    the stock cluster builder can run it.
    """

    def __init__(self, *, host="127.0.0.1", port=0):
        self.core = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self.address = Address(host, self._listener.getsockname()[1])
        self._peer_client = MultiplexedTCPClient()
        self._running = False
        self._accept_thread = None
        self.requests_served = 0

    def attach_core(self, core):
        self.core = core

    def start(self):
        if self._accept_thread is not None:
            return
        if self.core is None:
            raise RuntimeError("attach_core() before start()")
        self._running = True
        self._listener.settimeout(0.1)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def stop(self):
        self._running = False
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        self._listener.close()
        self._peer_client.close()
        if self.core is not None:
            self.core.close()

    def _accept_loop(self):
        while self._running:
            try:
                sock, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._connection_loop, args=(sock,), daemon=True
            ).start()

    def _connection_loop(self, sock):
        conn = _ThreadedConnection(sock)
        sock.settimeout(30)
        while self._running:
            try:
                chunk = sock.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            for message in conn.feed(chunk):
                # Thread-per-request: spawn, run, join — paying the full
                # thread lifecycle cost on the request's critical path.
                worker = threading.Thread(target=self._serve_one, args=(message, conn))
                worker.start()
                worker.join()
        sock.close()

    def _serve_one(self, message, conn):
        try:
            request = Request.decode(message)
        except Exception:
            REGISTRY.counter("tcp.server.decode_errors").inc()
            return
        self.requests_served += 1
        REGISTRY.counter("tcp.server.requests").inc()
        result = self.core.handle(request, conn)
        response = serve_effects(
            result, self._peer_client, self._answer, self.core.config.request_timeout
        )
        if response is not None:
            conn.send_response(response)

    def _answer(self, reply_context, response):
        if isinstance(reply_context, _ThreadedConnection):
            reply_context.send_response(response)


def _build_cluster(config, *, threaded):
    if not threaded:
        return build_tcp_cluster(1, config)
    return _build_socket_cluster(
        1, config, ThreadPerRequestTCPServer, MultiplexedTCPClient, seed=0
    )


def measure(*, threaded: bool, batch: bool = False) -> float:
    """Ops/s for a single-client insert storm against one server."""
    config = ZHTConfig(
        transport="tcp",
        num_partitions=64,
        request_timeout=2.0,
    )
    with _build_cluster(config, threaded=threaded) as cluster:
        z = cluster.client()
        z.insert("warmup", b"x")
        start = time.perf_counter()
        if batch:
            for base in range(0, OPS, BATCH):
                z.insert_many(
                    (f"key-{i:08d}", VALUE)
                    for i in range(base, min(base + BATCH, OPS))
                )
        else:
            for i in range(OPS):
                z.insert(f"key-{i:08d}", VALUE)
        elapsed = time.perf_counter() - start
    return OPS / elapsed


def generate_series():
    with registry_capture():
        threaded = measure(threaded=True)
        inline = measure(threaded=False)
        batched = measure(threaded=False, batch=True)
        latency = registry_percentiles()
    rows = [
        ("thread-per-request", fmt_int(threaded), "1.00"),
        ("event + inline", fmt_int(inline), fmt(inline / threaded, 2)),
        (
            "event + inline + BATCH",
            fmt_int(batched),
            fmt(batched / threaded, 2),
        ),
    ]
    return rows, inline / threaded, latency


def test_ablation_server_architecture(benchmark):
    rows, speedup, latency = generate_series()
    print_table(
        "Ablation D1: server architecture (real TCP, loopback)",
        ["architecture", "ops/s", "vs threaded"],
        rows,
        note=f"paper: epoll 3X over multithreaded; measured {speedup:.2f}X",
    )
    emit_json(
        "ablation_server_arch",
        ["architecture", "ops_per_s", "vs_threaded"],
        rows,
        latency=latency,
    )
    assert speedup > 1.3  # event-driven must clearly win
    benchmark(lambda: measure(threaded=False))
