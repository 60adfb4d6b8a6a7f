"""UDP transport for ZHT (§III.F).

"UDP (acknowledge message based, which means every time a message is
sent, the sender is waiting for an acknowledge message)": every request
datagram is answered by a response datagram, which doubles as the ack.
Retransmission lives in the client operation driver's retry loop.

Because UDP retransmits can duplicate *mutations* (an ``append`` applied
twice corrupts the value), the server keeps a small per-peer
deduplication cache of recently answered request ids and replays the
cached response for duplicates instead of re-executing.

The server's loop never waits on a peer: it hands a result with effects
(replica updates, forwards of parked requests) to one effect worker,
which runs them (:func:`~repro.net.transport.serve_effects`) and sends
the reply.  Otherwise two servers that replicate to each other would
each block on an ack the other's loop cannot send.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from ..core.errors import Status
from ..core.membership import Address
from ..core.protocol import MUTATING_OPS, OpCode, Request, Response
from ..core.server import HandleResult, ZHTServerCore
from ..obs import NULL_SPAN, REGISTRY
from .lru import LRUCache
from .transport import ClientTransport, serve_effects

#: Conservative safe datagram size; ZHT values are small (the paper's
#: micro-benchmarks use 132 B values).
MAX_DATAGRAM = 65000

#: The dedup entry of a mutation the effect worker still owes a reply:
#: a retransmit of it is dropped, not run again.
_IN_FLIGHT = Response(status=Status.OK)


class UDPClient(ClientTransport):
    """Datagram client: send, then block for the response/ack."""

    #: The batch planner chunks per-owner batches so each encoded BATCH
    #: request fits a single datagram.
    max_request_bytes = MAX_DATAGRAM

    def __init__(self) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._lock = threading.Lock()

    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        with REGISTRY.span("udp.roundtrip") if REGISTRY.enabled else NULL_SPAN:
            return self._roundtrip(address, request, timeout)

    @staticmethod
    def _matches(request: Request, response: Response) -> bool:
        """Is *response* the answer to *request*?

        Matching by request id alone is not enough: a late response to an
        *earlier, timed-out* operation that recycled the same id (or the
        historical id-0 wildcard) could be mistaken for the current ack —
        e.g. a stale LOOKUP response returned for a later REMOVE, making a
        failed mutation look acknowledged.  Servers echo the op code, so:

        * an op echo that disagrees with the request always rejects;
        * non-zero request ids must match exactly;
        * id-0 requests are unmatchable by id, so they accept any
          response only for idempotent reads — a mutation additionally
          requires the op echo to be present (and, per the first rule,
          to agree).
        """
        if response.op and response.op != int(request.op):
            return False
        if request.request_id:
            return response.request_id == request.request_id
        return request.op not in MUTATING_OPS or bool(response.op)

    def _roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        payload = request.encode()
        if len(payload) > MAX_DATAGRAM:
            return None
        with self._lock:
            try:
                self._sock.settimeout(timeout)
                self._sock.sendto(payload, (address.host, address.port))
                while True:
                    data, _peer = self._sock.recvfrom(MAX_DATAGRAM)
                    try:
                        response = Response.decode(data)
                    except Exception:
                        REGISTRY.counter("udp.client.decode_errors").inc()
                        continue
                    if self._matches(request, response):
                        return response
                    # A late response for an earlier (timed-out) request;
                    # keep waiting for ours.
                    REGISTRY.counter("udp.client.stale_responses").inc()
            except (TimeoutError, OSError):
                return None

    def send_oneway(self, address: Address, request: Request) -> None:
        # No lock: datagram sendto is atomic and this path never reads
        # from the socket, so it cannot steal another thread's response.
        # Taking _lock here would serialise fire-and-forget sends behind
        # a full roundtrip timeout.
        payload = request.encode()
        if len(payload) > MAX_DATAGRAM:
            return
        try:
            self._sock.sendto(payload, (address.host, address.port))
        except OSError:
            pass

    def close(self) -> None:
        self._sock.close()


class UDPServer:
    """Single-threaded datagram server for one ZHT instance (plus its
    effect worker)."""

    def __init__(
        self,
        core: ZHTServerCore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        dedup_cache_size: int = 1024,
    ) -> None:
        self.core: ZHTServerCore | None = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(0.1)
        self.address = Address(host, self._sock.getsockname()[1])
        self._peer_client = UDPClient()
        #: (peer sockaddr, request_id) -> cached Response for retransmits.
        self._dedup: LRUCache[tuple, Response] = LRUCache(dedup_cache_size)
        self._dedup_lock = threading.Lock()
        #: One worker, so the replica updates of the results handed to it
        #: leave in the order the loop applied them.
        self._worker = ThreadPoolExecutor(1, thread_name_prefix="zht-udp-effects")
        #: One entry per handed-over result until it is answered; the
        #: core's admission bound counts them (``extra_inflight``).
        self._pending_effects: list[None] = []
        self._running = False
        self._thread: threading.Thread | None = None
        self.requests_served = 0
        self.duplicates_suppressed = 0
        if core is not None:
            self.attach_core(core)

    def attach_core(self, core: ZHTServerCore) -> None:
        self.core = core
        core.extra_inflight = self._pending_effects.__len__

    def start(self) -> None:
        if self._thread is not None:
            return
        if self.core is None:
            raise RuntimeError("attach_core() before start()")
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name=f"zht-udp-{self.address.port}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._worker.shutdown(wait=False)
        self._sock.close()
        self._peer_client.close()
        if self.core is not None:
            self.core.close()

    def _loop(self) -> None:
        while self._running:
            try:
                data, peer = self._sock.recvfrom(MAX_DATAGRAM)
            except TimeoutError:
                continue
            except OSError:
                break
            self._serve_one(data, peer)

    def _serve_one(self, data: bytes, peer: tuple) -> None:  # lint: event-loop
        try:
            request = Request.decode(data)
        except Exception:
            REGISTRY.counter("udp.server.decode_errors").inc()
            return
        dedup_key = None
        # BATCH joins the dedup set: a retransmitted batch may carry
        # mutations (a duplicated sub-append applied twice corrupts it).
        if (
            request.op in MUTATING_OPS or request.op == OpCode.BATCH
        ) and request.request_id:
            dedup_key = (peer, request.request_id)
            with self._dedup_lock:
                cached = self._dedup.get(dedup_key)
            if cached is not None:
                self.duplicates_suppressed += 1
                REGISTRY.counter("udp.server.duplicates_suppressed").inc()
                if cached is not _IN_FLIGHT:
                    self._send(cached, peer)
                return
        self.requests_served += 1
        REGISTRY.counter("udp.server.requests").inc()
        result = self.core.handle(request, peer)
        if result.effects:
            if dedup_key is not None:
                with self._dedup_lock:
                    self._dedup.put(dedup_key, _IN_FLIGHT)
            self._pending_effects.append(None)
            self._worker.submit(self._finish, result, peer, dedup_key)
        elif result.response is not None:
            self._respond(result.response, peer, dedup_key)

    def _finish(self, result: HandleResult, peer: tuple, dedup_key: tuple | None) -> None:
        """The effect worker: *result*'s effects, then its reply."""
        try:
            response = serve_effects(
                result, self._peer_client, self._answer, self.core.config.request_timeout
            )
            if response is not None:
                self._respond(response, peer, dedup_key)
        finally:
            self._pending_effects.pop()

    def _respond(self, response: Response, peer: tuple, dedup_key: tuple | None) -> None:
        # Shed verdicts (overload / expired deadline) must not enter
        # the dedup cache: a client retrying the same request id after
        # backing off would get the cached shed replayed forever
        # instead of the mutation actually executing.
        if dedup_key is not None and response.status not in (
            Status.RETRY_LATER,
            Status.DEADLINE_EXCEEDED,
        ):
            with self._dedup_lock:
                self._dedup.put(dedup_key, response)
        self._send(response, peer)

    def _send(self, response: Response, peer: tuple) -> None:
        try:
            # zht-lint: ignore[LOOP001] a datagram send never waits on the peer: the kernel queues or drops it, the socket's 0.1 s timeout bounds a full send buffer, and the client retransmits a lost reply
            self._sock.sendto(response.encode(), peer)
        except OSError:
            pass

    def _answer(self, reply_context: object, response: Response) -> None:
        if isinstance(reply_context, tuple):
            self._send(response, reply_context)
