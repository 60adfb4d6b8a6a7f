"""TCP transport for ZHT (§III.D, §III.F).

:class:`EventDrivenTCPServer` is the paper's production design: a single
selector (epoll on Linux) event loop, non-blocking sockets, per-
connection frame reassembly.  "We eventually converged on a much more
streamlined architecture, an event-driven model server architecture
based on epoll."  Replication runs on the loop too: each replica
address has one non-blocking **peer link** registered with the same
epoll, a write's replica updates are written onto the links in apply
order, and its reply is held until the sync replicas have acked (§III.J).
The loop steps each result's :func:`~repro.core.loops.effect_loop`
itself; only forwards of requests parked behind a migration, which block
on the new owner, and checkpoint maintenance go to a small worker pool.
(The thread-per-request prototype the paper rejected lives beside its
only user, ``benchmarks/bench_ablation_server_arch.py``.)

One client.  :class:`MultiplexedTCPClient` carries any number of
in-flight requests on one socket per server, and has no thread of its
own — the caller waiting for a reply reads the socket, fills the slots
of any other callers whose replies arrive first, and hands the read role
on when its own lands.  That cached socket is the paper's **connection
cache** ("makes TCP works almost as fast as UDP"); with
``cache_connections=False`` every operation pays a fresh ``connect()``
instead (the "TCP without connection caching" line in Figures 7 and 9).
"""

from __future__ import annotations

import errno
import select
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Generator

from ..core.membership import Address
from ..core.errors import ProtocolError, Status
from ..core.protocol import (
    Request,
    Response,
    encode_framed_request,
    encode_framed_response,
    frame_prefix,
    parse_request,
    parse_response,
)
from ..core.loops import Cast, Group, effect_loop
from ..core.server import ZHTServerCore
from ..obs import NULL_SPAN, REGISTRY
from .transport import ClientTransport, drive


class _MuxSlot:
    """One in-flight multiplexed request.  A follower's ``lock`` is
    created held; whoever fills the slot, promotes its owner or fails the
    connection releases it once, so the follower parks on
    ``lock.acquire(timeout=...)``.  Every caller that holds the read role
    from the start registers the one lockless :data:`_LEADING` slot."""

    __slots__ = ("lock", "response", "leader")

    def __init__(self, lock: threading.Lock | None) -> None:
        self.lock = lock
        self.response: Response | None = None
        self.leader = lock is None  # the read role belongs to this caller


#: The slot of every caller that holds the read role from the start: it
#: reads its own reply, so the slot is never waited on nor filled.
_LEADING = _MuxSlot(None)


class _IdInFlight(Exception):
    """The request id is already in flight on this connection (a foreign
    core sharing the transport mints the same ids)."""


class _MuxConnection:
    """One multiplexed socket: many in-flight requests, matched by id.

    No thread belongs to the connection.  A writer sends frames under
    ``_write_lock``.  The *read role* (``_read_lock``) belongs to one
    waiting caller at a time — the leader: it reassembles response
    frames under its own deadline, fills every other caller's slot as
    frames arrive, and on leaving hands the role to a caller still
    waiting (or frees it).  The other callers — followers — park on their
    slot.  Connection death fails every outstanding slot.

    A caller that finds the role free takes it before it sends (the lone
    caller, the common case): nobody else can then read its reply, so it
    allocates no lock, and it touches ``_state_lock`` only if it times
    out or must hand the role on.  Each request id is claimed with one
    ``dict.setdefault`` (GIL-atomic), so two callers can never both own
    an id; ``_state_lock`` orders registration, hand-off and shutdown.
    """

    #: Bound on remembered abandoned request ids (timed-out requests
    #: whose late responses must be dropped silently).
    _DISCARD_LIMIT = 4096
    #: How long a frame that does not fit the kernel send buffer may
    #: wait for room (a server that has stopped reading).
    _SEND_TIMEOUT_S = 2.0

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)  # reads poll under a deadline; see _read
        self.sock = sock
        self.closed = False
        self._write_lock = threading.Lock()
        self._read_lock = threading.Lock()
        self._state_lock = threading.Lock()
        #: In-flight request id -> slot.  Claimed with ``setdefault`` and
        #: emptied with ``pop`` (each GIL-atomic); shutdown and hand-off
        #: read it under ``_state_lock``.
        self._pending: dict[int, _MuxSlot] = {}
        self._discard: set[int] = set()
        # Bytes of a frame still arriving: the read role's holder only.
        self._buffer = bytearray()
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._c_unmatched = REGISTRY.counter("tcp.client.mux_unmatched")

    # -- caller side -------------------------------------------------------

    def call(self, request_id: int, payload: "bytes | bytearray", deadline: float) -> Response | None:
        """Send *payload* and wait for the reply to *request_id* until
        *deadline*: the response, or ``None`` on a timeout or a dead
        connection (see ``closed``).  Raises :class:`_IdInFlight`."""
        if not self._read_lock.acquire(False):
            return self._follow(request_id, payload, deadline)
        pending = self._pending
        response = None
        if pending.setdefault(request_id, _LEADING) is not _LEADING:
            self._release_role()
            raise _IdInFlight(request_id)
        if not self.closed and self.send(payload):
            response = self._read(request_id, deadline)
            if pending.pop(request_id, None) is not None and response is None:
                with self._state_lock:
                    self._discard_late(request_id)
        else:
            pending.pop(request_id, None)
        self._release_role()
        return response

    def _follow(self, request_id: int, payload: "bytes | bytearray", deadline: float) -> Response | None:
        """Another caller reads this socket: park on a slot until it
        delivers the reply or hands over the read role."""
        lock = threading.Lock()
        lock.acquire()
        slot = _MuxSlot(lock)
        with self._state_lock:
            if self.closed:
                return None
            if self._pending.setdefault(request_id, slot) is not slot:
                raise _IdInFlight(request_id)
            self._discard.discard(request_id)
        if not self.send(payload):
            return None
        return self.wait(request_id, slot, deadline)

    def send(self, payload: "bytes | bytearray") -> bool:
        try:
            with self._write_lock:
                try:
                    sent = self.sock.send(payload)
                except BlockingIOError:
                    sent = 0
                if sent < len(payload):
                    self._send_rest(memoryview(payload)[sent:])
            return True
        except OSError:
            self.shutdown()
            return False

    def _send_rest(self, view: memoryview) -> None:  # holds-lock: _write_lock
        """The kernel buffer filled mid-frame: wait (bounded) for room,
        so the frame stays whole."""
        writable = select.poll()
        writable.register(self.sock, select.POLLOUT)
        deadline = time.monotonic() + self._SEND_TIMEOUT_S
        while view:
            if not writable.poll(max(deadline - time.monotonic(), 0) * 1000):
                raise TimeoutError("send buffer full")
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                pass

    def wait(self, request_id: int, slot: _MuxSlot, deadline: float) -> Response | None:
        """A follower: block until *slot* is filled, *deadline* passes or
        the connection dies (``None`` for the latter two).  A timeout
        abandons the slot, not the socket: the late response is dropped
        by id."""
        assert slot.lock is not None
        leading = self._read_lock.acquire(False)
        while True:
            if leading:
                response = self._read(request_id, deadline)
                if response is not None:
                    slot.response = response
                break
            if not slot.lock.acquire(timeout=max(deadline - time.monotonic(), 0)):
                break
            if not slot.leader:
                return slot.response  # filled, or the connection died
            leading = True
        with self._state_lock:
            if self._pending.pop(request_id, None) is not None and slot.response is None:
                self._discard_late(request_id)
            # A follower can time out just as the role is handed to it.
            if leading or slot.leader:
                self._hand_off()
        return slot.response

    def _discard_late(self, request_id: int) -> None:  # holds-lock: _state_lock
        if len(self._discard) >= self._DISCARD_LIMIT:
            self._discard.pop()
        self._discard.add(request_id)

    def expect_discard(self, request_id: int) -> None:
        """Pre-register a oneway request whose response should be eaten."""
        with self._state_lock:
            self._discard_late(request_id)

    def drain(self) -> None:
        """After a one-way send: consume the replies that have already
        arrived, without blocking (unless a waiting caller is reading
        anyway).  Unread, they back up into the server's write queue."""
        if self._read_lock.acquire(False):
            self._read(0, 0.0)
            self._release_role()

    # -- the read role -----------------------------------------------------

    def _release_role(self) -> None:
        """Free the read role, then make sure no follower that parked
        while we held it is left without a reader.  A follower registers
        before it tries the role, and we look after freeing it: either it
        took the role itself or we see its slot."""
        self._read_lock.release()
        if self._pending and self._read_lock.acquire(False):
            with self._state_lock:
                self._hand_off()

    def _hand_off(self) -> None:  # holds-lock: _state_lock
        """Give the read role to a caller still waiting, else free it.
        Under the state lock, so a caller registering now either is
        seen here or finds the role free."""
        for slot in self._pending.values():
            # Only the role's holder has a slot without a lock, and it
            # took its own out before handing the role on.
            assert slot.lock is not None
            slot.leader = True
            slot.lock.release()
            return
        self._read_lock.release()

    def _read(self, request_id: int, deadline: float) -> Response | None:
        """Holding the read role: deframe and deliver until the reply to
        *request_id* arrives (returned, not delivered), *deadline* passes
        (0: only what is already readable) or the connection dies."""
        while not self.closed:
            if deadline:
                # One poll + one recv per reply: the socket stays
                # non-blocking so no per-call timeout has to be set.
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._readable.poll(remaining * 1000):
                    return None
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                if deadline:
                    continue
                return None
            except OSError:
                chunk = b""
            if not chunk:
                self.shutdown()
                return None
            buffer: bytes | bytearray = chunk
            if self._buffer:
                buffer = self._buffer
                buffer += chunk
            size = len(buffer)
            offset = 0
            own = None
            try:
                while offset < size:
                    # The length prefix, inline for frames up to 16 KiB.
                    length = buffer[offset]
                    start = offset + 1
                    if length >= 0x80:
                        if start < size and buffer[start] < 0x80:
                            length = length & 0x7F | buffer[start] << 7
                            start += 1
                        else:
                            length, start = frame_prefix(buffer, offset)
                            if length < 0:
                                break
                    end = start + length
                    if end > size:
                        break
                    # Parsed in place; the buffer may shift afterwards
                    # because decode materialises every field.
                    response = Response(*parse_response(buffer, start, end))
                    offset = end
                    if response.request_id == request_id and request_id:
                        own = response
                    else:
                        self._deliver(response)
            except Exception:
                # A malformed prefix or a garbled frame: the stream is
                # desynced and this connection unusable; the next request
                # reconnects.
                REGISTRY.counter("tcp.client.decode_errors").inc()
                self.shutdown()
                return None
            if buffer is chunk:
                if offset < size:
                    self._buffer += memoryview(chunk)[offset:]
            elif offset:
                del self._buffer[:offset]
            if own is not None:
                return own
        return None

    def _deliver(self, response: Response) -> None:
        with self._state_lock:
            slot = self._pending.pop(response.request_id, None)
            if slot is None:
                if response.request_id in self._discard:
                    self._discard.discard(response.request_id)
                else:
                    self._c_unmatched.inc()
                return
        slot.response = response
        assert slot.lock is not None  # the reader's own slot is never delivered to
        slot.lock.release()

    def shutdown(self) -> None:
        with self._state_lock:
            if self.closed:
                return
            self.closed = True
            # A slot already handed the read role has had its wake-up;
            # its caller sees ``closed`` when it starts to read.
            parked = [s for s in self._pending.values() if not s.leader]
            self._pending.clear()
        try:
            # Wakes a leader parked in poll(); close() alone would not.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        for slot in parked:
            assert slot.lock is not None
            slot.lock.release()  # response stays None => timeout upstream


class MultiplexedTCPClient(ClientTransport):
    """TCP client with multiplexed connections (pipelined request path).

    One cached socket per server carries any number of concurrent
    in-flight requests, matched back to per-request slots by
    ``request_id`` — independent operations pipeline on the wire instead
    of serializing behind stop-and-wait round trips.  Whichever caller
    is waiting reads the socket (see :class:`_MuxConnection`), so a lone
    caller reads its own reply with no thread switch and a client costs
    no thread per server.  A timed-out request abandons its slot (its
    late response is discarded by id), so slow responses neither poison
    the stream nor force a reconnect.

    With ``cache_connections=False`` nothing is cached: every operation
    dials its own socket and closes it when done (the paper's "TCP
    without connection caching"; also what a one-off probe wants).
    """

    def __init__(self, *, connect_timeout: float = 2.0, cache_connections: bool = True) -> None:
        self._conns: dict[Address, _MuxConnection] = {}
        self._lock = threading.Lock()
        self.connect_timeout = connect_timeout
        self.cache_connections = cache_connections
        self.connects = 0
        self._c_connects = REGISTRY.counter("tcp.client.connects")
        self._c_oneway_retries = REGISTRY.counter("tcp.client.oneway_retries")
        self._c_oneway_drops = REGISTRY.counter("tcp.client.oneway_drops")

    def _dial(self, address: Address) -> socket.socket | None:
        try:
            sock = socket.create_connection(
                (address.host, address.port), timeout=self.connect_timeout
            )
        except OSError:
            return None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            return None
        return sock

    def _connect(self, address: Address) -> _MuxConnection | None:
        sock = self._dial(address)
        if sock is None:
            return None
        conn = _MuxConnection(sock)
        with self._lock:
            current = self._conns.get(address)
            if current is not None and not current.closed:
                # Lost a connect race; keep the established one.
                conn.shutdown()
                return current
            self._conns[address] = conn
        # Counted only when installed, so racing threads that all dialed
        # at once still read as one logical connection per server.
        self.connects += 1
        self._c_connects.inc()
        return conn

    def _get(self, address: Address) -> _MuxConnection | None:
        conn = self._conns.get(address)
        if conn is not None and not conn.closed:
            return conn
        return self._connect(address)

    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        with REGISTRY.span("tcp.roundtrip") if REGISTRY.enabled else NULL_SPAN:
            rid = request.request_id
            if not rid or not self.cache_connections:
                # Unmatchable by id, or nothing cached: use an isolated
                # stop-and-wait socket.
                return self._oneshot_roundtrip(address, request, timeout)
            payload = encode_framed_request(request)
            deadline = time.monotonic() + timeout
            # One retry on a connection found dead — by the send, or by the
            # read that follows it: with no thread watching an idle socket, a
            # peer's close is first seen by the next request to use it.
            for _attempt in (1, 2):
                conn = self._get(address)
                if conn is None:
                    return None
                try:
                    response = conn.call(rid, payload, deadline)
                except _IdInFlight:
                    # Same id already in flight on this socket (foreign core
                    # sharing the transport): isolate rather than mis-match.
                    return self._oneshot_roundtrip(address, request, timeout)
                if response is not None or not conn.closed:
                    return response
            return None

    def _oneshot_roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        """Stop-and-wait on a socket of its own: the reply to *request*'s
        id (0 is unmatchable by id: the first frame answers it), or
        ``None`` on timeout, EOF, socket error or an undecodable frame."""
        sock = self._dial(address)
        if sock is None:
            return None
        try:
            self.connects += 1
            self._c_connects.inc()
            sock.sendall(encode_framed_request(request))
            deadline = time.monotonic() + timeout
            buffer = bytearray()
            offset = 0
            while True:
                sock.settimeout(max(deadline - time.monotonic(), 1e-6))
                chunk = sock.recv(65536)
                if not chunk:
                    return None
                buffer += chunk
                while True:
                    length, start = frame_prefix(buffer, offset)
                    end = start + length
                    if length < 0 or end > len(buffer):
                        break
                    offset = end
                    response = Response(*parse_response(buffer, start, end))
                    if not request.request_id or response.request_id == request.request_id:
                        return response
        except OSError:
            return None
        except Exception:
            REGISTRY.counter("tcp.client.decode_errors").inc()
            return None
        finally:
            sock.close()

    def send_oneway(self, address: Address, request: Request) -> None:
        if not self.cache_connections:
            # A one-shot round trip that waits for no reply.
            self._oneshot_roundtrip(address, request, 0.0)
            return
        payload = encode_framed_request(request)
        for attempt in range(2):
            conn = self._get(address)
            if conn is not None:
                if request.request_id:
                    # The server answers oneway messages too; eat the
                    # response instead of counting it unmatched.
                    conn.expect_discard(request.request_id)
                if conn.send(payload):
                    conn.drain()
                    return
                self._c_oneway_retries.inc()
        self._c_oneway_drops.inc()

    def evict(self, address: Address) -> None:
        with self._lock:
            conn = self._conns.pop(address, None)
        if conn is not None:
            conn.shutdown()

    def close(self) -> None:
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.shutdown()


class PeerTCPClient(MultiplexedTCPClient):
    """The TCP server's client (forwards of parked requests), named apart
    so span tables can time server-to-server round trips on their own:
    ``benchmarks/ledger/spans.py`` imports it by its old name."""


TCPClient = PeerTCPClient


class _Connection:
    """Per-connection state inside the server.

    A read is deframed straight out of the received chunk; only the bytes
    of a frame still arriving are kept, in ``buffer``, which then
    accumulates in place (O(total) for a frame split over many reads).
    Each complete frame goes to ``serve``: the server's request handler
    for a client connection, its ack handler for a peer link.
    Writes go out with one ``send`` when nothing is queued; whatever the
    kernel does not take is queued and flushed on EPOLLOUT instead of
    calling ``sendall`` (which on the loop's non-blocking sockets would
    raise — and drop the reply — the moment the kernel send buffer filled).
    """

    __slots__ = (
        "sock", "fd", "serve", "buffer", "write_lock", "closed", "outbuf", "want_write",
    )

    def __init__(self, sock: socket.socket, serve) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.serve = serve
        self.buffer = bytearray()
        self.write_lock = threading.Lock()
        self.closed = False
        self.outbuf = bytearray()
        self.want_write = False

    def queue_reply(self, data: "bytes | bytearray") -> bool:
        """Send *data*, buffering whatever the socket won't take now.

        Safe from any thread (loop or effect pool).  Returns True when
        residue remains buffered and the event loop must be told to watch
        for writability (the caller wakes it; exactly one waker per
        transition since ``want_write`` latches)."""
        with self.write_lock:
            if self.closed:
                return False
            if self.outbuf:
                self.outbuf += data
            else:
                try:
                    sent = self.sock.send(data)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    self.closed = True
                    return False
                if sent == len(data):
                    return False
                self.outbuf += memoryview(data)[sent:]
            if not self.want_write:
                self.want_write = True
                return True
            return False

    def flush(self) -> bool:
        """Drain the out-buffer (called on EPOLLOUT).  Returns True once
        nothing is left to write (caller drops the write interest)."""
        with self.write_lock:
            if self.closed:
                return True
            try:
                while self.outbuf:
                    sent = self.sock.send(self.outbuf)
                    del self.outbuf[:sent]
            except BlockingIOError:
                return False
            except OSError:
                self.closed = True
                return True
            self.want_write = False
            return True

    def has_backlog(self) -> bool:
        with self.write_lock:
            return bool(self.outbuf) or bool(self.buffer)


class _Held:
    """An effect loop (and its reply) held until its call group's acks are in."""

    __slots__ = ("conn", "effects", "acks", "remaining", "sent", "deadline")

    def __init__(
        self, conn: _Connection, effects: Generator, calls: int, sent: float, timeout: float
    ) -> None:
        self.conn = conn
        self.effects = effects
        self.acks: list[Response | None] = []  # _ACK, or None: failed or lost
        self.remaining = calls  # acks still outstanding
        self.sent = sent
        self.deadline = sent + timeout


class _PeerLink(_Connection):
    """The server's own connection to one peer address.

    The write side and the read pass are a client connection's; on top,
    ``waiters`` lists every frame sent and not yet answered, oldest first,
    as ``(request id, held reply or None)``.  The peer's loop answers a
    stream in order, so each ack answers the head.  The connect is
    non-blocking: frames queue in ``outbuf`` until EPOLLOUT and
    ``SO_ERROR`` say it is done.
    """

    __slots__ = ("waiters", "connecting")

    def __init__(self, sock: socket.socket, serve) -> None:
        super().__init__(sock, serve)
        self.waiters: deque[tuple[int, _Held | None]] = deque()
        self.connecting = True
        self.want_write = True  # EPOLLOUT is registered with the link

    def queue_reply(self, data: "bytes | bytearray") -> bool:
        if self.connecting:
            with self.write_lock:
                self.outbuf += data
            return False
        return super().queue_reply(data)

    def flush(self) -> bool:
        if self.connecting:
            if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self.closed = True
                return True
            self.connecting = False
        return super().flush()


#: Server counters (``server.tcp_stats.<field>``; process totals are
#: ``tcp.server.<field>``).
TCP_SERVER_COUNTERS = (
    "requests",
    #: Frames that failed to decode, and malformed length prefixes (each
    #: of which also drops its connection).
    "decode_errors",
)

_EPOLLIN, _EPOLLOUT = select.EPOLLIN, select.EPOLLOUT
_OK = Status.OK
#: An OK ack in a held group's reply (the effect loop reads only its status).
_ACK = Response(status=_OK)
#: An event on a connection beyond plain readability (EPOLLOUT, EPOLLERR,
#: EPOLLHUP) tries the write side; beyond plain writability, the read side
#: (a read then sees the error or the EOF).
_NOT_IN, _NOT_OUT = ~select.EPOLLIN, ~select.EPOLLOUT


def tcp_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A bound, listening TCP socket (port 0: the kernel picks one)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(512)
    except OSError:
        sock.close()
        raise
    return sock


class EventDrivenTCPServer:
    """Single-threaded epoll event loop serving one instance.

    Requests are decoded (zero-copy, straight out of the receive
    buffer), applied, and their response queued on the loop thread — no
    executor handoff.  A result with effects steps its
    :func:`~repro.core.loops.effect_loop` on the loop too: replica
    updates and broadcast fan-out leave through one :class:`_PeerLink`
    per peer address, so a write's updates are written in apply order,
    and a call group's loop (with its reply) is held, counted in the
    admission backlog, until every sync replica has acked.  A lost ack,
    or none within the peer timeout (the loop's poll timeout enforces
    it, and closes the link), is replied ``None``.  Only forwards of
    requests parked behind a migration, which block on the new owner,
    continue the effect loop on the worker pool.

    The loop polls ``epoll`` directly and finds a ready connection by its
    file descriptor; it sleeps until there is work (``stop`` wakes it
    through the self-pipe), so an idle server runs no bytecode.

    Listener: by default the server binds its socket itself; a shard
    worker of a sharded node passes the private listener its supervisor
    bound (*listener*), so a respawned worker serves the same port.
    """

    #: Poll timeout while draining: how often "drained" is re-checked.
    _DRAIN_POLL_S = 0.1

    def __init__(
        self,
        core: ZHTServerCore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        effect_workers: int = 4,
        listener: socket.socket | None = None,
    ) -> None:
        self.core: ZHTServerCore | None = None
        self._listener = listener if listener is not None else tcp_listener(host, port)
        self._listener.setblocking(False)
        addr = self._listener.getsockname()
        self.address = Address(addr[0], addr[1])
        self._epoll = select.epoll()
        self._epoll.register(self._listener.fileno(), _EPOLLIN)
        #: Every open connection, peer links included, by file descriptor:
        #: the loop thread's own.
        self._conns: dict[int, _Connection] = {}
        #: The peer link of each replica address (loop thread only).
        self._links: dict[Address, _PeerLink] = {}
        #: Effect loops waiting for sync acks, oldest first (loop thread
        #: only): one peer timeout for all, so the head has the next deadline.
        self._held: deque[_Held] = deque()
        # Self-pipe: effect-pool threads wake the loop when a reply they
        # queued needs EPOLLOUT registration, and ``stop`` wakes it to exit.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._epoll.register(self._wake_r.fileno(), _EPOLLIN)
        self._peer_client = PeerTCPClient()
        self._pool = ThreadPoolExecutor(
            max_workers=effect_workers, thread_name_prefix="zht-effects"
        )
        self._thread: threading.Thread | None = None
        self._running = False
        self._draining = False
        self._drain_deadline = 0.0
        self.stats = REGISTRY.counter_set("tcp.server", TCP_SERVER_COUNTERS)
        #: The counters the event loop bumps, on its one thread.
        self._loop_counts = self.stats.owned_cells()
        # Replies held for sync acks and results handed to the effect
        # pool, one entry each until answered (``append`` / ``pop`` /
        # ``len`` are GIL-atomic).  The event loop dispatches
        # synchronously, so the core's own in-flight tally sees at most
        # one request at a time here; this backlog is where overload
        # actually accumulates, so it feeds the core's admission bound via
        # ``extra_inflight`` (and ``stop(drain=True)`` waits for it).
        self._pending_effects: list[None] = []
        self._pending_lock = threading.Lock()
        self._pending_writable: list[_Connection] = []
        if core is not None:
            self.attach_core(core)

    @property
    def requests_served(self) -> int:
        return self.stats.requests

    def attach_core(self, core: ZHTServerCore) -> None:
        """Bind the server logic to this (pre-bound) socket.

        Split from construction so cluster builders can bind every
        listener first (to learn ephemeral ports), build the membership
        table from the real addresses, and only then create the cores.
        """
        self.core = core
        core.extra_inflight = self._pending_effects.__len__
        # Checkpoint/GC passes tripped by an inline apply must not run on
        # the loop thread (they serialize + fsync the whole table); hop
        # them to the worker pool.
        core.set_maintenance_executor(self._pool.submit)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        if self.core is None:
            raise RuntimeError("attach_core() before start()")
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name=f"zht-tcp-{self.address.port}", daemon=True
        )
        self._thread.start()

    def stop(self, *, drain: bool = False, drain_timeout: float = 5.0) -> None:
        """Stop the server.  With ``drain=True`` the loop first stops
        accepting, then keeps serving until every already-received frame
        is answered and every queued reply byte is flushed (bounded by
        *drain_timeout*) — a graceful shutdown."""
        if drain and self._thread is not None and self._running:
            self._drain_deadline = time.monotonic() + drain_timeout
            self._draining = True
            self._wake()
            self._thread.join(timeout=drain_timeout + 5)
        self._running = False
        if self._thread is not None:
            self._wake()
            self._thread.join(timeout=5)
            self._thread = None
        for conn in list(self._conns.values()):
            conn.sock.close()
        self._conns.clear()
        self._links.clear()
        self._listener.close()
        self._wake_r.close()
        self._epoll.close()
        try:
            self._wake_w.close()
        except OSError:
            pass
        self._pool.shutdown(wait=False)
        self._peer_client.close()
        if self.core is not None:
            self.core.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except OSError:
            pass

    # -- event loop -----------------------------------------------------------

    def _loop(self) -> None:  # lint: event-loop
        draining = False
        quiet_since = 0.0
        poll = self._epoll.poll
        conns = self._conns
        held = self._held
        listen_fd, wake_fd = self._listener.fileno(), self._wake_r.fileno()
        idle = timeout = -1.0
        while self._running:
            events = poll(timeout)
            for fd, mask in events:
                conn = conns.get(fd)
                if conn is None:
                    if fd == listen_fd:
                        self._accept()
                    elif fd == wake_fd:
                        self._drain_wake()
                    continue
                if mask & _NOT_IN:
                    self._writable(conn)
                if mask & _NOT_OUT:
                    self._readable(conn)
            # While a reply waits for acks, the poll wakes for its deadline.
            timeout = self._expire(idle) if held else idle
            if self._draining:
                if not draining:
                    draining = True
                    idle = timeout = self._DRAIN_POLL_S
                    self._epoll.unregister(listen_fd)
                # "Drained" must hold across one idle poll cycle before we
                # exit: a client's pipelined burst can still be in flight on
                # the wire the instant our buffers look empty, and exiting
                # then would reset the connection mid-burst.
                now = time.monotonic()
                if events or not self._drained():
                    quiet_since = now
                elif now - quiet_since >= 0.05:
                    break
                if now > self._drain_deadline:
                    break
        self._running = False

    def _drained(self) -> bool:
        if self._pending_effects:
            return False
        return not any(conn.has_backlog() for conn in list(self._conns.values()))

    def _drain_wake(self) -> None:
        try:
            # zht-lint: ignore[LOOP001] wake pipe is setblocking(False); recv returns EWOULDBLOCK, never parks
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        with self._pending_lock:
            pending, self._pending_writable = self._pending_writable, []
        for conn in pending:
            if self._conns.get(conn.fd) is conn:
                self._epoll.modify(conn.fd, _EPOLLIN | _EPOLLOUT)

    def _accept(self) -> None:
        try:
            # zht-lint: ignore[LOOP001] listener is non-blocking and only accepted after an EPOLLIN event
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn = _Connection(sock, self._serve)
        self._conns[conn.fd] = conn
        self._epoll.register(conn.fd, _EPOLLIN)

    def _readable(self, conn: _Connection) -> None:
        """Read once, then deframe and serve every complete request in
        one pass — straight out of the chunk unless a frame was split."""
        try:
            # zht-lint: ignore[LOOP001] conn sockets are set non-blocking in _accept; recv after an EPOLLIN event never parks
            chunk = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if not chunk:
            self._drop(conn)
            return
        buffer: bytes | bytearray = chunk
        if conn.buffer:
            buffer = conn.buffer
            buffer += chunk
        size = len(buffer)
        offset = 0
        serve = conn.serve
        while offset < size:
            # The length prefix, inline for frames up to 16 KiB.
            length = buffer[offset]
            start = offset + 1
            if length >= 0x80:
                if start < size and buffer[start] < 0x80:
                    length = length & 0x7F | buffer[start] << 7
                    start += 1
                else:
                    try:
                        length, start = frame_prefix(buffer, offset)
                    except ProtocolError:
                        # No later byte makes this a frame: the stream is lost.
                        self._loop_counts["decode_errors"] += 1
                        self._drop(conn)
                        return
                    if length < 0:
                        break
            end = start + length
            if end > size:
                break
            # Parsed in place: every field is copied out, so the buffer
            # may shift once the pass is over.
            serve(conn, buffer, start, end)
            offset = end
        if buffer is chunk:
            if offset < size:
                conn.buffer += memoryview(chunk)[offset:]
        elif offset:
            del conn.buffer[:offset]

    def _drop(self, conn: _Connection) -> None:
        with conn.write_lock:
            conn.closed = True
        if self._conns.get(conn.fd) is conn:
            del self._conns[conn.fd]
            self._epoll.unregister(conn.fd)
        conn.sock.close()
        if isinstance(conn, _PeerLink):
            # The updates still in flight on the link are lost: the
            # replies waiting for them fail.
            waiters = conn.waiters
            while waiters:
                held = waiters.popleft()[1]
                if held is not None:
                    self._settle(held, False)

    # ``_readable`` reaches the two frame handlers through ``conn.serve``.
    def _serve(  # lint: event-loop
        self, conn: _Connection, buffer: "bytes | bytearray", start: int, end: int
    ) -> None:
        try:
            request = Request(*parse_request(buffer, start, end))
        except ProtocolError:
            self._loop_counts["decode_errors"] += 1
            return
        self._loop_counts["requests"] += 1
        result = self.core.handle(request, conn)
        if result.effects:
            if result.repl_sequencer is not None:
                # One loop writing one FIFO stream per peer IS the apply
                # order, so nothing waits on the ticket.
                result.repl_sequencer.retire(result.repl_ticket)
            self._step(conn, effect_loop(result, self.core.config.request_timeout), None)
        elif result.response is not None:
            # This thread IS the event loop, so the reply is encoded and
            # queued right here — no executor submit, no wakeup latency.
            self._reply(conn, result.response)

    # -- effects and peer links ---------------------------------------------

    def _step(self, conn: _Connection, effects: Generator, reply: object) -> None:
        """Step an effect loop, sending it *reply* first: casts and a call
        group go onto the peer links, and the loop is held until the
        group's acks are in (:meth:`_settle`).  Forwards, which block on
        the new owner, and answers to parked requests run on the pool."""
        try:
            command = effects.send(reply)
            while command.__class__ is Cast:
                self._send_update(command.address, command.request, None)
                command = effects.send(None)
            if command.__class__ is Group:
                held = _Held(conn, effects, len(command.sends), time.monotonic(), command.timeout)
                self._pending_effects.append(None)
                self._held.append(held)
                for address, update in command.sends:
                    self._send_update(address, update, held)
            else:
                self._pending_effects.append(None)
                self._pool.submit(self._finish, conn, effects, command)
        except StopIteration as stop:
            if stop.value is not None:
                self._reply(conn, stop.value)

    def _finish(self, conn: _Connection, effects: Generator, command: object) -> None:
        """The worker pool's part of an effect loop, from *command* on."""
        try:
            response = drive(effects, self._peer_client, answer=self._answer, command=command)
            if response is not None:
                self._reply(conn, response)
        finally:
            self._pending_effects.pop()

    def _answer(self, reply_context: object, response: Response) -> None:
        if isinstance(reply_context, _Connection):
            self._reply(reply_context, response)

    def _send_update(self, address: Address, update: Request, held: _Held | None) -> None:
        link = self._links.get(address)
        if link is None or link.closed:
            link = self._connect(address)
        link.waiters.append((update.request_id, held))
        if link.queue_reply(encode_framed_request(update)):
            self._epoll.modify(link.fd, _EPOLLIN | _EPOLLOUT)
        if link.closed:
            self._drop(link)

    def _connect(self, address: Address) -> _PeerLink:
        """A new link to *address*, its connect under way (or already
        failed: then it is closed and was never registered)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        link = self._links[address] = _PeerLink(sock, self._ack)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            error = sock.connect_ex((address.host, address.port))
        except OSError as exc:
            error = exc.errno or errno.EIO
        if error and error != errno.EINPROGRESS:
            link.closed = True
        else:
            self._conns[link.fd] = link
            self._epoll.register(link.fd, _EPOLLIN | _EPOLLOUT)
        return link

    def _ack(  # lint: event-loop
        self, link: _PeerLink, buffer: "bytes | bytearray", start: int, end: int
    ) -> None:
        """A frame from a peer: the answer to the oldest update in flight
        on *link*."""
        waiters = link.waiters
        if not waiters:
            # Nothing was asked (or the link has just failed): this
            # stream is not the one the link sent.
            self._drop(link)
            return
        request_id, held = waiters.popleft()
        try:
            status, _value, acked = parse_response(buffer, start, end)[:3]
        except ProtocolError:
            acked = None
        if acked != request_id:
            # A garbled frame or an answer out of order: no later ack on
            # this stream can be matched either.
            if held is not None:
                self._settle(held, False)
            self._drop(link)
        elif held is not None:
            self._settle(held, status is _OK)

    def _settle(self, held: _Held, ok: bool) -> None:
        """One of *held*'s acks is in (or lost); the last one sends the
        effect loop the group's acks."""
        held.acks.append(_ACK if ok else None)
        held.remaining -= 1
        if not held.remaining:
            if self._held[0] is held:
                self._held.popleft()  # else ``_expire`` drops it in turn
            self._pending_effects.pop()
            if REGISTRY.enabled:
                REGISTRY.time("server.replication_wait", time.monotonic() - held.sent)
            self._step(held.conn, held.effects, held.acks)

    def _expire(self, idle: float) -> float:
        """Fail the held replies whose acks are overdue, closing the links
        they wait on; returns the poll timeout to the next deadline (or
        *idle* when nothing is held)."""
        held = self._held
        now = time.monotonic()
        while held:
            head = held[0]
            if not head.remaining:
                held.popleft()
                continue
            wait = head.deadline - now
            if wait > 0:
                return wait if idle < 0 or wait < idle else idle
            for link in list(self._links.values()):
                if any(h is head for _id, h in link.waiters):
                    self._drop(link)  # settles, and so releases, *head*
            if head.remaining:  # on no link: nothing is left to answer it
                head.remaining = 1
                self._settle(head, False)
        return idle

    def _reply(self, conn: _Connection, response: Response) -> None:
        if conn.queue_reply(encode_framed_response(response)):
            with self._pending_lock:
                self._pending_writable.append(conn)
            self._wake()

    def _writable(self, conn: _Connection) -> None:
        if conn.flush():
            if conn.closed:
                self._drop(conn)
            elif self._conns.get(conn.fd) is conn:
                self._epoll.modify(conn.fd, _EPOLLIN)
