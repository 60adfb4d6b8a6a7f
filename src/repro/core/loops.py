"""The client's and the server's loops, written once as sans-IO generators.

A loop never touches a socket, a thread or a clock of its own: it
yields a command and is sent the reply.  A **call** is any object with
``address``, ``request`` and ``timeout`` — the
:class:`~repro.core.client.Attempt` of an op, the
:class:`~repro.core.manager.PeerCall` of a manager script or of a
forward — and its reply is the :class:`~repro.core.protocol.Response`,
or ``None`` on timeout; a :class:`Cast` is a one-way send and a
:class:`Sleep` a backoff wait, both replied ``None``.  The live runtime
runs a loop with :func:`repro.net.transport.drive` (blocking
``roundtrip`` / ``send_oneway`` / ``time.sleep``), the DES with
:meth:`repro.sim.cluster.SimulatedCluster.drive`, so an op, a manager
script and a scenario client behave the same on both.

:func:`effect_loop` is the server's (DESIGN.md §10): local, UDP, TCP and
the DES step it with two more commands, a :class:`Group` of calls and
an :class:`Answer` to a parked request's requester.
"""

from __future__ import annotations

import itertools
import threading
from collections import namedtuple
from typing import Generator

from ..obs import NULL_SPAN, REGISTRY
from .client import BatchEntry, Cast, OpDriver, ZHTClientCore
from .config import ZHTConfig
from .errors import Status
from .manager import PeerCall, Script
from .protocol import OpCode, Response
from .server import HandleResult

__all__ = ["SCRIPT_TIMEOUT_FACTOR", "Answer", "Cast", "Group", "OpClient", "Sleep",
           "effect_loop", "script_loop"]

#: A manager script's call waits this many request timeouts: one call
#: may carry a whole partition's store image.
SCRIPT_TIMEOUT_FACTOR = 4


#: Wait *seconds* (a backoff delay); the reply is ``None``.
Sleep = namedtuple("Sleep", "seconds")

#: Send each ``(address, request)`` of *sends* as a call waiting up to
#: *timeout*; the reply is the list of their replies (``None`` for a
#: lost one), in any order.
Group = namedtuple("Group", "sends timeout")

#: Answer a parked request's requester — its reply *context* — with
#: *response*; the reply is ``None``.
Answer = namedtuple("Answer", "context response")

_OK = Status.OK

#: Default client ids (``client-0``, ``client-1``, ...), process-wide.
_client_ids = itertools.count()


class OpClient:
    """One client's op loop and what it keeps across ops: the
    :class:`~repro.core.client.ZHTClientCore`, the hot-key value cache,
    and the history *recorder* (every op's invocation/response interval,
    for :mod:`repro.verify`) with the id its events carry."""

    #: Time each op as the ``client.op`` span.  Off for a DES client: its
    #: ops interleave on one thread, in simulated time.
    timed = False

    def __init__(
        self, core: ZHTClientCore, *, recorder=None, client_id: str | None = None
    ) -> None:
        self.core = core
        self.recorder = recorder
        self.client_id = (
            client_id if client_id is not None else f"client-{next(_client_ids)}"
        )
        # Hot-key value cache (bounded LRU; see DESIGN.md §13).  Serves
        # repeat lookups of hot keys locally for up to hot_key_cache_ttl_s
        # after a fetch; every mutation of a key through this client
        # invalidates its entry on ack.  Cache hits are recorded as
        # bounded-stale reads (replica_index >= 2) — a served value can be
        # up to TTL + async-replication-lag old, so verify runs must use a
        # staleness bound of at least that.  LRUCache is not internally
        # synchronized; _cache_lock guards every access.
        self._hot_cache = None
        self._cache_lock = threading.Lock()
        if core.config.hot_key_cache_size > 0:
            from ..net.lru import LRUCache

            self._hot_cache = LRUCache(core.config.hot_key_cache_size)

    @property
    def stats(self):
        return self.core.stats

    # -- the op loop ------------------------------------------------------

    def op(
        self, op: OpCode, key: bytes, value: bytes = b"", replica_index: int | None = None
    ) -> Generator:
        """One point op as a generator (see :meth:`run`); a lookup may
        be answered by the hot-key cache.  *replica_index* reads from
        that chain position, past the cache."""
        if self._hot_cache is not None and replica_index is None and op is OpCode.LOOKUP:
            return self._cached(key)
        driver = self.core.driver(op, key, value)
        if replica_index is not None:
            driver.entries[0].replica_index = replica_index
        return self.run(driver)

    def run(self, driver: OpDriver) -> Generator:
        """The op loop: every attempt of *driver* (after its backoff
        :class:`Sleep`), then the queued manager reports as :class:`Cast`
        s; returns :meth:`OpDriver.result` (or raises its exception).  A
        mutation drops its keys from the hot-key cache; with a recorder,
        every entry lands in the history."""
        core = self.core
        recorder = self.recorder
        t_call = recorder.now() if recorder is not None else 0.0
        try:
            # The root span of one logical operation: every retry,
            # redirect, backoff and failover attempt — submission to
            # settled outcome, what the paper's latency figures measure.
            with REGISTRY.span("client.op") if self.timed and REGISTRY.enabled else NULL_SPAN:
                while True:
                    attempt = driver.next_attempt()
                    if attempt is None:
                        break
                    if attempt.delay:
                        yield Sleep(attempt.delay)
                    sent_at = core.clock()
                    response = yield attempt
                    if response is None:
                        driver.on_timeout()
                    else:
                        # The measured RTT, backoff excluded, feeds the
                        # per-node history behind the phi failure detector.
                        driver.on_response(response, core.clock() - sent_at)
            # Pending failure reports go to the managers (best effort).
            if core.pending_notifications:
                yield from core.take_notifications()
            return driver.result()
        finally:
            if recorder is not None:
                t_return = recorder.now()
                for entry in driver.entries:
                    self._record(driver.op, entry, t_call, t_return)
            # Mutations (acked *or* ambiguous: ZHT mutations are
            # at-least-once) drop their keys' cached values.
            if self._hot_cache is not None and driver.op is not OpCode.LOOKUP:
                with self._cache_lock:
                    for entry in driver.entries:
                        if self._hot_cache.pop(entry.key) is not None:
                            core.stats.inc("hot_cache_invalidations")

    def _record(
        self, op: OpCode, entry: BatchEntry, t_call: float, t_return: float
    ) -> None:
        """Record *entry*'s invocation/response interval for the checker,
        at the chain position that served it."""
        from ..verify.history import STATUS_FAIL, STATUS_NOTFOUND, STATUS_OK

        status, result = STATUS_FAIL, b""
        if entry.status == Status.OK:
            status, result = STATUS_OK, entry.result if op == OpCode.LOOKUP else b""
        elif entry.status == Status.KEY_NOT_FOUND and not (
            # A retried REMOVE that observes NOT_FOUND may have applied on
            # an earlier attempt whose ack was lost (ZHT mutations are
            # at-least-once), so its outcome is indefinite for the checker.
            op == OpCode.REMOVE and entry.attempts > 1
        ):
            status = STATUS_NOTFOUND
        self.recorder.record(
            self.client_id, op.name.lower(), entry.key, entry.value, t_call,
            t_return, status, result=result, replica_index=entry.replica_index,
        )

    def _cached(self, key: bytes) -> Generator:
        """A lookup with the hot-key cache on.  A hit is a fresh cached
        value, recorded as a read at chain position >= 2 so it always
        lands in the checker's bounded-staleness model: a cached value is
        stale by construction, whichever position served the fetch."""
        core = self.core
        cache = self._hot_cache
        fetched_at = core.clock()
        with self._cache_lock:
            hit = cache.get(key)
            if hit is not None and fetched_at - hit[1] > core.config.hot_key_cache_ttl_s:
                cache.pop(key)  # expired
                hit = None
        if hit is not None:
            core.stats.inc("hot_cache_hits")
            value, _fetched_at, source_index = hit
            if self.recorder is not None:
                now = self.recorder.now()
                entry = BatchEntry(
                    key, status=Status.OK, result=value, replica_index=max(2, source_index)
                )
                self._record(OpCode.LOOKUP, entry, now, self.recorder.now())
            return Response(status=Status.OK, value=value, op=int(OpCode.LOOKUP))
        core.stats.inc("hot_cache_misses")
        driver = core.driver(OpCode.LOOKUP, key)
        response = yield from self.run(driver)
        # Population is heat-gated, so cold keys never displace hot entries.
        if core.is_hot(key):
            with self._cache_lock:
                cache.put(key, (response.value, fetched_at, driver.entries[0].replica_index))
        return response


def script_loop(script: Script, config: ZHTConfig) -> Generator:
    """The manager-script loop: each :class:`~repro.core.manager.PeerCall`
    goes out as a call waiting ``SCRIPT_TIMEOUT_FACTOR`` request timeouts;
    a timeout feeds ``None`` back (scripts handle that as failure).
    Returns the script's return value."""
    timeout = config.request_timeout * SCRIPT_TIMEOUT_FACTOR
    reply: Response | None = None
    while True:
        try:
            call = script.send(reply)
        except StopIteration as stop:
            return stop.value
        call.timeout = timeout
        reply = yield call


def effect_loop(result: HandleResult, timeout: float) -> Generator:
    """The server-effect loop: runs *result*'s effects, calls waiting up
    to *timeout*, and returns its response.

    1. Each async replica update is a :class:`Cast`.
    2. The sync ones are one :class:`Group` of calls: a missing or
       non-OK ack degrades the response to ``REPLICATION_ERROR`` (§III.J).
    3. A request parked behind a committed migration is forwarded to the
       new owner as a call, whose answer (or ``TIMEOUT``) goes back to
       the requester as an :class:`Answer`.
    4. One parked behind an aborted migration is answered ``MIGRATING``.
    """
    response = result.response
    for address, update in result.async_sends:
        yield Cast(address, update)
    if result.sync_sends:
        acks = yield Group(result.sync_sends, timeout)
        if response is not None and any(ack is None or ack.status != _OK for ack in acks):
            response.status = Status.REPLICATION_ERROR
    for address, queued in result.forwards:
        forwarded = yield PeerCall(address, queued.request, timeout)
        if queued.reply_context is not None:
            yield Answer(
                queued.reply_context,
                forwarded
                or Response(status=Status.TIMEOUT, request_id=queued.request.request_id),
            )
    for queued in result.failed_queued:
        if queued.reply_context is not None:
            yield Answer(
                queued.reply_context,
                Response(status=Status.MIGRATING, request_id=queued.request.request_id),
            )
    return response
