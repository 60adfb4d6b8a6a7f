"""Transport abstractions shared by the TCP, UDP, and local runtimes.

Two pieces of glue live here so each concrete transport stays small:

* :class:`ServerExecutor` — executes the side effects of a
  :class:`~repro.core.server.HandleResult` (synchronous replica acks,
  asynchronous fan-out, forwarding of queued requests after migration)
  against a :class:`PeerClient`.
* :func:`execute_op` — drives a client :class:`~repro.core.client.OpDriver`
  over any :class:`ClientTransport`, sleeping real time for backoff delays
  and dispatching failure notifications to managers.
"""

from __future__ import annotations

import abc
import time
from typing import Callable

from ..core.client import BatchEntry, OpDriver, ZHTClientCore
from ..core.errors import (
    STATUS_TO_EXCEPTION,
    DeadlineExceeded,
    NodeDeadError,
    ProtocolError,
    RequestTimeout,
    ServerOverloaded,
    Status,
    ZHTError,
)
from ..core.manager import PeerCall, Script
from ..core.membership import Address
from ..core.protocol import OpCode, Request, Response, parse_batch, parse_response
from ..core.server import HandleResult, ZHTServerCore
from ..obs import REGISTRY


class ClientTransport(abc.ABC):
    """Moves one request to an address and returns the response."""

    #: Largest encoded request this transport can carry in one message,
    #: or ``None`` for stream transports.  The batch planner chunks
    #: per-owner batches under this limit (UDP datagrams).
    max_request_bytes: int | None = None

    @abc.abstractmethod
    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        """Send *request* and wait up to *timeout* seconds; ``None`` on
        timeout or connection failure."""

    @abc.abstractmethod
    def send_oneway(self, address: Address, request: Request) -> None:
        """Best-effort fire-and-forget send (async replication)."""

    def evict(self, address: Address) -> None:  # pragma: no cover - default
        """Discard any cached connection to *address*.

        Called when the failure detector marks the owning node dead, so
        retries and failovers never re-use a socket to a crashed server.
        Transports without connection state ignore it.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any cached connections/sockets."""


#: Called to deliver a (possibly deferred) response to a request origin.
ReplyFn = Callable[[object, Response], None]


class ServerExecutor:
    """Applies a :class:`HandleResult`'s effects for one server core."""

    def __init__(
        self,
        core: ZHTServerCore,
        peer_client: ClientTransport,
        reply_fn: ReplyFn,
        *,
        peer_timeout: float | None = None,
    ) -> None:
        self.core = core
        self.peer_client = peer_client
        self.reply_fn = reply_fn
        self.peer_timeout = (
            peer_timeout
            if peer_timeout is not None
            else core.config.request_timeout
        )

    def process(
        self, request: Request, reply_context: object = None
    ) -> Response | None:
        """Handle *request* fully; returns the immediate response, or
        ``None`` if the request was queued behind a migration."""
        result = self.core.handle(request, reply_context)
        self._apply_effects(result)
        return result.response

    def _apply_effects(self, result: HandleResult) -> None:
        response = result.response
        # Replica updates must leave in store-apply order (ticketed by the
        # core, see ReplicationSequencer) or concurrent mutations can land
        # on replicas in a different order than the primary applied them.
        if result.repl_sequencer is not None:
            result.repl_sequencer.wait_turn(
                result.repl_ticket, self.peer_timeout
            )
        try:
            # Strongly-consistent replicas: the response cannot be
            # released until every sync replica acknowledged; a failed ack
            # degrades the response to REPLICATION_ERROR (§III.J).
            if response is not None:
                for address, update in result.sync_sends:
                    ack = self.peer_client.roundtrip(
                        address, update, self.peer_timeout
                    )
                    if ack is None or ack.status != Status.OK:
                        response.status = Status.REPLICATION_ERROR
                        break
            for address, update in result.async_sends:
                self.peer_client.send_oneway(address, update)
        finally:
            if result.repl_sequencer is not None:
                result.repl_sequencer.retire(result.repl_ticket)
        # Queued requests released by a migration commit are forwarded to
        # the new owner, and the owner's answer relayed to the original
        # requester.
        for address, queued in result.forwards:
            forwarded = self.peer_client.roundtrip(
                address, queued.request, self.peer_timeout
            )
            if queued.reply_context is not None:
                self.reply_fn(
                    queued.reply_context,
                    forwarded
                    or Response(
                        status=Status.TIMEOUT,
                        request_id=queued.request.request_id,
                    ),
                )
        # Queued requests discarded by a migration abort fail loudly:
        # "discarding the queued requests and reporting error to clients".
        for queued in result.failed_queued:
            if queued.reply_context is not None:
                self.reply_fn(
                    queued.reply_context,
                    Response(
                        status=Status.MIGRATING,
                        request_id=queued.request.request_id,
                    ),
                )


def execute_op(
    core: ZHTClientCore,
    driver: OpDriver,
    transport: ClientTransport,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> Response:
    """Run *driver* to completion over *transport*; returns the response
    (raising the mapped exception on failure)."""
    # The root span of one logical operation: covers every retry,
    # redirect, backoff sleep, and failover attempt — submission to
    # settled outcome, which is what the paper's latency figures measure.
    with REGISTRY.span("client.op"):
        while True:
            attempt = driver.next_attempt()
            if attempt is None:
                break
            if attempt.delay > 0:
                sleep(attempt.delay)
            start = time.monotonic()
            response = transport.roundtrip(
                attempt.address, attempt.request, attempt.timeout
            )
            if response is None:
                driver.on_timeout()
            else:
                # The measured RTT feeds the per-node history behind the
                # adaptive (phi) failure detector.
                driver.on_response(response, rtt_s=time.monotonic() - start)
    _flush_notifications(core, transport)
    return driver.result()


def _flush_notifications(core: ZHTClientCore, transport: ClientTransport) -> None:
    """Deliver any pending failure reports to managers (best effort)."""
    for note in core.take_notifications():
        transport.send_oneway(note.address, note.request)


def _status_error(status: Status, context: str) -> ZHTError:
    exc_type = STATUS_TO_EXCEPTION.get(status, ProtocolError)
    return exc_type(f"{context}: {status.name}", status=status)


def execute_batch(
    core: ZHTClientCore,
    op: OpCode,
    entries: list[BatchEntry],
    transport: ClientTransport,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> list[BatchEntry]:
    """Run one batched operation (*op* over all *entries*) to completion.

    Entries are planned into per-owner BATCH round trips, executed, and
    settled independently: a sub-response with a terminal status settles
    its entry; REDIRECT/MIGRATING sub-statuses (and timed-out round
    trips) send only the affected entries back through planning — a
    stale membership epoch re-plans the affected sub-batch against the
    refreshed table instead of failing the whole call.  Unsettled
    entries get ``RequestTimeout`` once the retry budget is exhausted.
    """
    cfg = core.config
    core.stats.inc("batch_ops", len(entries))
    pending = [e for e in entries if not e.settled]
    rounds = 0
    # One deadline covers the whole batched operation: it is split across
    # attempts (each round trip gets at most the remaining budget) and
    # propagated to servers in every BATCH envelope.
    deadline = core.clock() + core.deadline_budget()
    deadline_us = int(deadline * 1e6)
    overloaded_seen = False
    with REGISTRY.span("client.batch"):
        while pending:
            if rounds > cfg.max_retries:
                for entry in pending:
                    if overloaded_seen:
                        entry.error = ServerOverloaded(
                            f"{op.name} batch entry shed by overloaded servers"
                        )
                    else:
                        entry.error = RequestTimeout(
                            f"{op.name} batch entry exhausted retries"
                        )
                break
            remaining = deadline - core.clock()
            if remaining <= 0:
                for entry in pending:
                    entry.error = DeadlineExceeded(
                        f"{op.name} batch entry deadline exceeded"
                    )
                break
            attempts, unroutable = core.plan_batches(
                op, pending, max_bytes=transport.max_request_bytes
            )
            for entry in unroutable:
                entry.error = NodeDeadError(
                    f"no alive replica for key {entry.key!r} (op {op.name})"
                )
            retry: list[BatchEntry] = []
            needs_backoff = False
            for attempt in attempts:
                outer = attempt.to_request(core, deadline_us)
                # Larger batches earn proportionally more server time —
                # capped by what is left of the operation's deadline.
                timeout = min(
                    cfg.request_timeout * (1 + len(attempt.subs) / 256),
                    max(deadline - core.clock(), 1e-6),
                )
                core.stats.inc("batches")
                start = time.monotonic()
                response = transport.roundtrip(attempt.address, outer, timeout)
                if response is None:
                    core.stats.inc("retries")
                    core.record_timeout(attempt.node_id, timeout_s=timeout)
                    retry.extend(attempt.entries)
                    needs_backoff = True
                    continue
                core.record_success(
                    attempt.node_id, rtt_s=time.monotonic() - start
                )
                core.adopt_membership(response.membership)
                if response.status in (
                    Status.RETRY_LATER,
                    Status.DEADLINE_EXCEEDED,
                ):
                    # Overload shed (or a server clock disagreeing about
                    # the deadline): the node is alive, so back off and
                    # re-plan — our own clock settles expiry next round.
                    if response.status == Status.RETRY_LATER:
                        core.stats.inc("retry_later")
                        overloaded_seen = True
                    core.stats.inc("retries")
                    needs_backoff = True
                    retry.extend(attempt.entries)
                    continue
                if response.status in (Status.REDIRECT, Status.MIGRATING):
                    core.stats.inc(
                        "redirects_followed"
                        if response.status == Status.REDIRECT
                        else "retries"
                    )
                    needs_backoff |= response.status == Status.MIGRATING
                    retry.extend(attempt.entries)
                    continue
                if response.status != Status.OK:
                    # Whole-batch failure (REPLICATION_ERROR from a sync
                    # replica, BAD_REQUEST, ...) fails every entry it
                    # carried, mirroring the per-op path.
                    for entry in attempt.entries:
                        entry.error = _status_error(
                            response.status, f"{op.name} batch"
                        )
                    continue
                try:
                    subs = parse_batch(parse_response, response.value)
                except ProtocolError:
                    subs = []
                # A sub-response echoes its sub-request's id and op; a
                # reply with one missing, extra or out of place answers
                # nothing reliably, so every entry it carried is retried.
                if len(subs) != len(attempt.subs) or any(
                    sub[2] != sent[2] or sub[6] != op
                    for sub, sent in zip(subs, attempt.subs)
                ):
                    retry.extend(attempt.entries)
                    needs_backoff = True
                    continue
                for entry, sub in zip(attempt.entries, subs):
                    status = sub[0]
                    if status is Status.REDIRECT:
                        core.stats.inc("redirects_followed")
                        retry.append(entry)
                    elif status is Status.MIGRATING:
                        core.stats.inc("retries")
                        needs_backoff = True
                        retry.append(entry)
                    else:
                        entry.status, entry.result = status, sub[1]
            pending = retry
            rounds += 1
            if pending and needs_backoff:
                base = min(
                    cfg.request_timeout * (cfg.backoff_factor ** (rounds - 1)),
                    cfg.request_timeout * 8,
                )
                if cfg.retry_jitter:
                    base = core.rng.uniform(0.0, base)
                delay = min(base, max(deadline - core.clock(), 0.0))
                if delay > 0:
                    sleep(delay)
    _flush_notifications(core, transport)
    return entries


def run_script(
    script: Script,
    transport: ClientTransport,
    *,
    timeout: float = 5.0,
) -> object:
    """Drive a manager :class:`~repro.core.manager.Script` over *transport*.

    Returns the script's return value.  A call that times out feeds
    ``None`` back into the script (scripts handle that as failure).
    """
    reply: Response | None = None
    try:
        while True:
            call: PeerCall = script.send(reply)
            reply = transport.roundtrip(call.address, call.request, timeout)
    except StopIteration as stop:
        return stop.value
