"""Transport abstractions shared by the TCP, UDP, and local runtimes.

Two pieces of glue live here so each concrete transport stays small:

* :class:`ServerExecutor` — executes the side effects of a
  :class:`~repro.core.server.HandleResult` (synchronous replica acks,
  asynchronous fan-out, forwarding of queued requests after migration)
  against a :class:`PeerClient`.
* :func:`drive` — the live trampoline: runs one of the sans-IO loops of
  :mod:`repro.core.loops` (an op, a manager script, a scenario client)
  over any :class:`ClientTransport`, blocking on each call, sending
  casts one-way and sleeping real time for backoff.  The DES runs the
  same loops with :meth:`repro.sim.cluster.SimulatedCluster.drive`.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Generator

from ..core.errors import Status
from ..core.loops import Cast, Sleep
from ..core.membership import Address
from ..core.protocol import Request, Response
from ..core.server import HandleResult, ZHTServerCore


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


def drive(
    loop: Generator,
    transport: ClientTransport,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> object:
    """Run *loop* to completion over *transport*; returns its return
    value and raises what it raises."""
    send = loop.send
    reply = None
    try:
        while True:
            command = send(reply)
            kind = command.__class__
            if kind is Sleep:
                reply = None
                sleep(command.seconds)
            elif kind is Cast:
                reply = None
                transport.send_oneway(command.address, command.request)
            else:
                reply = transport.roundtrip(
                    command.address, command.request, command.timeout
                )
    except StopIteration as stop:
        return stop.value
