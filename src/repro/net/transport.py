"""Transport abstractions shared by the TCP, UDP, and local runtimes.

* :func:`drive` — the live trampoline: runs one of the sans-IO loops of
  :mod:`repro.core.loops` (an op, a manager script, a scenario client,
  a server's effects) over any :class:`ClientTransport`, blocking on
  each call, sending casts one-way and sleeping real time for backoff.
  The DES runs the same loops with
  :meth:`repro.sim.cluster.SimulatedCluster.drive`.
* :func:`serve_effects` — a :class:`~repro.core.server.HandleResult`'s
  :func:`~repro.core.loops.effect_loop` run with :func:`drive`, for the
  local transport and the UDP server's effect worker.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, Generator

from ..core.loops import Answer, Cast, Group, Sleep, effect_loop
from ..core.membership import Address
from ..core.protocol import Request, Response
from ..core.server import HandleResult


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

#: The commands that are not a call.
_NOT_CALLS = frozenset({Sleep, Cast, Group, Answer})


def serve_effects(
    result: HandleResult, transport: ClientTransport, answer: ReplyFn, timeout: float
) -> Response | None:
    """Run *result*'s effects with :func:`drive` over *transport* (peer
    calls wait up to *timeout*; answers to parked requesters go to
    *answer*) and return its response: ``None`` if the request was
    parked, ``REPLICATION_ERROR`` if a sync replica failed to ack."""
    if not result.effects:
        return result.response
    sequencer = result.repl_sequencer
    # Replica updates must leave in store-apply order (ticketed by the
    # core, see ReplicationSequencer) or concurrent mutations can land
    # on replicas in a different order than the primary applied them.
    if sequencer is not None:
        sequencer.wait_turn(result.repl_ticket, timeout)
    try:
        response: Response | None = drive(effect_loop(result, timeout), transport, answer=answer)
        return response
    finally:
        if sequencer is not None:
            sequencer.retire(result.repl_ticket)


def drive(
    loop: Generator,
    transport: ClientTransport,
    *,
    sleep: Callable[[float], None] = time.sleep,
    answer: ReplyFn | None = None,
    command: Any = None,
) -> Any:
    """Run *loop* to completion over *transport*; returns its return
    value and raises what it raises.  A :class:`Group`'s calls go out
    one after another, an :class:`Answer` to *answer*.  With *command*,
    *loop* has already yielded it: the run resumes there."""
    send = loop.send
    try:
        if command is None:
            command = send(None)
        while True:
            kind = command.__class__
            if kind not in _NOT_CALLS:  # a call: an Attempt, a PeerCall
                reply = transport.roundtrip(
                    command.address, command.request, command.timeout
                )
            elif kind is Sleep:
                reply = None
                sleep(command.seconds)
            elif kind is Cast:
                reply = None
                transport.send_oneway(command.address, command.request)
            elif kind is Group:
                timeout = command.timeout
                reply = [
                    transport.roundtrip(address, request, timeout)
                    for address, request in command.sends
                ]
            else:
                reply = None
                if answer is not None:
                    answer(command.context, command.response)
            command = send(reply)
    except StopIteration as stop:
        return stop.value
