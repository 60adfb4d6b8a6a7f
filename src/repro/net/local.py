"""In-process "loopback" transport.

Runs an entire ZHT deployment inside one Python process with direct
function calls instead of sockets.  This is the substrate for unit and
integration tests of the protocol logic (redirects, replication chains,
migration, failure handling) — deterministic, fast, and with first-class
fault injection (:meth:`LocalNetwork.kill_address` /
:meth:`LocalNetwork.revive_address`).

Calls run on the caller's thread, so a request queued behind a frozen
partition cannot be answered in-line: :meth:`LocalNetwork.roundtrip` waits
(up to its timeout) for the thread that releases the partition to deliver
the deferred reply.  Deferred replies to any other reply context are
parked in :attr:`LocalNetwork.deferred_replies` for tests to assert on.
"""

from __future__ import annotations

import threading

from ..core.membership import Address
from ..core.protocol import Request, Response
from ..core.server import ZHTServerCore
from ..obs import NULL_SPAN, REGISTRY
from .transport import ClientTransport, serve_effects


#: Per-network message counters (process totals are ``local.<field>``).
LOCAL_COUNTERS = ("roundtrips", "oneways", "dropped")


class LocalNetwork(ClientTransport):
    """Registry of in-process servers addressable like a real network."""

    def __init__(self) -> None:
        self.servers: dict[Address, ZHTServerCore] = {}
        self.dead: set[Address] = set()
        self.deferred_replies: list[tuple[object, Response]] = []
        #: Round trips whose request got queued sleep here until released.
        self._released = threading.Condition()
        self.stats = REGISTRY.counter_set("local", LOCAL_COUNTERS)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def add_server(self, core: ZHTServerCore) -> None:
        """Register *core* at its own address."""
        self.servers[core.info.address] = core

    def serve(
        self, address: Address, request: Request, reply_context: object = None
    ) -> Response | None:
        """Handle *request* at *address*'s core and run its effects (peer
        calls wait up to 1 s); returns the immediate response, or ``None``
        if the request was parked behind a migration."""
        result = self.servers[address].handle(request, reply_context)
        return serve_effects(result, self, self._deferred_reply, 1.0)

    def _deferred_reply(self, reply_context: object, response: Response) -> None:
        if isinstance(reply_context, list):  # a parked roundtrip's mailbox
            with self._released:
                reply_context.append(response)
                self._released.notify_all()
        else:
            self.deferred_replies.append((reply_context, response))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def kill_address(self, address: Address) -> None:
        """Make *address* unreachable (requests time out)."""
        self.dead.add(address)

    def revive_address(self, address: Address) -> None:
        self.dead.discard(address)

    def kill_node(self, addresses: list[Address]) -> None:
        for address in addresses:
            self.kill_address(address)

    def _reachable(self, address: Address) -> bool:
        return address in self.servers and address not in self.dead

    # ------------------------------------------------------------------
    # ClientTransport
    # ------------------------------------------------------------------

    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        if not self._reachable(address):
            self.stats.inc("dropped")
            return None
        self.stats.inc("roundtrips")
        with REGISTRY.span("local.roundtrip") if REGISTRY.enabled else NULL_SPAN:
            mailbox: list[Response] = []
            response = self.serve(address, request, mailbox)
            if response is None:
                # Queued behind a frozen partition: like a socket client,
                # wait for the release (MIGRATING, or the new owner's answer).
                with self._released:
                    self._released.wait_for(lambda: mailbox, timeout)
                response = mailbox[0] if mailbox else None
            return response

    def send_oneway(self, address: Address, request: Request) -> None:
        if not self._reachable(address):
            self.stats.inc("dropped")
            return
        self.stats.inc("oneways")
        self.serve(address, request)

    def close(self) -> None:
        for core in self.servers.values():
            core.close()
