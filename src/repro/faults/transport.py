"""Fault-injecting wrapper around any client transport.

:class:`FaultyClientTransport` sits between an operation driver and a
real (TCP/UDP/local) transport and applies a :class:`~repro.faults.plan.FaultPlan`
to every send:

* ``DROP`` — the request is swallowed; the caller waits out its timeout
  (exactly what a lost packet looks like from the client side).
* ``DELAY`` / ``STALL`` — the round trip completes, late.
* ``DUPLICATE`` — the message is transmitted twice (the server-side UDP
  dedup cache and idempotent TCP handling absorb the copy).
* ``RESET`` — the attempt fails fast, like ``ECONNRESET``, and the
  cached connection to the target is evicted.
* crashed targets (``plan.crash_target``) behave as black holes.

The wrapper is transport-agnostic, so the same plan drives faults over
loopback sockets and the in-process local network.
"""

from __future__ import annotations

import time
from typing import Callable

from ..core.membership import Address
from ..core.protocol import Request, Response
from ..net.transport import ClientTransport
from .plan import FaultKind, FaultPlan


class FaultyClientTransport(ClientTransport):
    """Applies *plan* to every message crossing *inner*."""

    def __init__(
        self,
        inner: ClientTransport,
        plan: FaultPlan,
        *,
        sleep: Callable[[float], None] = time.sleep,
        max_drop_wait: float = 0.5,
    ):
        self.inner = inner
        self.plan = plan
        # Batch planning chunks against the real transport's limit even
        # when wrapped (a faulty UDP client still carries datagrams).
        self.max_request_bytes = inner.max_request_bytes
        self._sleep = sleep
        #: Cap on how long a DROP makes the caller actually wait — lost
        #: messages must look like timeouts, but tests should not pay
        #: multi-second sleeps for them.
        self.max_drop_wait = max_drop_wait

    # ------------------------------------------------------------------

    def _copies(self, address: Address, request: Request, lost_wait: float) -> int:
        """How many copies of *request* go on to *inner*, after any
        injected delay: 0 when the target is crashed or the message is
        lost.  A crash or a DROP blocks for *lost_wait*; a RESET fails
        fast and evicts the cached connection."""
        fate = (
            None  # a crashed target is a black hole
            if self.plan.is_crashed(str(address), address.host)
            else self.plan.message_fate(target=str(address), op=request.op.name)
        )
        if fate is not None and fate.lost == FaultKind.RESET:
            self.inner.evict(address)
            return 0
        if fate is None or fate.lost:
            if lost_wait:
                self._sleep(lost_wait)
            return 0
        if fate.delay:
            self._sleep(fate.delay)
        return fate.copies

    def roundtrip(
        self, address: Address, request: Request, timeout: float
    ) -> Response | None:
        copies = self._copies(address, request, min(timeout, self.max_drop_wait))
        if not copies:
            return None
        if copies > 1:
            # The duplicated copy reaches the server too; its response is
            # discarded (the original's wins), matching a repeated datagram.
            self.inner.roundtrip(address, request, timeout)
        return self.inner.roundtrip(address, request, timeout)

    def send_oneway(self, address: Address, request: Request) -> None:
        copies = self._copies(address, request, 0.0)
        if copies:
            self.inner.send_oneway(address, request)
        if copies > 1:
            self.inner.send_oneway(address, request)

    def evict(self, address: Address) -> None:
        self.inner.evict(address)

    def close(self) -> None:
        self.inner.close()
