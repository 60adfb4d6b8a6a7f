"""Operation tracing: nested timing spans over the metrics registry.

A span times one named stage of an operation and records the duration
into the registry histogram of the same name.  Spans nest: the client
driver opens ``client.op``, the transport opens ``tcp.roundtrip`` inside
it, the server core opens ``server.handle`` inside *that*, and NoVoHT /
the WAL open ``novoht.put`` / ``wal.append`` at the bottom — so a
snapshot shows exactly where a zero-hop operation's time goes
(hash → route → wire → store), which is the visibility the paper's
latency figures are built on.

Span nesting is tracked per thread; every ``parent>child`` transition
also bumps an edge counter (``span.edge.<parent>><child>``) so the
recorded hierarchy can be reconstructed from a snapshot without a
heavyweight trace format.

**Zero-alloc when disabled**: ``span(name)`` on a disabled registry
returns a shared singleton whose ``__enter__``/``__exit__`` do nothing —
no clock read, no allocation, no histogram lookup.  A hot path skips
even the call: ``with REGISTRY.span(name) if REGISTRY.enabled else
NULL_SPAN:`` costs an attribute check and the two empty methods (17
bytecodes against 23 through ``span``, CPython 3.11).
"""

from __future__ import annotations

import threading
from time import perf_counter

from .metrics import MetricsRegistry


class _NullSpan:
    """Shared do-nothing span returned while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanStack(threading.local):
    def __init__(self):
        self.names: list[str] = []


class Span:
    """One live timing span (use via ``TracingRegistry.span``)."""

    __slots__ = ("_registry", "name", "_start")

    def __init__(self, registry: "TracingRegistry", name: str):
        self._registry = registry
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        stack = self._registry._stack.names
        if stack:
            self._registry.counter(
                f"span.edge.{stack[-1]}>{self.name}"
            ).inc()
        stack.append(self.name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = perf_counter() - self._start
        stack = self._registry._stack.names
        if stack and stack[-1] == self.name:
            stack.pop()
        self._registry.histogram(self.name).record(elapsed)
        return False


class TracingRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` that can also mint timing spans."""

    def __init__(self, *, enabled: bool = False):
        super().__init__(enabled=enabled)
        self._stack = _SpanStack()

    def span(self, name: str):
        """A context manager timing *name* into its histogram.

        Returns the shared no-op span when the registry is disabled, so
        callers can write ``with REGISTRY.span("x"):`` unconditionally.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    def time(self, name: str, seconds: float) -> None:
        """Record an externally measured duration (benchmark harness)."""
        if self.enabled:
            self.histogram(name).record(seconds)
