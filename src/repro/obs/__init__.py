"""Unified observability layer (metrics + tracing) for the whole stack.

Usage from instrumented modules::

    from ..obs import REGISTRY

    REGISTRY.counter("tcp.client.connects").inc()
    with REGISTRY.span("server.handle"):
        ...

An object that keeps counters of its own (a client core, a server core,
a store) asks for them as one set::

    self.stats = REGISTRY.counter_set("client", CLIENT_COUNTERS)
    self.stats.inc("retries")       # this owner's cell + ``client.retries``

The process-wide :data:`REGISTRY` starts with spans *disabled* (counters
are always live); enable with :func:`enable_metrics`, or set
``ZHT_METRICS=1`` in the environment before import.  ``python -m repro
stats`` and the benchmark harness enable it explicitly.
"""

from __future__ import annotations

import os

from .metrics import (
    Counter,
    CounterSet,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    merge_latency_snapshots,
    merge_stats_snapshots,
)
from .partload import PartitionLoadTracker
from .tracing import NULL_SPAN, Span, TracingRegistry

__all__ = [
    "Counter",
    "CounterSet",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "PartitionLoadTracker",
    "TracingRegistry",
    "Span",
    "NULL_SPAN",
    "REGISTRY",
    "merge_latency_snapshots",
    "merge_stats_snapshots",
    "enable_metrics",
    "disable_metrics",
    "metrics_snapshot",
]

#: The process-local registry every layer records into.
REGISTRY = TracingRegistry(
    enabled=os.environ.get("ZHT_METRICS", "") not in ("", "0")
)


def enable_metrics() -> None:
    """Turn on timing spans process-wide (counters are always on)."""
    REGISTRY.enable()


def disable_metrics() -> None:
    REGISTRY.disable()


def metrics_snapshot() -> dict:
    """JSON-serializable snapshot of the process registry."""
    return REGISTRY.snapshot()
