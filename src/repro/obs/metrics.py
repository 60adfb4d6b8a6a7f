"""Process-local metrics registry: counters, gauges, latency histograms.

The paper's entire evaluation (Figures 7–15) is per-operation latency
and throughput; this module is the single place those numbers come from.
Every layer of the stack — client driver, transport, server core,
NoVoHT, WAL — records into one :class:`MetricsRegistry` so benchmarks,
the ``STATS`` opcode, and the chaos harness all read the same counters
and the same fixed-bucket latency distributions.

Design constraints:

* **Cheap when idle.** Counters are a lock-protected integer add (the
  lock is uncontended in the single-threaded event-loop servers).
  Timing spans allocate nothing and read no clock unless the registry
  is enabled (see :mod:`repro.obs.tracing`).
* **Fixed memory.** Histograms use a fixed logarithmic bucket ladder —
  no per-sample storage — so a million-op run costs the same RAM as a
  ten-op run.  Percentiles (p50/p90/p99/max) are read from the ladder.
* **Process-local.** One registry per process, matching ZHT's
  deployment unit; a loopback test cluster shares one registry, a real
  multi-process deployment aggregates snapshots via the STATS opcode.
"""

from __future__ import annotations

import os
import platform
import threading
from bisect import bisect_left
from typing import Callable


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value  # zht-lint: ignore[LOCK001] GIL-atomic int read; snapshot precision not required

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class CounterSet:
    """One owner's counters: a client core's, a server core's, a store's.

    Handed out by :meth:`MetricsRegistry.counter_set`.  The owner reads
    its own counts as plain attributes (``core.stats.retries``);
    :meth:`inc` adds to the owner's cell and to the process total
    ``prefix.field`` — an ordinary registry :class:`Counter`, so it
    shows in every snapshot and outlives the owner — under that total's
    lock, which therefore guards the field's cell in every set of the
    prefix.  Per owner this is one slotted object and one dict; the
    totals and their locks exist once per prefix.
    """

    __slots__ = ("_cells", "_totals")

    def __init__(self, fields: tuple[str, ...], totals: dict[str, Counter]):
        self._cells = dict.fromkeys(fields, 0)
        self._totals = totals

    def inc(self, field: str, n: int = 1) -> None:
        total = self._totals[field]
        with total._lock:
            self._cells[field] += n
            total._value += n

    def __getattr__(self, field: str) -> int:
        try:
            return self._cells[field]
        except KeyError:
            raise AttributeError(field) from None

    def as_dict(self) -> dict[str, int]:
        return dict(self._cells)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self._cells.items())
        return f"CounterSet({body})"


class Gauge:
    """A point-in-time value: either set explicitly or read from a
    provider callable at snapshot time (zero hot-path cost)."""

    __slots__ = ("name", "_value", "_provider", "_lock")

    def __init__(self, name: str, provider: Callable[[], float] | None = None):
        self.name = name
        self._value = 0.0  # guarded-by: _lock
        self._provider = provider
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        if self._provider is not None:
            try:
                return float(self._provider())
            except Exception:
                return 0.0
        return self._value  # zht-lint: ignore[LOCK001] GIL-atomic float read; snapshot precision not required

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _build_bucket_bounds() -> tuple[float, ...]:
    """Upper bounds (seconds) of the fixed latency ladder.

    1 µs → ~67 s in powers of two: 27 buckets plus an overflow bucket.
    Sub-microsecond events land in the first bucket; anything beyond the
    ladder lands in the overflow bucket and only moves ``max``.
    """
    bounds = []
    us = 1e-6
    for i in range(27):
        bounds.append(us * (2**i))
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile readout.

    ``record(seconds)`` is O(log #buckets) (a bisect plus a locked
    increment); ``percentile(p)`` walks the ladder and returns the upper
    bound of the bucket holding the p-th sample — an upper estimate with
    at most 2× resolution error, which is what fixed ladders trade for
    constant memory.  Exact ``min``/``max``/``sum`` are kept alongside.
    """

    __slots__ = ("name", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    BOUNDS: tuple[float, ...] = _build_bucket_bounds()

    def __init__(self, name: str):
        self.name = name
        self._counts = [0] * (len(self.BOUNDS) + 1)  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._min = float("inf")  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        index = bisect_left(self.BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        return self._count  # zht-lint: ignore[LOCK001] GIL-atomic int read

    @property
    def mean_s(self) -> float:
        count = self.count
        # zht-lint: ignore[LOCK001] torn sum/count read only skews a progress readout
        return self._sum / count if count else 0.0

    @property
    def max_s(self) -> float:
        return self._max  # zht-lint: ignore[LOCK001] GIL-atomic float read

    @property
    def min_s(self) -> float:
        # zht-lint: ignore[LOCK001] GIL-atomic float read; min/count skew is harmless
        return self._min if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-bound estimate (seconds) of the p-th percentile."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            return _ladder_percentile(
                self._counts, self._count, p, self._min, self._max
            )

    def snapshot(self) -> dict:
        with self._lock:
            count, total, mx, mn = self._count, self._sum, self._max, self._min
            counts = list(self._counts)
        return _ladder_snapshot(counts, count, total * 1e3, mn * 1e3, mx * 1e3)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.BOUNDS) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = 0.0


def _ladder_percentile(
    counts: list[int], total: int, p: float, lo: float, hi: float, scale: float = 1.0
) -> float:
    """Upper bound of the ladder bucket holding the p-th of *total*
    samples, in seconds times *scale*, clamped by the exact extremes
    *lo*/*hi* so p0/p100 never stray outside the observed range."""
    if total == 0:
        return 0.0
    bounds = LatencyHistogram.BOUNDS
    rank = max(1, int(p / 100 * total + 0.5))
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            if index >= len(bounds):
                return hi
            return min(max(bounds[index] * scale, lo), hi)
    return hi


def _ladder_snapshot(
    counts: list[int], total: int, sum_ms: float, min_ms: float, max_ms: float
) -> dict:
    """The JSON view of one distribution on the shared ladder."""
    if total == 0:
        return {"count": 0}

    def percentile_ms(p: float) -> float:
        return round(_ladder_percentile(counts, total, p, min_ms, max_ms, 1e3), 6)

    return {
        "count": total,
        "mean_ms": round(sum_ms / total, 6),
        "p50_ms": percentile_ms(50),
        "p90_ms": percentile_ms(90),
        "p99_ms": percentile_ms(99),
        "max_ms": round(max_ms, 6),
        "min_ms": round(min_ms, 6),
        "sum_ms": round(sum_ms, 6),
        # Sparse raw bucket counts (ladder index -> samples): what makes
        # snapshots *mergeable* — aggregating across shard processes sums
        # these and recomputes percentiles on the shared ladder, instead
        # of averaging per-shard percentiles (which has no distributional
        # meaning).
        "buckets": [[index, n] for index, n in enumerate(counts) if n],
    }


def merge_latency_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-process histogram snapshots into one distribution.

    Each snapshot carries its sparse raw ``buckets`` on the shared
    :data:`LatencyHistogram.BOUNDS` ladder, so merging is exact: sum the
    bucket counts, then recompute p50/p90/p99 by walking the merged
    ladder.  Percentiles are **never** averaged across snapshots — the
    average of per-shard p99s is not the p99 of the union.
    """
    counts = [0] * (len(LatencyHistogram.BOUNDS) + 1)
    total = 0
    sum_ms = 0.0
    min_ms = float("inf")
    max_ms = 0.0
    for snap in snapshots:
        n = int(snap.get("count", 0))
        if n == 0:
            continue
        total += n
        # Older snapshots lack sum_ms; mean*count is an exact fallback.
        sum_ms += float(snap.get("sum_ms", snap.get("mean_ms", 0.0) * n))
        min_ms = min(min_ms, float(snap.get("min_ms", 0.0)))
        max_ms = max(max_ms, float(snap.get("max_ms", 0.0)))
        for index, count in snap.get("buckets", []):
            counts[index] += count
    return _ladder_snapshot(counts, total, sum_ms, min_ms, max_ms)


def merge_stats_snapshots(snapshots: list[dict]) -> dict:
    """Merge ``STATS`` snapshots into one node- or cluster-level view.

    A snapshot's counters, gauges and latency describe its whole
    *process*, so they enter the merge once per ``process`` stamp (the
    last snapshot polled from a process stands for it; an unstamped
    snapshot is taken as a process of its own): counters and gauges are
    summed and histograms merged bucket-wise
    (:func:`merge_latency_snapshots`) across processes.  Per-instance
    blocks (``instance`` / ``partition_load``) are concatenated from
    every snapshot so the view keeps per-server attribution alongside
    the totals.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    latency_parts: dict[str, list[dict]] = {}
    instances: list[dict] = []
    processes: dict[object, dict] = {}
    for index, snap in enumerate(snapshots):
        processes[snap.get("process", index)] = snap
        if "instance" in snap:
            instances.append(snap["instance"])
        instances.extend(snap.get("instances", []))
    for snap in processes.values():
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, hist in snap.get("latency", {}).items():
            latency_parts.setdefault(name, []).append(hist)
    return {
        "enabled": any(snap.get("enabled") for snap in snapshots),
        "shards": len(snapshots),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "latency": {
            name: merge_latency_snapshots(parts)
            for name, parts in sorted(latency_parts.items())
        },
        "instances": instances,
    }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one process.

    Instruments are created lazily on first use and live forever (names
    are stable identities, so snapshots across time are comparable).
    ``enabled`` gates only *timing spans* — counters and gauges are
    always live because they are cheap and the transports' correctness
    tests assert on them.
    """

    def __init__(self, *, enabled: bool = False):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        #: Per counter-set prefix: the declared fields and their totals.
        self._sets: dict[str, tuple[tuple[str, ...], dict[str, Counter]]] = {}
        self._lock = threading.Lock()

    # -- instrument access (get-or-create) ------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def counter_set(self, prefix: str, fields: tuple[str, ...]) -> CounterSet:
        """A fresh :class:`CounterSet` for one owner of *prefix*.

        *fields* is where a prefix's counters are declared: the first
        call creates the ``prefix.field`` totals, and every later owner
        must name the same tuple.
        """
        known = self._sets.get(prefix)
        if known is None:
            totals = {field: self.counter(f"{prefix}.{field}") for field in fields}
            known = self._sets.setdefault(prefix, (fields, totals))
        if known[0] != fields:
            raise ValueError(f"counter set {prefix!r} is declared as {known[0]}")
        return CounterSet(fields, known[1])

    def gauge(
        self, name: str, provider: Callable[[], float] | None = None
    ) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, provider))
        return gauge

    def histogram(self, name: str) -> LatencyHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, LatencyHistogram(name)
                )
        return histogram

    # -- enablement ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "enabled": self.enabled,
            # Every server of a process reports this same registry; the
            # stamp lets a merge count the process once (read per call:
            # shard workers are forked).
            "process": f"{platform.node()}:{os.getpid()}",
            "counters": {
                name: c.value for name, c in sorted(counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "latency": {
                name: h.snapshot()
                for name, h in sorted(histograms.items())
                if h.count
            },
        }

    def reset(self) -> None:
        """Zero every instrument (keeps identities; used by tests and
        benchmark warmup)."""
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument.reset()
