"""Process-local metrics registry: counters, gauges, latency histograms.

The paper's entire evaluation (Figures 7–15) is per-operation latency
and throughput; this module is the single place those numbers come from.
Every layer of the stack — client driver, transport, server core,
NoVoHT, WAL — records into one :class:`MetricsRegistry` so benchmarks,
the ``STATS`` opcode, and the chaos harness all read the same counters
and the same fixed-bucket latency distributions.

Design constraints:

* **Cheap when idle.** An owner's counter bump is a dict add in the
  bumping thread's own cell, summed only when read (see
  :class:`CounterSet`); a free-standing counter is a lock-protected
  integer add.
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
import weakref
from threading import get_ident
from bisect import bisect_left
from typing import Callable


class Counter:
    """A monotonically increasing integer.

    A counter that totals a counter-set family (``server.inserts``) is
    bumped through the owners' cells, not here: it reads as what retired
    owners left in ``_value`` plus the live owners' cells."""

    __slots__ = ("name", "_value", "_lock", "_family", "_field")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()
        self._family: _Family | None = None
        self._field = ""

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        family = self._family
        live = family.live(self._field) if family is not None else 0
        return self._value + live

    def reset(self) -> None:
        family = self._family
        live = family.live(self._field) if family is not None else 0
        with self._lock:
            self._value = -live


class _Family:
    """One counter-set prefix: its declared fields, its process totals
    and its owners' cells."""

    __slots__ = ("fields", "totals", "owners", "retired")

    def __init__(self, fields: tuple[str, ...], totals: dict[str, Counter]) -> None:
        self.fields = fields
        self.totals = totals
        #: ``id(owner)`` -> that owner's cells, one per thread, while it lives.
        self.owners: dict[int, dict[int, dict[str, int]]] = {}
        #: The cells of owners gone since the last :meth:`fold`.
        self.retired: list[dict[int, dict[str, int]]] = []
        for field, total in totals.items():
            total._family, total._field = self, field

    def live(self, field: str) -> int:
        self.fold()
        return sum(
            cells[field] for by_thread in list(self.owners.values())
            for cells in list(by_thread.values())
        )

    def fold(self) -> None:
        """Add the counts of owners gone into the totals.  An owner only
        hands its cells over (GIL-atomic dict and list operations: a
        finaliser must take no lock, since a collection can run it while
        this very code holds one)."""
        retired = self.retired
        while retired:
            try:
                by_thread = retired.pop()
            except IndexError:
                return
            for cells in by_thread.values():
                for field, n in cells.items():
                    total = self.totals[field]
                    with total._lock:
                        total._value += n


class CounterSet:
    """One owner's counters: a client core's, a server core's, a store's.

    Handed out by :meth:`MetricsRegistry.counter_set`.  A bump is a dict
    add in the calling thread's own cell — no lock, no shared write — and
    the owner reads its counts as plain attributes (``core.stats.retries``),
    each the sum of its threads' cells.  The process total ``prefix.field``
    is an ordinary registry :class:`Counter`, so it shows in every
    snapshot; it sums the live owners' cells when read, and an owner that
    goes away folds its counts into it, so the total outlives the owner.
    """

    __slots__ = ("_family", "_by_thread")

    def __init__(self, family: _Family):
        self._family = family
        #: Thread id -> ``{field: count}`` of every thread that has bumped
        #: this set.  A thread id reused after its thread ended takes over
        #: that cell: no two live threads ever share one.
        self._by_thread: dict[int, dict[str, int]] = {}
        family.owners[id(self)] = self._by_thread

    def inc(self, field: str, n: int = 1) -> None:
        try:
            self._by_thread[get_ident()][field] += n
        except KeyError:
            self._thread_cells()[field] += n

    def _thread_cells(self) -> dict[str, int]:
        ident = get_ident()
        cells = self._by_thread.get(ident)
        if cells is None:
            cells = self._by_thread[ident] = dict.fromkeys(self._family.fields, 0)
        return cells

    def owned_cells(self) -> dict[str, int]:
        """The cell of an owner whose bumps are serialized already (a store
        under its lock, an event loop on its thread): it bumps it in place,
        ``cells[field] += n``, with no call and no thread lookup.  Summed
        like a thread's cell, under key 0, which no thread id takes."""
        return self._by_thread.setdefault(0, dict.fromkeys(self._family.fields, 0))

    def count(self, field: str) -> int:
        return sum(cells[field] for cells in list(self._by_thread.values()))

    def __getattr__(self, field: str) -> int:
        if field not in self._family.fields:
            raise AttributeError(field)
        return self.count(field)

    def as_dict(self) -> dict[str, int]:
        return {field: self.count(field) for field in self._family.fields}

    def __del__(self) -> None:
        family = self._family
        family.owners.pop(id(self), None)
        family.retired.append(self._by_thread)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CounterSet({body})"


class Gauge:
    """A point-in-time value: either set explicitly or read from a
    provider callable at snapshot time (zero hot-path cost)."""

    __slots__ = ("name", "_value", "_provider", "_lock")

    def __init__(self, name: str, provider: Callable[[], float] | None = None):
        self.name = name
        self._value = 0.0
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
        return self._value

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

    __slots__ = ("name", "_counts", "_sum", "_min", "_max", "_lock", "__weakref__")

    BOUNDS: tuple[float, ...] = _build_bucket_bounds()

    def __init__(self, name: str):
        self.name = name
        self._counts = [0] * (len(self.BOUNDS) + 1)
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        index = bisect_left(self.BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def mean_s(self) -> float:
        count = self.count
        return self._sum / count if count else 0.0

    @property
    def max_s(self) -> float:
        return self._max

    @property
    def min_s(self) -> float:
        return self._min if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-bound estimate (seconds) of the p-th percentile."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            return _ladder_percentile(
                self._counts, sum(self._counts), p, self._min, self._max
            )

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total, mx, mn = sum(counts), self._sum, self._max, self._min
        return _ladder_snapshot(counts, count, total * 1e3, mn * 1e3, mx * 1e3)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.BOUNDS) + 1)
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
        #: Per counter-set prefix: the declared fields, totals and owners.
        self._sets: dict[str, _Family] = {}
        #: Histograms their owners keep (a client core's RTT history per
        #: node), shown merged per name in the snapshot.
        self._parts: dict[str, weakref.WeakSet[LatencyHistogram]] = {}
        self._lock = threading.Lock()

    # -- instrument access (get-or-create) ------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counter(name)
        return counter

    def _counter(self, name: str) -> Counter:  # holds-lock: _lock
        return self._counters.setdefault(name, Counter(name))

    def counter_set(self, prefix: str, fields: tuple[str, ...]) -> CounterSet:
        """A fresh :class:`CounterSet` for one owner of *prefix*.

        *fields* is where a prefix's counters are declared: the first
        call creates the ``prefix.field`` totals, and every later owner
        must name the same tuple.
        """
        family = self._sets.get(prefix)
        if family is None:
            with self._lock:
                family = self._sets.get(prefix)
                if family is None:
                    totals = {field: self._counter(f"{prefix}.{field}") for field in fields}
                    family = self._sets[prefix] = _Family(fields, totals)
        if family.fields != fields:
            raise ValueError(f"counter set {prefix!r} is declared as {family.fields}")
        family.fold()
        return CounterSet(family)

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

    def histogram_part(self, name: str) -> LatencyHistogram:
        """A fresh histogram for the caller to own and record into; the
        snapshot shows every live part of *name* merged into one
        distribution, so a sample is recorded once, not once per view.
        :meth:`reset` leaves parts alone: they are their owners' state."""
        histogram = LatencyHistogram(name)
        with self._lock:
            self._parts.setdefault(name, weakref.WeakSet()).add(histogram)
        return histogram

    def fold_retired(self) -> None:
        """Fold every gone counter-set owner's counts into its totals now."""
        for family in list(self._sets.values()):
            family.fold()

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
            parts = {name: list(owned) for name, owned in self._parts.items()}
        latency = {name: h.snapshot() for name, h in histograms.items() if h.count}
        for name, owned in parts.items():
            merged = [h.snapshot() for h in owned if h.count]
            if merged:
                if name in latency:
                    merged.append(latency[name])
                latency[name] = merge_latency_snapshots(merged)
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
            "latency": dict(sorted(latency.items())),
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
