"""Per-partition load accounting (Zipf hot-key observability).

Under uniform keys every partition of an instance sees roughly the same
request rate; under Zipf skew one partition absorbs the hot keys and the
paper's flat load assumption breaks.  :class:`PartitionLoadTracker`
counts client requests per partition so the STATS opcode can report
*where* the load lands, as a rate and as an imbalance ratio — the
signals the hot-key mitigations (replica read spreading, client caches)
are meant to flatten.

The serving hot path pays one dict add per group of requests, in the
calling thread's own counts: no lock, no shared write.  A snapshot sums
the threads' counts and subtracts the totals of the last reset.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class PartitionLoadTracker:
    """Counts requests per partition over a sampling window.

    The window is whatever elapsed since construction or the last
    ``snapshot(reset=True)``; rates are counts divided by that span.
    The clock is injectable so tests (and the simulator) can drive it
    deterministically.  Each thread counts into a dict of its own, so
    :meth:`record` takes no lock.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Every recording thread's ``{pid: count}``: a snapshot sums them.
        self._threads: list[dict[int, int]] = []
        #: The sums at the last reset: a window is what was added since.
        self._base: dict[int, int] = {}
        self._window_start = clock()

    def record(self, pid: int, n: int = 1) -> None:
        """Count *n* requests against partition *pid*."""
        try:
            counts = self._local.counts
        except AttributeError:
            counts = self._local.counts = {}
            with self._lock:
                self._threads.append(counts)
        counts[pid] = counts.get(pid, 0) + n

    def snapshot(self, *, reset: bool = False, top: int = 8) -> dict:
        """JSON-serializable view of the current window.

        ``imbalance_ratio`` is max/mean over partitions that saw any
        traffic: 1.0 means perfectly flat, N means the hottest partition
        carries N× its fair share *of the active set*.  (Idle partitions
        are excluded so an instance serving one key does not look
        infinitely imbalanced just because its other partitions are
        empty.)  ``hottest`` lists the ``top`` busiest partitions as
        ``[pid, count]`` pairs, busiest first.
        """
        now = self._clock()
        with self._lock:
            totals: dict[int, int] = {}
            for thread_counts in self._threads:
                # One C call copies it, so its owner's adds never tear it.
                for pid, n in thread_counts.copy().items():
                    totals[pid] = totals.get(pid, 0) + n
            base = self._base
            counts = {pid: n - base.get(pid, 0) for pid, n in totals.items() if n != base.get(pid)}
            window_s = max(now - self._window_start, 0.0)
            if reset:
                self._base = totals
                self._window_start = now
        total = sum(counts.values())
        active = [c for c in counts.values() if c > 0]
        if active:
            imbalance = max(active) / (total / len(active))
        else:
            imbalance = 1.0
        hottest = sorted(counts.items(), key=lambda kv: -kv[1])[:top]
        return {
            "window_s": window_s,
            "total_requests": total,
            "active_partitions": len(active),
            "requests_per_s": total / window_s if window_s > 0 else 0.0,
            "imbalance_ratio": imbalance,
            "hottest": [[pid, count] for pid, count in hottest],
        }
