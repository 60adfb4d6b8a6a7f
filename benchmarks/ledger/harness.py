"""Measurement plumbing shared by every ledger workload.

Nothing here knows about ZHT: a closed-loop driver that times calls and
checks each reply against a precomputed expectation, order statistics,
process accounting read from ``/proc`` (so forked shard workers are
counted while they are still alive), and the host fingerprint.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

#: Sample classes (latency is reported overall, for reads, for writes).
READ, WRITE, MIXED = 0, 1, 2

_TICK = os.sysconf("SC_CLK_TCK")


def allowed_cpus(limit: int = 4) -> list[int]:
    """The CPUs a run takes turns on: the highest *limit* it may use."""
    return sorted(os.sched_getaffinity(0))[-limit:]


class CpuRota:
    """Everything the run owns sits on ONE CPU at any instant; which CPU
    changes every :data:`LEG_CUTS` cuts of a timed section.

    One CPU, because on the 2-vCPU sandbox an unpinned client/server pair
    bounces between CPUs and pays a cross-CPU wakeup per message: the same
    cell reads ~9.5k ops/s pinned and ~3k unpinned.  Not always the same
    one, because each vCPU of this VM flips, independently and for
    seconds at a time, between three speeds (x1, x1.5, x3.2 slower: the
    host shares its cores with other VMs and reports no steal time).  A
    run that visits both has seen a clean second on one of them far more
    often than a run married to either.
    """

    def __init__(self) -> None:
        self.cpus = allowed_cpus()
        self.index = len(self.cpus) - 1  # CPU 0 takes most interrupts: start high
        os.sched_setaffinity(0, {self.cpu})

    @property
    def cpu(self) -> int:
        return self.cpus[self.index]

    def advance(self, child_pids: list[int]) -> None:
        """Move every thread of this process and of *child_pids* to the
        next CPU (threads and processes started later inherit it)."""
        if len(self.cpus) < 2:
            return
        self.index = (self.index + 1) % len(self.cpus)
        for pid in [os.getpid(), *child_pids]:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {self.cpu})
                except OSError:
                    pass  # the thread ended in between


@dataclass
class Segment:
    """What one timed section produced: a latency sample per call."""

    lat: list[float] = field(default_factory=list)  # seconds per sample
    kind: list[int] = field(default_factory=list)  # READ / WRITE / MIXED
    ends: list[float] = field(default_factory=list)  # perf_counter at completion
    counts: list[int] = field(default_factory=list)  # ops carried by the sample
    failed: int = 0
    wall_s: float = 0.0
    #: Time the client loops spent outside the calls they time: fetching
    #: the next op, comparing the reply (``harness.gen_us_per_op``).
    loop_s: float = 0.0
    notes: list[str] = field(default_factory=list)
    events: int = 0  # engine events processed (simulator only)
    #: (perf_counter, CPU seconds so far) at every cut boundary, the
    #: first at the start of the section.
    marks: list[tuple[float, float]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(self.counts)

    def extend(self, other: "Segment") -> None:
        self.lat += other.lat
        self.kind += other.kind
        self.ends += other.ends
        self.counts += other.counts
        self.failed += other.failed
        self.loop_s += other.loop_s
        self.notes += other.notes


#: What a call "returns" when it raises the store's key-not-found error:
#: a removed key answering NOT_FOUND is a correct reply, so the model
#: expects this value for it.
MISSING = "<key not found>"


def drive(
    methods: dict,
    stream: list,
    start: int,
    deadline: float,
    weight: int,
    miss: type[Exception],
    error: type[Exception],
):
    """Closed loop: issue ``stream[start:]`` one call at a time until
    *deadline* (a ``perf_counter`` value) or the stream runs out.

    A stream entry is ``(method_name, args, expected, kind)``; a call's
    reply is correct iff it equals *expected*.  A *miss* exception reads
    as :data:`MISSING`; any other *error* is kept as the reply, which no
    expectation equals.  Returns ``(segment, next_index)``.
    """
    pc = time.perf_counter
    lat: list[float] = []
    ends: list[float] = []
    failures: list[int] = []
    index = start
    stop = len(stream)
    t_begin = pc()
    while index < stop:
        name, args, expected, _kind = stream[index]
        call = methods[name]
        a = pc()
        try:
            got = call(*args)
        except miss:
            got = MISSING
        except error as exc:
            got = exc
        b = pc()
        lat.append(b - a)
        ends.append(b)
        if got != expected:
            failures.append(index)
        index += 1
        if b >= deadline:
            break
    t_end = pc()
    seg = Segment(
        lat=lat,
        kind=[entry[3] for entry in stream[start:index]],
        ends=ends,
        counts=[weight] * len(lat),
        wall_s=t_end - t_begin,
        loop_s=t_end - t_begin - sum(lat),
    )
    seg.failed = weight * len(failures)
    for i in failures[:5]:
        seg.notes.append(f"op #{i} {stream[i][0]}: reply differs from the model")
    return seg, index


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


#: Wall seconds per cut of a timed section.
CUT_S = 0.25
#: Cuts between two changes of CPU (see :class:`CpuRota`).
LEG_CUTS = 4
#: Where among a run's cuts, counted from the best, a reported value sits.
GOOD_QUANTILE = 0.25


@dataclass
class Cut:
    """One short stretch of a timed section, measured on its own."""

    index: int  # which cut of the section this is (stubs are dropped)
    t0: float
    ops: int
    wall_s: float
    cpu_s: float
    lat: list[float]  # sorted
    reads: list[float]  # sorted
    writes: list[float]  # sorted


def cuts_of(seg: Segment) -> list[Cut]:
    """Split a section at its marks; a sample belongs to the cut it
    completed in.  A cut with too few samples to rank is dropped."""
    order = sorted(range(len(seg.ends)), key=seg.ends.__getitem__)
    cuts: list[Cut] = []
    position = 0
    for index, ((t0, cpu0), (t1, cpu1)) in enumerate(zip(seg.marks, seg.marks[1:])):
        lat, reads, writes, ops = [], [], [], 0
        while position < len(order) and seg.ends[order[position]] <= t1:
            i = order[position]
            position += 1
            ops += seg.counts[i]
            lat.append(seg.lat[i])
            if seg.kind[i] == READ:
                reads.append(seg.lat[i])
            elif seg.kind[i] == WRITE:
                writes.append(seg.lat[i])
        if len(lat) >= 20 and reads and writes:
            cuts.append(Cut(index, t0, ops, t1 - t0, cpu1 - cpu0, sorted(lat), sorted(reads), sorted(writes)))
    return cuts


def good_cut(values: list[float], better: str = "lower") -> float:
    """The quartile of per-cut *values* on the good side: the rate a
    quarter of the cuts beat, the latency a quarter of them undercut.

    Interference from the host only ever slows a cut down, and on this
    sandbox it covers anything from none to most of a run, so the median
    cut moves by 20% between runs of one commit.  The very best cuts are
    no steadier: a rare fast state of the host (a few cuts in some runs,
    none in others) decides them.  On recorded runs the good-side
    quartile moved least, among best-1/3/6, the 10th/25th/40th/50th
    percentile and the densest cluster of cuts.
    """
    if not values:
        return 0.0
    ranked = sorted(values, reverse=better == "higher")
    return ranked[int(GOOD_QUANTILE * len(ranked))]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness test)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of another live process, all threads.  ``schedstat``
    counts nanoseconds; ``stat`` (10 ms ticks) is the fallback."""
    base = f"/proc/{pid}/task"
    try:
        total = 0
        for tid in os.listdir(base):
            with open(f"{base}/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        return total / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def _status_field(path: str, key: str) -> int:
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def _proc_vcsw(pid: int) -> int:
    # /proc/<pid>/status counts the main thread only; a shard worker's
    # event loop is a second thread, so add up the tasks.
    base = f"/proc/{pid}/task"
    return sum(
        _status_field(f"{base}/{tid}/status", "voluntary_ctxt_switches")
        for tid in os.listdir(base)
    )


def cpu_seconds(child_pids: list[int]) -> float:
    """User+sys CPU of this process plus the live children named
    (``RUSAGE_CHILDREN`` only covers children already reaped, which shard
    workers are not while they serve)."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in child_pids)


def voluntary_switches(child_pids: list[int]) -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
    return own + sum(_proc_vcsw(pid) for pid in child_pids)


def run_marked(
    threads: list[threading.Thread], child_pids: list[int], rota: CpuRota, on_cut=None
) -> list[tuple[float, float]]:
    """Start *threads* and, until they are done, note the clock and the
    CPU time used every :data:`CUT_S` seconds, moving to the next CPU
    every :data:`LEG_CUTS` marks (this thread only sleeps in between).
    ``on_cut(i)`` is called as cut *i* begins."""
    if on_cut:
        on_cut(0)
    marks = [(time.perf_counter(), cpu_seconds(child_pids))]
    for thread in threads:
        thread.start()
    while True:
        time.sleep(max(0.0, marks[-1][0] + CUT_S - time.perf_counter()))
        if not all(thread.is_alive() for thread in threads):
            break  # the stretch a client stopped in is not a full cut
        if len(marks) % LEG_CUTS == 0:
            rota.advance(child_pids)
        if on_cut:
            on_cut(len(marks))
        marks.append((time.perf_counter(), cpu_seconds(child_pids)))
    for thread in threads:
        thread.join()
    return marks


def peak_rss_mib(child_pids: list[int]) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        kib += _status_field(f"/proc/{pid}/status", "VmHWM")
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------


def filesystem_of(path: str) -> str:
    """``tmpfs`` / ``ext4`` / ... for the mount holding *path*."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                _dev, mount, kind = line.split()[:3]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def git_sha(root: str) -> str:
    """Commit of the checkout, or ``not-a-git-checkout`` (the acceptance
    driver runs from an exported tree)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "not-a-git-checkout"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(root: str, cpus: list[int], work_dir: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_visited_one_at_a_time": cpus,
        "python": sys.version.split()[0],
        "kernel": platform.release(),
        "work_dir_fs": filesystem_of(work_dir),
    }
