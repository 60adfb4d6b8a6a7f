#!/usr/bin/env python3
"""Where a ledger workload's CPU time goes, function by function.

    python3 benchmarks/profile_ledger.py --workload tcp-batch64 --seconds 5

Builds one ledger workload exactly as ``benchmarks/ledger/run.py`` does
(the workload classes are imported read-only), runs its stream for
``--seconds`` with one ``cProfile.Profile`` per thread — the profiler is
per-thread, and the servers run on event-loop threads of this process —
merges them and writes the top functions by own time to
``profiles/<workload>.txt``.  Profiles are cleared once set-up is over,
so preload and warm-up are not in the table.

cProfile charges every Python call and nothing inside C code, so the
table says *where to look*; whether a change paid off is read from the
ledger itself, with profiling off.  Servers in other processes (the
``sharded-read-2c`` shards) are not profiled: that table is the client.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import os
import pstats
import shutil
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOP = 40


class ThreadProfiles:
    """One profile per thread started while installed, plus the caller's."""

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._thread_run = threading.Thread.run

    def new(self) -> cProfile.Profile:
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        return profile

    def install(self) -> None:
        profiles, thread_run = self, self._thread_run

        def run(thread: threading.Thread) -> None:
            profile = profiles.new()
            profile.enable()
            try:
                thread_run(thread)
            finally:
                profile.disable()

        threading.Thread.run = run

    def uninstall(self) -> None:
        threading.Thread.run = self._thread_run

    def clear(self) -> None:
        with self._lock:
            for profile in self.profiles:
                profile.clear()

    def table(self, top: int) -> str:
        out = io.StringIO()
        with self._lock:
            profiles = list(self.profiles)
        stats = pstats.Stats(profiles[0], stream=out)
        for profile in profiles[1:]:
            stats.add(profile)
        stats.strip_dirs().sort_stats("tottime").print_stats(top)
        return out.getvalue()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--smoke", action="store_true", help="the ledger's tiny sizes")
    parser.add_argument("--out-dir", default="profiles")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(HERE, "ledger")]
    import workloads
    from harness import CpuRota

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = os.path.abspath(os.path.join(args.out_dir, f".work-{os.getpid()}"))
    os.makedirs(work_dir)
    profiles = ThreadProfiles()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.smoke, work_dir, CpuRota())
        wl.generate()
        profiles.install()  # before set-up: the server threads start there
        env = wl.setup()
        try:
            wl.prepare(args.seconds)
            gc.collect()
            gc.freeze()
            profiles.clear()
            own = profiles.new()  # the DES runs on this thread
            own.enable()
            try:
                seg = wl.segment(env, args.seconds)
            finally:
                own.disable()
        finally:
            wl.teardown(env)
            profiles.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    head = (
        f"# {wl.name}  seed={args.seed} seconds={args.seconds:g}{' smoke' if args.smoke else ''}: "
        f"{seg.ops} ops, {seg.failed} failed, {seg.ops / seg.wall_s:.0f} ops/s under cProfile, "
        f"{len(profiles.profiles)} threads merged; top {TOP} by own time\n"
    )
    path = os.path.join(args.out_dir, f"{wl.name}.txt")
    with open(path, "w") as f:
        f.write(head + profiles.table(TOP))
    print(head + f"# written to {path}")
    return 0 if seg.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
