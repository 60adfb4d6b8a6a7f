#!/usr/bin/env python3
"""Where a ledger workload's CPU time goes, function by function.

    python3 benchmarks/profile_ledger.py --workload tcp-batch64 --seconds 5
    python3 benchmarks/profile_ledger.py --workload tcp-point --opcodes

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

``--opcodes`` counts bytecodes instead of time: every thread runs under
``sys.settrace`` with ``f_trace_opcodes``, and the table gives bytecodes
per op — in total, per thread, per layer (:data:`LAYERS`) and per
function — over a fixed number of calls (``--ops``, after ``--warm-ops``
untraced ones) of a KV workload, or over ``--seconds`` worth of DES
rounds.  Unlike a timing, the count does not depend on the host, nor on
what was counted before it in the process: run twice, it reads the same,
so a change's cost in executed bytecode is known from one run.  It
depends on the Python version, so compare counts from one interpreter
only.  Work done inside C counts nothing: a big-int multiply over 256
keys, a ``struct`` unpack or a ``bytes.join`` is one bytecode however
much it does.  A change that moves work into C calls therefore states
its cost in µs (``timeit``, or the ledger) beside its bytecodes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import os
import platform
import pstats
import shutil
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(HERE, "ledger", "")
TOP = 40


class PerThread:
    """Runs every thread started while installed inside :meth:`watch`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread_run = threading.Thread.run

    def watch(self, run) -> None:
        raise NotImplementedError

    def install(self) -> None:
        watch, thread_run = self.watch, self._thread_run

        def run(thread: threading.Thread) -> None:
            watch(lambda: thread_run(thread))

        threading.Thread.run = run

    def uninstall(self) -> None:
        threading.Thread.run = self._thread_run


class ThreadProfiles(PerThread):
    """One profile per thread started while installed, plus the caller's."""

    def __init__(self) -> None:
        super().__init__()
        self.profiles: list[cProfile.Profile] = []

    def new(self) -> cProfile.Profile:
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        return profile

    def watch(self, run) -> None:
        profile = self.new()
        profile.enable()
        try:
            run()
        finally:
            profile.disable()

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


class ThreadOpcodes(PerThread):
    """Bytecodes executed and frames entered while counting, per thread
    and per code object.  Every thread started while installed, and the
    caller (:meth:`trace_caller`), runs under ``sys.settrace``; outside
    :meth:`start` / :meth:`stop` the tracer declines every frame."""

    def __init__(self) -> None:
        super().__init__()
        self.counting = False
        #: ``(thread name, {code: [calls, bytecodes]})`` per traced thread.
        self.tables: list[tuple[str, dict]] = []
        self._local: dict[int, object] = {}  # thread ident -> its frame tracer

    def _tracer(self):
        counts: dict = {}
        with self._lock:
            self.tables.append((threading.current_thread().name, counts))

        def local(frame, event, _arg):
            if event == "opcode":
                cell = counts.get(frame.f_code)
                if cell is None:
                    cell = counts[frame.f_code] = [0, 0]
                cell[1] += 1
            return local

        def on_call(frame, _event, _arg):
            if not self.counting:
                return None
            cell = counts.get(frame.f_code)
            if cell is None:
                cell = counts[frame.f_code] = [0, 0]
            cell[0] += 1
            frame.f_trace_opcodes = True
            return local

        self._local[threading.get_ident()] = local
        return on_call

    def watch(self, run) -> None:
        sys.settrace(self._tracer())
        try:
            run()
        finally:
            sys.settrace(None)

    def trace_caller(self) -> None:
        sys.settrace(self._tracer())

    def _set_running(self, tracer_of) -> None:
        """Point every running frame of a traced thread at its tracer
        (``None`` to stop): a loop already inside its ``while`` is counted
        from the next bytecode, not from its next call."""
        for ident, frame in sys._current_frames().items():
            tracer = tracer_of(ident)
            while frame is not None:
                frame.f_trace = tracer
                frame.f_trace_opcodes = tracer is not None
                frame = frame.f_back

    def start(self) -> None:
        with self._lock:
            for _name, counts in self.tables:
                counts.clear()
        self._set_running(self._local.get)
        self.counting = True

    def stop(self) -> None:
        self.counting = False
        self._set_running(lambda _ident: None)
        with self._lock:
            self.tables = [(name, dict(counts)) for name, counts in self.tables]


def _where(code) -> str:
    return f"{_path(code)}:{code.co_firstlineno}({code.co_qualname})"


def _path(code) -> str:
    path = code.co_filename
    for root in (os.path.join(ROOT, "src", ""), os.path.join(ROOT, "")):
        if path.startswith(root):
            return path[len(root):]
    return os.path.basename(path)


#: Layer of a function, by the longest matching prefix of its module path
#: (relative to ``src/``); ``<string>`` holds the methods ``dataclasses``
#: generates, nearly all of them the messages' ``__init__``.
LAYERS = (
    ("hash", ("repro/core/hashing.py",)),
    ("client engine", ("repro/core/client.py", "repro/core/loops.py",
                       "repro/net/transport.py", "repro/api.py")),
    ("server core", ("repro/core/server.py", "repro/core/partition.py",
                     "repro/core/membership.py")),
    ("store", ("repro/novoht/",)),
    ("codec and messages", ("repro/core/protocol.py", "repro/core/errors.py", "<string>")),
    ("net", ("repro/net/",)),
    ("obs", ("repro/obs/",)),
    ("sim", ("repro/sim/",)),
)


def layer_of(path: str) -> str:
    """The layer a module path (as :func:`_path` gives it) belongs to;
    ``other`` for the standard library and the rest of the program."""
    best, name = 0, "other"
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if path.startswith(prefix) and len(prefix) > best:
                best, name = len(prefix), layer
    return name


class OpcodeReport:
    """Bytecodes per op: in total, per thread and per function.  The
    ledger's own code (the closed loop, the model check) is left out."""

    def __init__(self, tables: list[tuple[str, dict]], ops: int, skip: set[str]) -> None:
        self.ops = ops
        self.threads: dict[str, int] = {}
        self.functions: dict[str, list[int]] = {}
        #: Own bytecodes per layer (:data:`LAYERS`), all threads.
        self.layers: dict[str, int] = dict.fromkeys([name for name, _ in LAYERS] + ["other"], 0)
        for name, counts in tables:
            if name in skip:
                continue
            program = {code: cell for code, cell in counts.items()
                       if not code.co_filename.startswith(LEDGER)}
            total = sum(cell[1] for cell in program.values())
            if not total:
                continue
            self.threads[name] = self.threads.get(name, 0) + total
            for code, (calls, bytecodes) in program.items():
                cell = self.functions.setdefault(_where(code), [0, 0])
                cell[0] += calls
                cell[1] += bytecodes
                self.layers[layer_of(_path(code))] += bytecodes

    @property
    def total(self) -> int:
        return sum(self.threads.values())

    def per_op(self) -> float:
        return self.total / self.ops

    def calls_per_op(self, function: str) -> float:
        """Calls per op of every function whose qualified name is *function*."""
        suffix = f"({function})"
        calls = sum(c for where, (c, _b) in self.functions.items() if where.endswith(suffix))
        return calls / self.ops

    def table(self, top: int) -> str:
        ops = self.ops
        lines = [f"{self.total / ops:10.1f}  bytecodes per op, all threads ({self.total} over {ops} ops)"]
        lines.append("")
        lines.append("  per thread         bytecodes/op")
        for name, n in sorted(self.threads.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<24} {n / ops:10.1f}")
        lines.append("")
        lines.append("  per layer          bytecodes/op")
        for name, n in self.layers.items():
            if n:
                lines.append(f"  {name:<24} {n / ops:10.1f}")
        lines.append("")
        lines.append(f"  top {top} functions by own bytecodes: bytecodes/op  calls/op  function")
        ranked = sorted(self.functions.items(), key=lambda kv: -kv[1][1])
        for where, (calls, bytecodes) in ranked[:top]:
            lines.append(f"  {bytecodes / ops:10.1f} {calls / ops:9.2f}  {where}")
        return "\n".join(lines) + "\n"


def count_opcodes(workload: str, *, seed: int = 1, ops: int = 400, warm_ops: int = 400,
                  seconds: float = 1.0, smoke: bool = False, work_dir: str) -> tuple[OpcodeReport, object]:
    """Build *workload* as the ledger does and count the bytecodes of
    *ops* calls per client after *warm_ops* untraced ones (a DES workload
    runs ``seconds`` worth of rounds instead), with the registry's timing
    spans off as in the ledger's untraced runs.  Returns the report and
    the counted segment."""
    sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), os.path.join(HERE, "ledger"))
                    if p not in sys.path]
    import workloads
    from harness import CpuRota
    from repro.obs import REGISTRY

    affinity = os.sched_getaffinity(0)
    spans_on = REGISTRY.enabled
    REGISTRY.disable()
    wl = workloads.WORKLOADS[workload](seed, seconds, smoke, work_dir, CpuRota())
    kv = isinstance(wl, workloads.KVWorkload)
    wl.generate()
    counter = ThreadOpcodes()
    counter.install()  # before set-up: the server threads start there
    try:
        env = wl.setup()
        try:
            if kv:
                # A closed loop that ends when the stream does: a fixed
                # number of calls, whatever the host's speed.
                streams = wl.streams
                wl.streams = [stream[:warm_ops] for stream in streams]
                warm = wl.segment(env, float("inf"))
                if warm.failed:
                    return OpcodeReport([], 1, set()), warm
                wl.streams = [stream[: warm_ops + ops] for stream in streams]
            wl.prepare(seconds)
            # Finalisers and folds owed by what ran before (an earlier
            # workload's torn-down cores) run now, not in the count.
            gc.collect()
            REGISTRY.fold_retired()
            gc.freeze()
            counter.trace_caller()
            counter.start()
            try:
                seg = wl.segment(env, float("inf") if kv else seconds)
            finally:
                counter.stop()
                sys.settrace(None)
        finally:
            wl.teardown(env)
            gc.unfreeze()
    finally:
        counter.uninstall()
        os.sched_setaffinity(0, affinity)  # CpuRota pinned the caller
        if spans_on:
            REGISTRY.enable()
    # A KV workload's caller only marks cuts while the client threads run.
    skip = {threading.current_thread().name} if kv else set()
    return OpcodeReport(counter.tables, seg.ops, skip), seg


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--smoke", action="store_true", help="the ledger's tiny sizes")
    parser.add_argument("--out-dir", default="profiles")
    parser.add_argument("--opcodes", action="store_true",
                        help="count bytecodes per op instead of profiling time "
                             "(work inside C calls is not counted)")
    parser.add_argument("--ops", type=int, default=400, help="--opcodes: calls counted per client")
    parser.add_argument("--warm-ops", type=int, default=400,
                        help="--opcodes: calls per client run untraced first")
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
    if args.opcodes:
        try:
            report, seg = count_opcodes(
                args.workload, seed=args.seed, ops=args.ops, warm_ops=args.warm_ops,
                seconds=args.seconds, smoke=args.smoke, work_dir=work_dir,
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        kv = issubclass(workloads.WORKLOADS[args.workload], workloads.KVWorkload)
        what = f"warm-ops={args.warm_ops} ops={args.ops}" if kv else f"seconds={args.seconds:g}"
        head = (
            f"# {args.workload}  seed={args.seed} {what}{' smoke' if args.smoke else ''}: "
            f"{seg.ops} ops counted, {seg.failed} failed, Python {platform.python_version()}\n"
        )
        path = os.path.join(args.out_dir, f"{args.workload}.opcodes.txt")
        with open(path, "w") as f:
            f.write(head + report.table(TOP))
        print(head + report.table(TOP) + f"# written to {path}")
        return 0 if seg.failed == 0 else 1
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
