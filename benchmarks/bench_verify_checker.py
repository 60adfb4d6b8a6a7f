"""Consistency-checker throughput and history-recording overhead.

Two costs of the verification subsystem (:mod:`repro.verify`), measured
so the tooling itself stays cheap enough to run in CI:

* **Checker throughput**: events/s of :func:`~repro.verify.check_history`
  over synthesized valid concurrent histories
  (:func:`~repro.scenario.traffic.synthesize_history` — overlapping
  intervals, so the Wing&Gong search actually searches).  Acceptance: a 10k-op
  history checks in well under 10 s.
* **Recording overhead**: ns/op for a live local-cluster client with
  (a) the raw driver loop (no client wrapper), (b) the ``ZHT`` wrapper
  with recording disabled — the hook is one ``is None`` test, so this
  must track (a) — and (c) recording enabled (in-memory).

Run standalone for CI smoke mode::

    PYTHONPATH=src python benchmarks/bench_verify_checker.py --smoke
"""

import sys
import time

from _util import emit_json, fmt, fmt_int, print_table, scales

from repro import ZHTConfig, build_local_cluster
from repro.core.loops import OpClient
from repro.net.transport import drive
from repro.core.protocol import OpCode
from repro.scenario.traffic import synthesize_history
from repro.verify import HistoryRecorder, check_history

HISTORY_SIZES_SMALL = (1_000, 10_000)
HISTORY_SIZES_PAPER = (1_000, 10_000, 50_000)

CHECKER_HEADERS = ("events", "keys", "states", "elapsed s", "events/s")
OVERHEAD_HEADERS = ("client path", "ops", "ns/op", "ops/s")


def checker_series(sizes):
    """Check synthesized histories of increasing size; returns rows and
    the per-size elapsed seconds."""
    rows = []
    elapsed = {}
    for size in sizes:
        events, finals = synthesize_history(42, size, clients=8)
        t0 = time.perf_counter()
        report = check_history(events, final_values=finals)
        dt = time.perf_counter() - t0
        assert report.ok, f"synthesized history of {size} ops must pass"
        assert not report.inconclusive_keys
        elapsed[size] = dt
        rows.append(
            (
                fmt_int(len(events)),
                fmt_int(report.keys_checked),
                fmt_int(report.states_explored),
                fmt(dt),
                fmt_int(len(events) / dt),
            )
        )
    return rows, elapsed


def overhead_series(ops: int):
    """ns/op for raw driver vs recorder-off vs recorder-on lookups."""
    config = ZHTConfig(transport="local", num_partitions=64)
    rows = []
    ns_per_op = {}
    with build_local_cluster(3, config) as cluster:
        zht = cluster.client(recorder=None)
        zht.insert(b"bench-key", b"v" * 132)

        def timed(label, fn):
            fn()  # warm
            t0 = time.perf_counter()
            for _ in range(ops):
                fn()
            dt = time.perf_counter() - t0
            ns_per_op[label] = dt / ops * 1e9
            rows.append(
                (label, fmt_int(ops), fmt_int(dt / ops * 1e9), fmt_int(ops / dt))
            )

        core = zht.core
        transport = cluster.network
        raw = OpClient(core)

        def raw_driver():
            drive(raw.run(core.driver(OpCode.LOOKUP, b"bench-key", b"")), transport)

        timed("raw driver loop", raw_driver)
        timed("ZHT, recording off", lambda: zht.lookup(b"bench-key"))
        recording = cluster.client(recorder=HistoryRecorder(), client_id="b")
        timed("ZHT, recording on", lambda: recording.lookup(b"bench-key"))
    return rows, ns_per_op


def run(sizes, overhead_ops: int):
    checker_rows, elapsed = checker_series(sizes)
    print_table(
        "Consistency checker throughput (synthesized valid histories)",
        CHECKER_HEADERS,
        checker_rows,
        note="Wing&Gong per-key DFS + append multiset containment",
    )
    overhead_rows, ns_per_op = overhead_series(overhead_ops)
    print_table(
        "History recording overhead (local cluster, cached-key lookups)",
        OVERHEAD_HEADERS,
        overhead_rows,
        note="disabled hook is a single `is None` test per operation",
    )
    emit_json("verify_checker", CHECKER_HEADERS, checker_rows)
    emit_json("verify_recording_overhead", OVERHEAD_HEADERS, overhead_rows)
    return elapsed, ns_per_op


def check(elapsed, ns_per_op) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    big = max(elapsed)
    if big >= 10_000 and elapsed[big] > 10.0:
        failures.append(
            f"{big}-op history took {elapsed[big]:.1f}s to check (>10s)"
        )
    # Recording disabled must track the raw driver loop; 50% headroom
    # keeps this robust to CI noise (the real delta is a few percent).
    if ns_per_op["ZHT, recording off"] > 1.5 * ns_per_op["raw driver loop"]:
        failures.append(
            f"recording-off path {ns_per_op['ZHT, recording off']:,.0f} "
            f"ns/op vs raw driver {ns_per_op['raw driver loop']:,.0f} ns/op"
        )
    return failures


def test_verify_checker(benchmark):
    sizes = scales(small=HISTORY_SIZES_SMALL, paper=HISTORY_SIZES_PAPER)
    elapsed, ns_per_op = run(sizes, overhead_ops=2_000)
    assert not check(elapsed, ns_per_op)

    events, finals = synthesize_history(7, 2_000, clients=8)
    benchmark(lambda: check_history(events, final_values=finals))


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        elapsed, ns_per_op = run((1_000, 10_000), overhead_ops=500)
    else:
        elapsed, ns_per_op = run(
            scales(small=HISTORY_SIZES_SMALL, paper=HISTORY_SIZES_PAPER),
            overhead_ops=2_000,
        )
    problems = check(elapsed, ns_per_op)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        big = max(elapsed)
        print(
            f"OK: {big:,}-op history checked in {elapsed[big]:.2f}s; "
            f"recording off {ns_per_op['ZHT, recording off']:,.0f} ns/op "
            f"vs raw {ns_per_op['raw driver loop']:,.0f} ns/op, on "
            f"{ns_per_op['ZHT, recording on']:,.0f} ns/op"
        )
    sys.exit(1 if problems else 0)
