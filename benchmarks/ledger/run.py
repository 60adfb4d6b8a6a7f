#!/usr/bin/env python3
"""The ledger benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/ledger/run.py --workload tcp-point --seed 1 --seconds 12 --trace 0
    python3 benchmarks/ledger/run.py --workload tcp-point --seed 1 --seconds 12 --trace 1
    python3 benchmarks/ledger/run.py --repeats 10 --out base.json      # every workload
    python3 benchmarks/ledger/run.py --smoke                           # quick self-check

With ``--workload`` this process *is* the measurement: it pins itself to
one CPU before importing anything heavy, generates the op stream from
the seed, sets the deployment up, runs the closed loop for ``--seconds``,
checks every reply, and prints the metrics followed by one JSON line.
Without ``--workload`` it runs every workload, each run in a fresh
pinned subprocess, round-robin over the workloads.  README.md has the
tables: what each workload is for, what each metric means, which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: Complete set-ups per run (fresh interpreter importing the program, then
#: a fresh deployment), each on the next CPU; setup_s is the fastest.
SETUP_REPEATS = 3
#: Shares of --seconds in the traced run: plain, spans in every other cut,
#: repo metrics on in every other cut (the rest goes to the isolated replays).
TRACE_SHARES = (0.25, 0.40, 0.20)


def load_manifest() -> dict:
    with open(MANIFEST) as f:
        return json.load(f)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, ~1 s timed: checks the harness, not the program")
    parser.add_argument("--repeats", type=int, default=3, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the collected results as JSON (all-workload mode)")
    parser.add_argument("--spans-out", help="write the traced run's spans as JSON lines")
    parser.add_argument("--selftest-corrupt", type=int, metavar="N",
                        help="corrupt the N-th lookup reply in flight; the run must then fail")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def corrupt_nth_lookup(zht, nth: int) -> None:
    """Self-test hook: flip a byte of the *nth* successful lookup reply
    between the transport and the client."""
    from repro.core.errors import Status
    from repro.core.protocol import OpCode

    inner = zht.transport.roundtrip
    seen = [0]

    def roundtrip(address, request, timeout):
        response = inner(address, request, timeout)
        if (
            response is not None
            and request.op == OpCode.LOOKUP
            and response.status == Status.OK
            and response.value
        ):
            seen[0] += 1
            if seen[0] == nth:
                response.value = bytes([response.value[0] ^ 0xFF]) + response.value[1:]
        return response

    zht.transport.roundtrip = roundtrip


def timings(cuts: list) -> dict:
    """Every timing of a timed section, taken per cut and reported as the
    good-side quartile of the cuts (see ``harness.good_cut`` for why)."""
    from harness import good_cut, percentile

    def low(pick) -> float:
        return good_cut([pick(cut) for cut in cuts]) * 1e6

    metrics = {
        "ops_per_s": good_cut([cut.ops / cut.wall_s for cut in cuts], "higher"),
        "lat_p50_us": low(lambda cut: percentile(cut.lat, 50)),
        "read_p50_us": low(lambda cut: percentile(cut.reads, 50)),
        "write_p50_us": low(lambda cut: percentile(cut.writes, 50)),
        "cpu_us_per_op": low(lambda cut: cut.cpu_s / cut.ops),
        # Tails: too few calls per cut, and too much of the host in them, to
        # hold a bound (spread 0.2-0.4 over ten runs); listed per layer.
        "lat_p99_us": low(lambda cut: percentile(cut.lat, 99)),
        "read_p99_us": low(lambda cut: percentile(cut.reads, 99)),
        "write_p99_us": low(lambda cut: percentile(cut.writes, 99)),
    }
    return metrics


def park_harness_objects() -> None:
    """Keep the collector off the harness's own data during timing.

    The pre-generated op stream and model are ~1M long-lived objects in
    the same process as the in-process servers; every full collection
    would walk them and stall the program for tens of milliseconds at a
    time the program did not choose.  ``gc.freeze`` moves everything
    alive now out of the collector's reach; objects the program makes
    from here on are collected as usual.
    """
    gc.collect()
    gc.freeze()


def fresh_import() -> None:
    """Start a new interpreter that imports the program and the workloads
    and exits: the part of set-up this process can only do once."""
    code = f"import sys; sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]; import workloads"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def run_untraced(wl, args) -> dict:
    from harness import cuts_of, peak_rss_mib

    repeats = 1 if args.smoke else SETUP_REPEATS
    setups, env, setup_failed = [], None, 0
    for i in range(repeats):
        t0 = time.perf_counter()
        fresh_import()
        env = wl.setup()
        setups.append(time.perf_counter() - t0)
        setup_failed += env.setup_failed
        if i < repeats - 1:
            wl.teardown(env)
            wl.rota.advance([])
    try:
        if args.selftest_corrupt:
            corrupt_nth_lookup(env.clients[0], args.selftest_corrupt)
        wl.prepare(args.seconds)
        park_harness_objects()
        seg = wl.segment(env, args.seconds)
        rss = peak_rss_mib(env.child_pids)
        verify_failed, notes = wl.verify(env)
    finally:
        wl.teardown(env)
    cuts = cuts_of(seg)
    metrics = timings(cuts)
    # Interference only ever adds to a set-up's time: the fastest of the
    # three is the program's, the others are the host's.
    metrics.update(setup_s=min(setups), rss_mb=rss)
    samples = {
        "cuts": len(cuts),
        "calls": len(seg.lat),
        "ops": seg.ops,
        "calls_per_cut": statistics.median(len(cut.lat) for cut in cuts) if cuts else 0,
        "whole_run_ops_per_s": seg.ops / seg.wall_s,
    }
    return {
        "metrics": metrics,
        "attempted": seg.ops,
        "failed": seg.failed + verify_failed + setup_failed,
        "notes": seg.notes + notes,
        "info": {"samples": samples, "setup_runs_s": setups, "timed_wall_s": seg.wall_s},
    }


def shard_snapshot(env) -> list[dict]:
    """Each shard worker's STATS snapshot ([] when servers are in-process)."""
    return env.cluster.servers[0].shard_stats() if env.child_pids else []


def _hist_delta_us(before: list[dict], after: list[dict], name: str) -> float:
    """Mean of the program's own histogram *name* between two snapshots."""
    total = count = 0.0
    for b, a in zip(before, after):
        hb, ha = b["latency"].get(name, {}), a["latency"].get(name, {})
        total += ha.get("sum_ms", 0.0) - hb.get("sum_ms", 0.0)
        count += ha.get("count", 0) - hb.get("count", 0)
    return total / count * 1e3 if count else 0.0


def written_bytes(stream: list, start: int, stop: int) -> int:
    total = 0
    for name, call_args, _expected, _kind in stream[start:stop]:
        if name == "insert_many":
            total += sum(len(k) + len(v) for k, v in call_args[0])
        elif name in ("insert", "append"):
            total += len(call_args[0]) + len(call_args[1])
    return total


def spans_of_good_cuts(spans: list[tuple], cuts: list) -> list[tuple]:
    """The spans of requests that began in a cut at least as fast as the
    good-side quartile: layer times are means, and a mean over a section
    that spent a third of its time in a slow state of the host says so."""
    from harness import good_cut

    if not cuts:
        return spans
    floor = good_cut([cut.ops / cut.wall_s for cut in cuts], "higher")
    windows = [(cut.t0, cut.t0 + cut.wall_s) for cut in cuts if cut.ops / cut.wall_s >= floor]
    began = {span[0]: span[4] for span in spans}  # span id -> start
    return [
        span for span in spans
        if any(t0 <= began.get(span[2], -1.0) < t1 for t0, t1 in windows)  # span[2]: root id
    ]


def live_layers(tracer, traced_cuts: list, shards: tuple[list, list], user_bytes: float, weight: int) -> dict:
    """Layer metrics from the spans of the traced section."""
    from spans import (CHECKPOINT, HANDLE, PEER_ROUNDTRIP, PLAN, PLAN_BATCH, ROOT as ROOT_SPAN,
                       ROUNDTRIP, WAL_APPEND, Summary)

    everything = Summary(tracer.spans())
    s = Summary(spans_of_good_cuts(tracer.spans(), traced_cuts))
    out = {}
    roots = s.count.get(ROOT_SPAN, 0)
    calls = max(1, roots)
    # Ops behind the kept spans (the DES has no client-side root span).
    ops = roots * weight or max(1, s.count.get(HANDLE, 0))
    if roots:
        out["client.unattributed_frac"] = s.self_time[ROOT_SPAN] / s.total[ROOT_SPAN]
        out["core.client.plan_us"] = s.self_time.get(PLAN, 0.0) / roots * 1e6
        out["core.client.plan_batch64_us"] = s.self_time.get(PLAN_BATCH, 0.0) / roots * 1e6
    trips = s.count.get(ROUNDTRIP, 0)
    out["net.tcp.roundtrip_us"] = s.mean_us(ROUNDTRIP)
    out["net.tcp.roundtrips_per_op"] = (trips + s.count.get(PEER_ROUNDTRIP, 0)) / calls
    out["core.server.replication_wait_us"] = s.mean_us(PEER_ROUNDTRIP)
    # Shard workers are other processes: their numbers are the program's
    # own histograms (STATS) over the same section.
    out["core.server.handle_us"] = s.mean_us(HANDLE) or _hist_delta_us(*shards, "server.handle")
    out["core.server.handle_self_us"] = s.mean_self_us(HANDLE)
    for op in ("put", "get", "append"):
        out[f"novoht.{op}_us"] = s.mean_self_us(f"novoht.{op}") or _hist_delta_us(
            *shards, f"novoht.{op}"
        )
    # One apply_batch per partition touched, so: per op over the section.
    out["novoht.apply_batch64_us_per_op"] = s.self_time.get("novoht.apply_batch", 0.0) / ops * 1e6
    out["novoht.wal.append_us"] = s.mean_us(WAL_APPEND)
    out["novoht.checkpoint.count"] = everything.count.get(CHECKPOINT, 0)
    out["novoht.checkpoint.total_s"] = everything.total.get(CHECKPOINT, 0.0)
    out["novoht.checkpoint.bytes_per_user_byte"] = tracer.checkpoint_bytes / max(1, user_bytes)
    if trips:
        # What is left of a round trip once the server core and the wait for
        # the replica are taken out (the codec legs come out in run_traced):
        # socket calls, event loop, mux reader thread, wakeups.
        served = s.total.get(HANDLE, 0.0) / trips * 1e6 or out["core.server.handle_us"]
        out["net.tcp.wire_loop_us"] = (
            out["net.tcp.roundtrip_us"] - served - s.total.get(PEER_ROUNDTRIP, 0.0) / trips * 1e6
        )
    if shards[1]:
        served = [
            a["counters"].get("tcp.server.requests", 0) - b["counters"].get("tcp.server.requests", 0)
            for b, a in zip(*shards)
        ]
        out["net.shard.load_imbalance"] = max(served) / max(1e-9, statistics.fmean(served))
    return out


def switched_on(cut_index: int) -> bool:
    """Whether the thing under test is on in this cut: every other cut,
    and the other way round in every other leg, because the first cut of a
    leg (just moved to another CPU) is a slow one and must not always fall
    to the same side."""
    from harness import LEG_CUTS

    return (cut_index + cut_index // LEG_CUTS) % 2 == 1


def overhead(seg) -> float:
    """Share of ops/s lost with the thing on: the median, over pairs of
    neighbouring cuts (one off, one on, a quarter of a second apart and on
    the same CPU), of what the on-cut lost against the off-cut.
    Neighbours share the host's state; cuts seconds apart need not."""
    from harness import cuts_of

    rate = {cut.index: cut.ops / cut.wall_s for cut in cuts_of(seg)}
    lost = []
    for first in range(0, max(rate, default=0) + 1, 2):
        if first in rate and first + 1 in rate:
            on, off = (first, first + 1) if switched_on(first) else (first + 1, first)
            lost.append(1.0 - rate[on] / rate[off])
    return statistics.median(lost) if lost else 0.0


def run_traced(wl, args, names: list[str]) -> dict:
    """Three timed sections on one deployment — plain, spans in every
    other cut, repo metrics on in every other cut — then the isolated
    replays."""
    import replay
    from harness import cuts_of, voluntary_switches
    from repro.obs import REGISTRY, disable_metrics, enable_metrics
    from repro.sim import predicted_latency_ms
    from spans import Tracer
    from workloads import KVWorkload

    live_kv = isinstance(wl, KVWorkload)
    out = dict.fromkeys(names, 0.0)
    base_s, traced_s, obs_s = (share * args.seconds for share in TRACE_SHARES)
    # Shard workers are forked during set-up and inherit the registry's
    # state: switching spans on first is the only way to get their
    # server-side histograms.  In-process servers are switched back off.
    enable_metrics()
    try:
        env = wl.setup()
    finally:
        disable_metrics()
    try:
        # 1. plain
        wl.prepare(base_s)
        park_harness_objects()
        before = voluntary_switches(env.child_pids)
        base = wl.segment(env, base_s)
        after = voluntary_switches(env.child_pids)
        out["harness.vcsw_per_op"] = (after - before) / max(1, base.ops)
        out["harness.gen_us_per_op"] = base.loop_s / max(1, base.ops) * 1e6
        base_timings = timings(cuts_of(base))
        out.update({name: base_timings[name] for name in ("lat_p99_us", "read_p99_us", "write_p99_us")})

        # 2. spans recorded in every other cut; the cuts in between are the
        # baseline the overhead is taken against, seconds apart not minutes
        wl.prepare(traced_s)
        tracer = Tracer(capture_at_handle=not live_kv)
        start = list(wl.position) if live_kv else []
        fsyncs = REGISTRY.counter("wal.fsyncs").value
        shards_before = shard_snapshot(env)
        tracer.install()
        try:
            traced = wl.segment(env, traced_s, lambda i: setattr(tracer, "enabled", switched_on(i)))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        shards = (shards_before, shard_snapshot(env))
        fsyncs = REGISTRY.counter("wal.fsyncs").value - fsyncs
        traced_cuts = [cut for cut in cuts_of(traced) if switched_on(cut.index)]
        out["harness.trace_overhead_frac"] = overhead(traced)
        if args.spans_out:
            tracer.write(args.spans_out)

        # 3. the repo's own spans on in every other cut (ROADMAP budget: <= 5%)
        wl.prepare(obs_s)
        try:
            obs = wl.segment(
                env, obs_s, lambda i: (enable_metrics if switched_on(i) else disable_metrics)()
            )
        finally:
            disable_metrics()
        out["obs.enabled_overhead_frac"] = overhead(obs)

        sections = (base, traced, obs)
        user_bytes = 0
        if live_kv:
            # Checkpoints are only seen in the cuts that record spans.
            seen = sum(c.wall_s for c in traced_cuts) / sum(c.wall_s for c in cuts_of(traced))
            user_bytes = seen * sum(
                written_bytes(stream, a, b) for stream, a, b in zip(wl.streams, start, wl.position)
            )
        out.update(live_layers(tracer, traced_cuts, shards, user_bytes, wl.weight))
        out["novoht.wal.fsyncs_per_op"] = fsyncs / max(1, traced.ops)
        # Isolated replays of what the traced cuts carried.
        captured = tracer.captured
        out["core.protocol.wire_bytes_per_op"] = replay.wire_bytes_per_op(captured, wl.weight)
        out["novoht.wal.bytes_per_user_byte"] = replay.wal_bytes_per_user_byte(captured, args.work_dir)
        tasks = replay.codec_tasks(captured)
        if live_kv:
            tasks += [replay.hashing_task(list(wl.initial), env.config), replay.ping_task(env.clients[0])]
        else:
            keys = [req.key for req, _resp in captured if req.key]
            tasks.append(replay.hashing_task(keys, env.config))
        with replay.fsync_task(captured, args.work_dir) as fsync:
            out.update(replay.measure(tasks + [fsync], wl.rota, env.child_pids))
        if live_kv:
            out["net.tcp.wire_loop_us"] -= sum(
                out[f"core.protocol.{leg}_us"]
                for leg in ("encode_request", "decode_request", "encode_response", "decode_response")
            )
            stats = [zht.core.stats for zht in env.clients]
            total_calls = max(1, sum(len(seg.lat) for seg in sections))
            out["core.client.retries_per_op"] = sum(st.retries for st in stats) / total_calls
            out["core.client.redirects_per_op"] = sum(st.redirects_followed for st in stats) / total_calls
            if shards[1]:
                out["net.shard.spawn_s"] = env.spawn_s
        else:
            predicted = predicted_latency_ms(wl.nodes)
            out["sim.engine.events_per_s"] = base.events / base.wall_s
            out["sim.analytic.model_err_frac"] = abs(wl.sim_latency_ms - predicted) / predicted
        verify_failed, verify_notes = wl.verify(env)
    finally:
        wl.teardown(env)
    if live_kv:
        out["net.local.roundtrip_us"] = replay.local_roundtrip(wl, args.work_dir)
    return {
        "metrics": out,
        "attempted": sum(seg.ops for seg in sections),
        "failed": env.setup_failed + sum(seg.failed for seg in sections) + verify_failed,
        "notes": [note for seg in sections for note in seg.notes] + verify_notes,
        "info": {"spans": len(tracer.spans()), "captured": len(tracer.captured)},
    }


def run_one(args) -> int:
    from harness import CpuRota, fingerprint

    rota = CpuRota()
    manifest = load_manifest()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(manifest["run_seconds"])
    args.work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(args.work_dir)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}
    try:
        wl = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, args.smoke, args.work_dir, rota
        )
        t0 = time.perf_counter()
        wl.generate()
        generate_s = time.perf_counter() - t0
        result = run_traced(wl, args, list(units)) if args.trace else run_untraced(wl, args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(args.work_dir))
        except OSError:
            pass  # another run's directory is still there

    host = fingerprint(ROOT, rota.cpus, HERE)
    print(f"# {wl.name}  seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"# why: {wl.why}")
    print(f"# host: {json.dumps(host, sort_keys=True)}")
    print(f"# ZHTConfig overrides: {json.dumps(wl.overrides, sort_keys=True)}")
    print(f"# op stream generated in {generate_s:.2f} s before timing; {json.dumps(result['info'])}")
    for name, unit in units.items():
        print(f"{name:42s} {result['metrics'][name]:16.4f} {unit}")
    for name in sorted(set(result["metrics"]) - set(units)):
        print(f"{name:42s} {result['metrics'][name]:16.4f} us       (not bounded: a per-layer metric)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':42s} {failed / max(1, attempted):16.6f} ratio   ({failed} of {attempted})")
    for note in result["notes"]:
        print(f"! {note}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload, each run in its own process
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines if line.startswith("!")]
    return result


def run_all(args) -> int:
    from harness import allowed_cpus, fingerprint, spread

    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    repeats = 1 if args.smoke else args.repeats
    runs: dict = {name: {} for name in names}
    layers: dict = {}
    failed = attempted = 0
    # Round-robin (A B C D E A B ...): a noisy minute is shared by every
    # workload's row instead of being charged to one.
    for r in range(repeats):
        for name in names:
            result = run_child(name, args.seed + r, args, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, cell in result["metrics"].items():
                runs[name].setdefault(metric, []).append(cell["value"])
            print(f"[{r + 1}/{repeats}] {name}: " + "  ".join(
                f"{metric}={cell['value']:.4g}" for metric, cell in result["metrics"].items()
            ) + "".join(f"\n    {note}" for note in result["notes"]), flush=True)
    if args.trace:
        for name in names:
            result = run_child(name, args.seed, args, 1)
            failed += result["failed"]
            attempted += result["attempted"]
            layers[name] = {metric: cell["value"] for metric, cell in result["metrics"].items()}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    print()
    for name in names:
        print(f"== {name}: median of {repeats} run(s) (spread = IQR / median)")
        for metric, values in runs[name].items():
            print(f"{metric:42s} {statistics.median(values):16.4f} {units[metric]:8s}"
                  f" spread {spread(values):.3f}")
        for metric, value in layers.get(name, {}).items():
            print(f"{metric:42s} {value:16.4f} {units[metric]}")
    print(f"failed_frac {failed / max(1, attempted):.6f} ({failed} of {attempted})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "host": fingerprint(ROOT, allowed_cpus(), HERE),
                "seed": args.seed,
                "seconds": args.seconds if args.seconds is not None else manifest["run_seconds"],
                "smoke": args.smoke,
                "failed": failed,
                "attempted": attempted,
                "runs": runs,
                "per_layer": layers,
            }, f, indent=1, sort_keys=True)
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
