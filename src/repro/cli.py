"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run a small live cluster through the core feature set.
* ``simulate``  — run the calibrated DES at a chosen scale/system.
* ``predict``   — evaluate the closed-form scale model (Figure 11).
* ``sockets``   — start a real TCP deployment on loopback and benchmark it.
* ``stats``     — dump a JSON metrics snapshot (counters + latency
  percentiles) from a live cluster via the ``STATS`` opcode.
* ``chaos``     — kill a node mid-workload under a seeded fault plan and
  verify failover, re-replication, and acked-write durability.
* ``verify``    — record a concurrent workload's operation history
  through a crash/recovery and check it for linearizability and bounded
  staleness (or re-check a saved history with ``--check``).
* ``scenario``  — run named failure scenarios from the library (one
  validated config = topology + workload + faults + checks + gates)
  and emit machine-readable verdict JSON; also ``list``/``validate``.
* ``lint``      — repo-aware static analysis (blocking under lock,
  protocol exhaustiveness, event loop, fork safety, resource lifetime);
  exit 1 on any unsuppressed finding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import ZHTConfig, build_local_cluster

    config = ZHTConfig(
        transport="local",
        num_partitions=args.partitions,
        num_replicas=args.replicas,
        request_timeout=0.01,
        failures_before_dead=2,
        max_retries=10,
    )
    with build_local_cluster(args.nodes, config) as cluster:
        zht = cluster.client()
        start = time.perf_counter()
        for i in range(args.ops):
            zht.insert(f"demo-{i}", b"v" * 132)
        for i in range(args.ops):
            zht.lookup(f"demo-{i}")
        for i in range(args.ops):
            zht.remove(f"demo-{i}")
        elapsed = time.perf_counter() - start
        total = 3 * args.ops
        print(
            f"{args.nodes}-node cluster, {total} ops: "
            f"{elapsed / total * 1e3:.3f} ms/op, {total / elapsed:,.0f} ops/s"
        )
        print(f"client stats: {zht.stats}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import (
        CASSANDRA_CLUSTER,
        CLUSTER_ETHERNET_LINK,
        MEMCACHED_BGP,
        MEMCACHED_CLUSTER,
        ZHT_BGP,
        ZHT_CLUSTER,
        simulate,
    )

    systems = {
        ("zht", "torus"): (ZHT_BGP, True),
        ("memcached", "torus"): (MEMCACHED_BGP, False),
        ("zht", "switch"): (ZHT_CLUSTER, True),
        ("memcached", "switch"): (MEMCACHED_CLUSTER, False),
        ("cassandra", "switch"): (CASSANDRA_CLUSTER, False),
    }
    key = (args.system, args.topology)
    if key not in systems:
        print(
            f"error: {args.system} is not modeled on the {args.topology} "
            "testbed (cassandra is cluster-only)",
            file=sys.stderr,
        )
        return 2
    service, real_core = systems[key]
    link = (
        CLUSTER_ETHERNET_LINK if args.topology == "switch" else None
    )
    kwargs = dict(
        ops_per_client=args.ops,
        service=service,
        topology=args.topology,
        real_core=real_core,
        num_replicas=args.replicas,
        instances_per_node=args.instances,
        seed=args.seed,
    )
    if link is not None:
        kwargs["link"] = link
    result = simulate(args.nodes, **kwargs)
    row = result.row()
    for field, value in row.items():
        print(f"{field:>20}: {value}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .sim import (
        predicted_efficiency,
        predicted_latency_ms,
        predicted_throughput_ops_s,
    )

    print(f"{'nodes':>10}  {'latency ms':>10}  {'efficiency':>10}  {'ops/s':>16}")
    for n in args.nodes:
        print(
            f"{n:>10,}  {predicted_latency_ms(n):>10.3f}  "
            f"{predicted_efficiency(n) * 100:>9.1f}%  "
            f"{predicted_throughput_ops_s(n):>16,.0f}"
        )
    return 0


def _cmd_sockets(args: argparse.Namespace) -> int:
    from .api import LiveCluster
    from .core import ZHTConfig
    from .scenario.cluster import build_cluster

    config = ZHTConfig(
        transport=args.transport,
        num_partitions=args.partitions,
        connection_cache_size=0 if args.no_cache else 128,
        request_timeout=1.0,
    )
    cluster = build_cluster(args.transport, args.nodes, config, seed=0)
    assert isinstance(cluster, LiveCluster)
    with cluster:
        zht = cluster.client()
        zht.insert("warmup", b"x")
        start = time.perf_counter()
        for i in range(args.ops):
            zht.insert(f"sock-{i}", b"v" * 132)
        elapsed = time.perf_counter() - start
        print(
            f"{args.transport.upper()} x {args.nodes} servers: "
            f"{args.ops / elapsed:,.0f} ops/s "
            f"({elapsed / args.ops * 1e3:.3f} ms/op)"
        )
    return 0


def _query_stats(transport, address, timeout: float) -> dict | None:
    """Fetch one server's metrics snapshot via the STATS opcode."""
    from .core.errors import Status
    from .core.protocol import OpCode, Request

    response = transport.roundtrip(
        address, Request(op=OpCode.STATS, request_id=1), timeout
    )
    if response is None or response.status != Status.OK:
        return None
    try:
        return json.loads(response.value)
    except (ValueError, UnicodeDecodeError):
        return None


def _cmd_stats(args: argparse.Namespace) -> int:
    from .core import ZHTConfig
    from .core.membership import Address
    from .obs import enable_metrics

    if args.address:
        # Query already-running servers over the wire.  With
        # ``--aggregate`` (or several comma-separated addresses — e.g.
        # one per shard of a multi-core node) the snapshots are merged
        # into one node view: counters summed, latency histograms
        # bucket-merged so p50/p90/p99 stay meaningful.
        from .net.tcp import MultiplexedTCPClient
        from .net.udp import UDPClient

        addresses = []
        for spec in args.address.split(","):
            host, _, port = spec.strip().rpartition(":")
            addresses.append(Address(host or "127.0.0.1", int(port)))
        transport = {"tcp": MultiplexedTCPClient, "udp": UDPClient}[args.transport]()
        snapshots = []
        try:
            for address in addresses:
                snapshot = _query_stats(transport, address, args.timeout)
                if snapshot is None:
                    print(
                        f"error: no STATS response from {address}",
                        file=sys.stderr,
                    )
                    return 1
                snapshots.append(snapshot)
        finally:
            transport.close()
        if args.aggregate or len(snapshots) > 1:
            from .obs import merge_stats_snapshots

            merged = merge_stats_snapshots(snapshots)
            print(json.dumps(merged, indent=2, sort_keys=True))
        else:
            print(json.dumps(snapshots[0], indent=2, sort_keys=True))
        return 0

    # Self-contained mode: start a live TCP cluster, run a short
    # workload with spans enabled, then pull the snapshot off the wire.
    from .api import LiveCluster
    from .scenario.cluster import build_cluster

    enable_metrics()
    config = ZHTConfig(
        transport=args.transport,
        num_partitions=args.partitions,
        request_timeout=1.0,
    )
    cluster = build_cluster(args.transport, args.nodes, config, seed=0)
    assert isinstance(cluster, LiveCluster)
    with cluster:
        zht = cluster.client()
        for i in range(args.ops):
            zht.insert(f"stats-{i}", b"v" * 132)
        for i in range(args.ops):
            zht.lookup(f"stats-{i}")
        addresses = [core.info.address for core in cluster.cores]
        snapshot = _query_stats(zht.transport, addresses[0], args.timeout)
        if snapshot is None:
            print("error: no STATS response from cluster", file=sys.stderr)
            return 1
        # All loopback servers share one process registry; the per-server
        # query adds each instance's scoped counters.
        snapshot["instances"] = []
        for address in addresses:
            per_server = _query_stats(zht.transport, address, args.timeout)
            if per_server is not None:
                snapshot["instances"].append(per_server["instance"])
        snapshot.pop("instance", None)
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FaultPlan, run_chaos

    if args.stats_json:
        from .obs import enable_metrics

        enable_metrics()

    plan = args.plan
    if plan is None and (args.drop or args.delay or args.duplicate):
        plan = FaultPlan.message_chaos(
            args.seed,
            drop=args.drop,
            delay=args.delay,
            delay_seconds=args.delay_seconds,
            duplicate=args.duplicate,
        )
    try:
        verdict = run_chaos(
            args.backend,
            nodes=args.nodes,
            replicas=args.replicas,
            ops=args.ops,
            seed=args.seed,
            plan=plan,
            detector=args.detector,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in verdict.summary_lines():
        print(line)
    if args.stats_json:
        from .obs import metrics_snapshot

        with open(args.stats_json, "w") as f:
            json.dump(metrics_snapshot(), f, indent=2, sort_keys=True)
        print(f"metrics snapshot written to {args.stats_json}")
    # Message-level chaos makes mutations at-least-once (a retried write
    # can double-apply; a dropped one-way replica update is not resent),
    # so full convergence is unattainable under arbitrary drops — gate
    # the exit code on the durability invariant alone when asked.
    if args.durability_only:
        ok = verdict.error is None and verdict.check("durability").status == "pass"
    else:
        ok = verdict.ok
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        check_history,
        final_values_from_history,
        load_history,
        run_verify,
    )

    if args.check:
        # Offline mode: re-check a previously recorded JSONL artifact
        # (e.g. one uploaded by CI from a failing run).  The artifact is
        # self-contained: the runner's final read-back events pin each
        # append key's quiesced value.
        try:
            events = load_history(args.check)
        except OSError as exc:
            print(f"error: cannot read history: {exc}", file=sys.stderr)
            return 2
        report = check_history(
            events,
            final_values=final_values_from_history(events),
            staleness_bound=args.bound,
            strict_append_once=False,
        )
        print(f"loaded {len(events)} events from {args.check}")
        for line in report.summary_lines():
            print(line)
        return 0 if report.ok else 1

    try:
        verdict = run_verify(
            args.backend,
            ops=args.ops,
            seed=args.seed,
            clients=args.clients,
            nodes=args.nodes,
            replicas=args.replicas,
            chaos=not args.no_chaos,
            mutation=args.mutation,
            history_path=args.history,
            staleness_bound=args.bound,
            hot_cache=args.hot_cache,
            plan=None if args.plan == "none" else args.plan,
            shards=args.shards,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in verdict.summary_lines():
        print(line)
    if args.history:
        print(f"history artifact: {args.history}")
    return 0 if verdict.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import ScenarioError
    from .scenario.library import library_names, load_scenario

    try:
        if args.action == "list":
            for name in library_names():
                scenario = load_scenario(name)
                tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
                print(f"{name:28s} backends={','.join(scenario.backends)}{tags}")
                print(f"{'':28s} {scenario.description}")
            return 0

        names = list(args.names)
        if getattr(args, "all", False):
            names = library_names()
        if not names:
            print(
                "error: give scenario names (or --all); "
                "see `repro scenario list`",
                file=sys.stderr,
            )
            return 2
        scenarios = [load_scenario(name) for name in names]

        if args.action == "validate":
            for scenario in scenarios:
                scenario.validate()
                print(f"{scenario.name}: OK")
            return 0

        from .scenario import run_scenario

        if args.all and args.backend:  # the library scenarios declaring it
            declared = [s for s in scenarios if args.backend in s.backends]
            skipped = len(scenarios) - len(declared)
            print(f"skipped {skipped} scenario(s) not declaring {args.backend!r}")
            if not declared:
                raise ScenarioError("backend", "no library scenario declares it")
            scenarios = declared

        verdicts = []
        for scenario in scenarios:
            verdict = run_scenario(
                scenario,
                backend=args.backend,
                seed=args.seed,
                ops_per_client=args.ops,
            )
            verdicts.append(verdict)
            for line in verdict.summary_lines():
                print(line)
            print()
        if args.json:
            payload = (
                verdicts[0].to_dict()
                if len(verdicts) == 1
                else [v.to_dict() for v in verdicts]
            )
            with open(args.json, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
            print(f"verdict JSON written to {args.json}")
        if args.json_dir:
            os.makedirs(args.json_dir, exist_ok=True)
            for verdict in verdicts:
                path = os.path.join(
                    args.json_dir,
                    f"{verdict.scenario}-{verdict.backend}.json",
                )
                with open(path, "w") as f:
                    json.dump(verdict.to_dict(), f, indent=2, sort_keys=True)
            print(f"{len(verdicts)} verdict file(s) written to {args.json_dir}")
        failed = [v for v in verdicts if not v.ok]
        print(
            f"{len(verdicts) - len(failed)}/{len(verdicts)} scenario(s) passed"
        )
        return 1 if failed else 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import CHECKERS, run_lint

    if args.checker:
        unknown = [c for c in args.checker if c not in CHECKERS]
        # Touch the registry before validating: checkers register on
        # first run, so run_lint must see the selection as given.
        if unknown:
            print(
                f"error: unknown checker(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(CHECKERS))}",
                file=sys.stderr,
            )
            return 2
    report = run_lint(args.root, checkers=args.checker or None)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    for finding in report.active:
        print(finding.render())
    if args.verbose:
        for finding in report.suppressed:
            print(f"suppressed: {finding.render()}")
            print(f"  reason: {finding.suppressed_by}")
        for name in sorted(report.timings, key=report.timings.get, reverse=True):
            print(f"timing: {name} {report.timings[name]:.3f}s")
    for supp in report.unused_suppressions:
        print(f"warning: stale suppression matched nothing: {supp.describe()}")
    summary = (
        f"{len(report.active)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    if report.errors:
        print(f"lint: configuration errors; {summary}", file=sys.stderr)
        return 2
    if args.max_seconds is not None and report.total_seconds > args.max_seconds:
        print(
            f"lint: FAIL — took {report.total_seconds:.2f}s "
            f"(budget {args.max_seconds:.2f}s); {summary}",
            file=sys.stderr,
        )
        return 1
    if report.active:
        print(f"lint: FAIL — {summary}", file=sys.stderr)
        return 1
    print(f"lint: OK — {summary} ({report.total_seconds:.2f}s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZHT (IPDPS 2013) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a live in-process cluster")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--ops", type=int, default=1000)
    demo.add_argument("--partitions", type=int, default=128)
    demo.add_argument("--replicas", type=int, default=0)
    demo.set_defaults(fn=_cmd_demo)

    sim = sub.add_parser("simulate", help="run the calibrated DES")
    sim.add_argument("--nodes", type=int, default=64)
    sim.add_argument("--ops", type=int, default=16)
    sim.add_argument(
        "--system",
        choices=("zht", "memcached", "cassandra"),
        default="zht",
    )
    sim.add_argument("--topology", choices=("torus", "switch"), default="torus")
    sim.add_argument("--replicas", type=int, default=0)
    sim.add_argument("--instances", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(fn=_cmd_simulate)

    predict = sub.add_parser("predict", help="closed-form scale model")
    predict.add_argument(
        "nodes",
        type=int,
        nargs="*",
        default=[2, 64, 1024, 8192, 65536, 1048576],
    )
    predict.set_defaults(fn=_cmd_predict)

    sockets = sub.add_parser("sockets", help="benchmark real sockets")
    sockets.add_argument("--transport", choices=("tcp", "udp"), default="tcp")
    sockets.add_argument("--nodes", type=int, default=3)
    sockets.add_argument("--ops", type=int, default=500)
    sockets.add_argument("--partitions", type=int, default=64)
    sockets.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the TCP connection cache",
    )
    sockets.set_defaults(fn=_cmd_sockets)

    stats = sub.add_parser(
        "stats",
        help="dump a JSON metrics snapshot via the STATS opcode (query a "
        "running server with --address, or spin up a loopback cluster)",
    )
    stats.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="query an already-running server instead of starting a "
        "cluster; accepts a comma-separated list (e.g. the per-shard "
        "ports of one multi-core node)",
    )
    stats.add_argument(
        "--aggregate",
        action="store_true",
        help="merge the queried snapshots into one node view (counters "
        "summed, latency histograms bucket-merged; implied when more "
        "than one address is given)",
    )
    stats.add_argument("--transport", choices=("tcp", "udp"), default="tcp")
    stats.add_argument("--nodes", type=int, default=3)
    stats.add_argument("--ops", type=int, default=50)
    stats.add_argument("--partitions", type=int, default=64)
    stats.add_argument("--timeout", type=float, default=2.0)
    stats.set_defaults(fn=_cmd_stats)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: kill a node mid-workload and verify "
        "failover + re-replication (exit 1 on invariant violation)",
    )
    chaos.add_argument(
        "--backend",
        choices=("local", "tcp", "udp", "sim"),
        default="local",
    )
    chaos.add_argument("--nodes", type=int, default=4)
    chaos.add_argument("--replicas", type=int, default=1)
    chaos.add_argument("--ops", type=int, default=240)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="per-message drop probability on top of the node kill",
    )
    chaos.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="per-message delay probability",
    )
    chaos.add_argument(
        "--delay-seconds",
        type=float,
        default=0.002,
        help="added latency when a delay fault fires",
    )
    chaos.add_argument(
        "--duplicate",
        type=float,
        default=0.0,
        help="per-message duplication probability",
    )
    chaos.add_argument(
        "--plan",
        choices=("overload", "flapping"),
        default=None,
        help="named fault plan: 'overload' (random server stalls) or "
        "'flapping' (periodic drop bursts against one target); "
        "overrides --drop/--delay/--duplicate",
    )
    chaos.add_argument(
        "--detector",
        choices=("phi", "count"),
        default=None,
        help="failure-detector override for the run (phi = RTT-adaptive "
        "suspicion, count = legacy consecutive-timeout counter)",
    )
    chaos.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="enable metrics for the run and write the registry snapshot "
        "to PATH as JSON",
    )
    chaos.add_argument(
        "--durability-only",
        action="store_true",
        help="exit 0 as long as no acked write is lost (use with "
        "message-level faults, which make mutations at-least-once)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    verify = sub.add_parser(
        "verify",
        help="consistency verification: record a concurrent workload "
        "through crash/recovery, then check linearizability + bounded "
        "staleness (exit 1 on violation)",
    )
    verify.add_argument(
        "--backend",
        choices=("local", "tcp", "udp", "sharded", "sim"),
        default="local",
    )
    verify.add_argument("--ops", type=int, default=400)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--clients", type=int, default=4)
    verify.add_argument("--nodes", type=int, default=4)
    verify.add_argument("--replicas", type=int, default=1)
    verify.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker processes per node for --backend sharded (default: 2)",
    )
    verify.add_argument(
        "--plan",
        choices=("none", "overload", "flapping"),
        default="none",
        help="layer a named fault plan's message-level chaos on top of "
        "the node kill",
    )
    verify.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the mid-workload node kill + repair",
    )
    verify.add_argument(
        "--mutation",
        choices=("none", "ack-unreplicated", "stale-tail"),
        default="none",
        help="run a deliberately broken replication mode (the checker's "
        "self-test: the run MUST report a violation)",
    )
    verify.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="also stream the recorded history to PATH as JSONL",
    )
    verify.add_argument(
        "--bound",
        type=float,
        default=0.25,
        help="staleness bound (seconds) for async tail-replica reads",
    )
    verify.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="offline mode: re-check a saved history JSONL instead of "
        "running a cluster",
    )
    verify.add_argument(
        "--hot-cache",
        action="store_true",
        help="enable the client-side hot-key value cache (low heat "
        "threshold, TTL capped at bound/2) and verify its hits satisfy "
        "the bounded-staleness contract; forces --replicas >= 2",
    )
    verify.set_defaults(fn=_cmd_verify)

    scenario = sub.add_parser(
        "scenario",
        help="run named failure scenarios (declarative config -> "
        "cluster + traffic + faults -> pass/fail verdict JSON)",
    )
    scenario_sub = scenario.add_subparsers(dest="action", required=True)

    sc_run = scenario_sub.add_parser(
        "run", help="run one or more scenarios and print their verdicts"
    )
    sc_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="library scenario names or paths to scenario JSON files",
    )
    sc_run.add_argument(
        "--all",
        action="store_true",
        help="run the whole library (with --backend: the scenarios that "
        "declare that backend)",
    )
    sc_run.add_argument(
        "--backend",
        default=None,
        choices=["local", "tcp", "udp", "sim", "sharded"],
        help="override the scenario's default backend (must be one of "
        "its declared backends)",
    )
    sc_run.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    sc_run.add_argument(
        "--ops",
        type=int,
        default=None,
        metavar="N",
        help="override ops per client (scale a scenario up or down)",
    )
    sc_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the verdict(s) as one JSON document",
    )
    sc_run.add_argument(
        "--json-dir",
        default=None,
        metavar="DIR",
        help="write one <scenario>-<backend>.json verdict file per run",
    )
    sc_run.set_defaults(fn=_cmd_scenario)

    sc_list = scenario_sub.add_parser(
        "list", help="list the scenario library with tags and backends"
    )
    sc_list.set_defaults(fn=_cmd_scenario)

    sc_validate = scenario_sub.add_parser(
        "validate",
        help="load + schema-validate scenarios without running them",
    )
    sc_validate.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="library scenario names or paths to scenario JSON files",
    )
    sc_validate.add_argument(
        "--all", action="store_true", help="validate the whole library"
    )
    sc_validate.set_defaults(fn=_cmd_scenario)

    lint = sub.add_parser(
        "lint",
        help="repo-aware static analysis: blocking-under-lock, protocol "
        "exhaustiveness, event loop, fork safety, resource lifetime (exit "
        "1 on unsuppressed findings)",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root to lint (default: current directory)",
    )
    lint.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full report (findings + suppressions) as JSON",
    )
    lint.add_argument(
        "--checker",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this checker (repeatable); default: all",
    )
    lint.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="T",
        help="fail if the whole lint run (parse + all checkers) exceeds T "
        "seconds — keeps the CI gate honest about lint cost",
    )
    lint.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print suppressed findings with their justifications",
    )
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
