"""Multi-core node: process-per-shard scaling on one machine.

The paper's Figs. 13/14 scale one node to all cores by running multiple
ZHT instances per node (one per core, stable latency up to 4).  Our
:class:`~repro.net.shard.ShardedNodeServer` reproduces that with one
forked worker process per shard, each on its own private port.  This
bench builds the node with ``build_sharded_tcp_cluster(1, config)``,
drives it with forked client processes and compares
aggregate insert+lookup throughput and p99 latency for 1 shard (the
old single-process ``EventDrivenTCPServer``) vs ``SHARDS`` shards.

The >=2x throughput gate only applies on machines with >= 4 cores: on
fewer cores the shards time-slice one CPU and sharding is pure overhead,
which is exactly the paper's "one instance per core" sizing rule.
"""

import multiprocessing
import os
import time

from _util import emit_json, fmt, fmt_int, print_table, scales

from repro.core import ZHTConfig
from repro.net.cluster import build_sharded_tcp_cluster
from repro.net.shard import fork_supported

import pytest

pytestmark = pytest.mark.skipif(
    not fork_supported(), reason="needs the fork start method"
)

SHARDS = 4
CLIENTS = 4
OPS = scales(small=(250,), paper=(2000,))[0]  # per client; x2 (insert+lookup)
VALUE = b"v" * 132


def _client_worker(membership, config, ops, offset, barrier, queue):
    import random

    from repro.api import ZHT
    from repro.core.client import ZHTClientCore
    from repro.net.tcp import MultiplexedTCPClient

    transport = MultiplexedTCPClient()
    core = ZHTClientCore(membership, config, rng=random.Random(offset))
    z = ZHT(core, transport)
    z.insert(f"warm-{offset}", b"x")
    barrier.wait()
    latencies = []
    start = time.perf_counter()
    for i in range(ops):
        key = f"mc-{offset}-{i:06d}"
        t0 = time.perf_counter()
        z.insert(key, VALUE)
        latencies.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        z.lookup(key)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    transport.close()
    queue.put((elapsed, sorted(latencies)))


def measure(num_shards: int, *, clients: int = CLIENTS, ops: int = OPS):
    """(aggregate ops/s, p99 ms) for `clients` forked client processes."""
    config = ZHTConfig(
        transport="tcp",
        num_partitions=64,
        request_timeout=2.0,
        num_shards=num_shards,
    )
    cluster = build_sharded_tcp_cluster(1, config)
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(clients)
    queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_client_worker,
            args=(cluster.membership.copy(), config, ops, c, barrier, queue),
        )
        for c in range(clients)
    ]
    try:
        for w in workers:
            w.start()
        results = [queue.get(timeout=120) for _ in workers]
        for w in workers:
            w.join(timeout=10)
    finally:
        cluster.close()
    elapsed = max(e for e, _ in results)
    merged = sorted(l for _, ls in results for l in ls)
    p99 = merged[min(len(merged) - 1, int(len(merged) * 0.99))] * 1e3
    return clients * ops * 2 / elapsed, p99


def generate_series(*, clients: int = CLIENTS, ops: int = OPS):
    base_ops, base_p99 = measure(1, clients=clients, ops=ops)
    shard_ops, shard_p99 = measure(SHARDS, clients=clients, ops=ops)
    rows = [
        ("1 (single process)", fmt_int(base_ops), fmt(base_p99, 2), "1.00"),
        (
            f"{SHARDS} (process-per-shard)",
            fmt_int(shard_ops),
            fmt(shard_p99, 2),
            fmt(shard_ops / base_ops, 2),
        ),
    ]
    return rows, shard_ops / base_ops, base_p99, shard_p99


def test_multicore_node(benchmark):
    rows, speedup, base_p99, shard_p99 = generate_series()
    cores = os.cpu_count() or 1
    print_table(
        f"Multi-core node: {CLIENTS} client procs, insert+lookup "
        f"({cores} cores)",
        ["shards", "ops/s", "p99 ms", "relative"],
        rows,
        note="paper Figs. 13/14: one instance per core scales a node; "
        f"measured {speedup:.2f}x with {SHARDS} shards",
    )
    emit_json(
        "multicore_node", ["shards", "ops_per_s", "p99_ms", "relative"], rows
    )
    if cores >= 4:
        # The headline gate: 4 shards must at least double aggregate
        # throughput without hurting tail latency.
        assert speedup >= 2.0, rows
        assert shard_p99 <= base_p99 * 1.1, rows
    benchmark(lambda: measure(1, clients=1, ops=50))


if __name__ == "__main__":
    import sys

    smoke = "--smoke" in sys.argv
    rows, speedup, base_p99, shard_p99 = (
        generate_series(clients=2, ops=100) if smoke else generate_series()
    )
    cores = os.cpu_count() or 1
    print_table(
        f"Multi-core node: insert+lookup ({cores} cores)",
        ["shards", "ops/s", "p99 ms", "relative"],
        rows,
    )
    emit_json(
        "multicore_node", ["shards", "ops_per_s", "p99_ms", "relative"], rows
    )
    problems = []
    if cores >= 4:
        if speedup < 2.0:
            problems.append(f"{SHARDS} shards only {speedup:.2f}x (need 2x)")
        if shard_p99 > base_p99 * 1.1:
            problems.append(
                f"p99 regressed: {base_p99:.2f} -> {shard_p99:.2f} ms"
            )
    else:
        print(f"NOTE: {cores} core(s): 2x gate skipped (needs >= 4)")
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(f"OK: {SHARDS} shards {speedup:.2f}x single-process")
    sys.exit(1 if problems else 0)
