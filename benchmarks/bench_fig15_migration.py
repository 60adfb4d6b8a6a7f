"""Figure 15: dynamic-membership cost — time to double the server count.

Paper setup: live clients keep operating while the server count doubles
(2->4, 4->8, 8->16, 16->32); each doubling completes in ~2 s with a
roughly flat trend ("the trends seem relatively constant ... implying
good scalability").

We run the real in-process deployment: populate data, keep a client
reading, and time each doubling (node joins + partition migrations +
membership broadcasts).  Absolute times differ from the BG/P; the shape
assertion is the flat trend.

A full-membership table pays for every change in maintenance bytes
(Monnerat & Amorim's single-hop DHT makes that the figure of merit), so
each doubling also reports the store-image bytes its transfers moved —
the servers' ``migration_bytes_out`` / ``migration_bytes_in`` counters —
against the user bytes (key + value) of the pairs that changed owner.
"""

import time

from _util import emit_json, fmt, print_table

from repro import ZHTConfig, build_local_cluster

DOUBLINGS = ((2, 4), (4, 8), (8, 16), (16, 32))
#: ~8 pairs per partition: with fewer, most images are an empty
#: partition's 36-byte header and the bytes ratio measures only that.
KEYS = 2000
VALUE = b"v" * 132
HEADERS = ["doubling", "time (ms)", "pairs moved", "bytes moved", "bytes / user byte"]


def _counter(cluster, field):
    return sum(getattr(server.stats, field) for server in cluster.servers.values())


def measure_doublings():
    config = ZHTConfig(transport="local", num_partitions=256)
    cluster = build_local_cluster(2, config)
    z = cluster.client()
    for i in range(KEYS):
        z.insert(f"key-{i:06d}", VALUE)
    user_bytes_per_pair = len("key-000000") + len(VALUE)
    rows = []
    for start, target in DOUBLINGS:
        assert len(cluster.membership.nodes) == start
        bytes_out = _counter(cluster, "migration_bytes_out")
        pairs = 0
        elapsed = 0.0
        for _ in range(target - start):
            owners = list(cluster.membership.partition_owner)
            begin = time.perf_counter()
            cluster.add_node()
            elapsed += time.perf_counter() - begin
            pairs += sum(
                len(cluster.servers[now].partition(pid).store)
                for pid, (was, now) in enumerate(
                    zip(owners, cluster.membership.partition_owner)
                )
                if was != now
            )
        moved = _counter(cluster, "migration_bytes_out") - bytes_out
        # Clients stay correct mid-resize (lazy membership refresh).
        for i in range(0, KEYS, 29):
            assert z.lookup(f"key-{i:06d}") == VALUE
        rows.append(
            (
                f"{start} to {target}",
                fmt(elapsed * 1000, 1),
                pairs,
                moved,
                fmt(moved / (pairs * user_bytes_per_pair), 3),
            )
        )
    # One receiver per move: every byte produced was installed once.
    assert _counter(cluster, "migration_bytes_in") == _counter(
        cluster, "migration_bytes_out"
    )
    cluster.close()
    return rows


def test_fig15_migration_time(benchmark):
    rows = measure_doublings()
    print_table(
        "Figure 15: time to double the number of servers (real, ms)",
        HEADERS,
        rows,
        note="paper: ~2000ms per doubling, roughly constant 2->32 nodes",
    )
    emit_json("fig15_migration", HEADERS, rows)
    # A transfer is the pairs as WAL records behind a 36-byte header
    # (the JSON export moved 2.05x the user bytes).
    assert all(float(r[4]) <= 1.2 for r in rows)
    times = [float(r[1]) for r in rows]
    # Flat-ish trend: the last doubling (16 more nodes' worth of joins)
    # must not blow up versus linear expectation.
    assert times[-1] < 40 * times[0] + 50

    def one_join():
        config = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(2, config) as cluster:
            cluster.add_node()

    benchmark(one_join)
