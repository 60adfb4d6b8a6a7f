#!/usr/bin/env python3
"""ZHT over real sockets: TCP (with/without connection caching) and UDP.

Starts genuine ZHT servers on loopback — event-driven selector loops for
TCP, ack-per-datagram for UDP — and measures how the transport choices
from §III.F behave on this machine.

Run:  python examples/real_sockets.py
"""

import time

from repro.core import ZHTConfig
from repro.net.cluster import build_tcp_cluster, build_udp_cluster

OPS = 300
VALUE = b"v" * 132  # the paper's micro-benchmark value size


def timed_storm(zht) -> float:
    zht.insert("warmup", b"x")
    start = time.perf_counter()
    for i in range(OPS):
        zht.insert(f"key-{i:010d}", VALUE)
    return OPS / (time.perf_counter() - start)


def main() -> None:
    print(f"{OPS} inserts of 132-byte values, 3 servers on loopback:\n")

    cfg = ZHTConfig(transport="tcp", num_partitions=64, request_timeout=1.0)
    with build_tcp_cluster(3, cfg) as cluster:
        rate = timed_storm(cluster.client())
        print(f"TCP + LRU connection cache : {rate:8,.0f} ops/s")

    nocache = cfg.replace(connection_cache_size=0)
    with build_tcp_cluster(3, nocache) as cluster:
        z = cluster.client()
        rate = timed_storm(z)
        print(
            f"TCP, connect per op        : {rate:8,.0f} ops/s "
            f"({z.transport.connects} connects)"
        )

    with build_udp_cluster(3, ZHTConfig(transport="udp", num_partitions=64)) as cluster:
        rate = timed_storm(cluster.client())
        print(f"UDP with per-message acks  : {rate:8,.0f} ops/s")

    # Replication over real sockets.
    replicated = cfg.replace(num_replicas=1)
    with build_tcp_cluster(3, replicated, seed=7) as cluster:
        z = cluster.client()
        rate = timed_storm(z)
        time.sleep(0.3)  # let async replicas land
        copies = sum(
            len(p.store)
            for s in cluster.servers
            for p in s.core.partitions.values()
        )
        print(
            f"TCP + 1 replica            : {rate:8,.0f} ops/s "
            f"({copies} total copies of {OPS + 1} keys)"
        )


if __name__ == "__main__":
    main()
