"""Concurrent append interleaving: every acked fragment lands exactly
once, whatever the interleaving, transport, or batching.

The paper sells append as a lock-free concurrent-modification
primitive (§III.A): N clients appending distinct fragments must end up
with a value that is *some* permutation of exactly the acknowledged
fragments — no losses, no duplicates, no mid-fragment interleaving.
Fragments embed (client, index) and are prefix-free, so tokenizing the
final value is unambiguous.
"""

import threading

import pytest

from repro import ZHTConfig, build_local_cluster
from repro.net.cluster import build_tcp_cluster
from repro.net.tcp import MultiplexedTCPClient
from repro.verify import tokenize_fragments

KEY = b"append-contention"


def fragment(seed, client, index):
    """A globally unique, prefix-free append fragment."""
    return f"|s{seed}c{client:02d}i{index:05d};".encode()


def _hammer(cluster, *, threads, per_thread, seed):
    """N threads append distinct fragments to one key; returns (acked
    fragments, per-thread errors)."""
    acked = [[] for _ in range(threads)]
    errors = []
    barrier = threading.Barrier(threads)

    def worker(tid):
        z = cluster.client(seed=seed + tid, client_id=f"w{tid:02d}")
        barrier.wait()
        for i in range(per_thread):
            frag = fragment(seed, tid, i)
            try:
                z.append(KEY, frag)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append((tid, i, exc))
                return
            acked[tid].append(frag)

    ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return [f for per in acked for f in per], errors


def _assert_exactly_once(final, acked):
    tokens = tokenize_fragments(final, acked)
    assert tokens is not None, f"final value corrupt: {final!r}"
    assert sorted(tokens) == sorted(acked), (
        f"{len(tokens)} fragments in final value, {len(acked)} acked"
    )


class TestLocalTransport:
    def test_eight_writers_exactly_once(self):
        config = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(3, config) as cluster:
            acked, errors = _hammer(cluster, threads=8, per_thread=25, seed=1)
            assert not errors
            final = cluster.client().lookup(KEY)
        assert len(acked) == 200
        _assert_exactly_once(final, acked)

    def test_per_thread_fragments_stay_ordered(self):
        # One client's appends are sequential, so its own fragments must
        # appear in issue order inside the final value.
        config = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(3, config) as cluster:
            acked, errors = _hammer(cluster, threads=4, per_thread=20, seed=2)
            assert not errors
            final = cluster.client().lookup(KEY)
        _assert_exactly_once(final, acked)
        for tid in range(4):
            positions = [
                final.index(fragment(2, tid, i)) for i in range(20)
            ]
            assert positions == sorted(positions)


class TestMultiplexedTCP:
    def test_concurrent_writers_over_pipelined_sockets(self):
        config = ZHTConfig(
            transport="tcp", num_partitions=64, request_timeout=1.0
        )
        with build_tcp_cluster(2, config) as cluster:
            probe = cluster.client()
            assert isinstance(probe.transport, MultiplexedTCPClient)
            acked, errors = _hammer(cluster, threads=4, per_thread=15, seed=3)
            assert not errors
            final = probe.lookup(KEY)
        assert len(acked) == 60
        _assert_exactly_once(final, acked)


class TestBatchAppend:
    def test_append_many_exactly_once(self):
        config = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(3, config) as cluster:
            z = cluster.client()
            sent = []
            for round_no in range(6):
                batch = [
                    (b"batch-%d" % (i % 3), fragment(4, round_no, i))
                    for i in range(12)
                ]
                z.append_many(batch)
                sent.extend(batch)
            for key in (b"batch-0", b"batch-1", b"batch-2"):
                frags = [v for k, v in sent if k == key]
                _assert_exactly_once(z.lookup(key), frags)

    def test_batched_and_unbatched_writers_interleave(self):
        config = ZHTConfig(transport="local", num_partitions=64)
        with build_local_cluster(3, config) as cluster:
            acked = []
            lock = threading.Lock()

            def batch_worker():
                z = cluster.client(seed=10)
                for i in range(10):
                    frags = [fragment(5, 0, i * 4 + j) for j in range(4)]
                    z.append_many([(KEY, f) for f in frags])
                    with lock:
                        acked.extend(frags)

            def single_worker():
                z = cluster.client(seed=11)
                for i in range(40):
                    frag = fragment(5, 1, i)
                    z.append(KEY, frag)
                    with lock:
                        acked.append(frag)

            ts = [
                threading.Thread(target=batch_worker),
                threading.Thread(target=single_worker),
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            final = cluster.client().lookup(KEY)
        assert len(acked) == 80
        _assert_exactly_once(final, acked)


@pytest.mark.slow
class TestMultiplexedTCPSoak:
    def test_heavier_contention_over_sockets(self):
        config = ZHTConfig(
            transport="tcp", num_partitions=64, request_timeout=2.0
        )
        with build_tcp_cluster(3, config) as cluster:
            acked, errors = _hammer(cluster, threads=8, per_thread=40, seed=6)
            assert not errors
            final = cluster.client().lookup(KEY)
        assert len(acked) == 320
        _assert_exactly_once(final, acked)
