"""Tests for workload generators (repro.workload)."""

import random
from collections import Counter

from repro.core.protocol import OpCode
from repro.workload import (
    KEY_BYTES,
    VALUE_BYTES,
    AppendWorkload,
    MicroBenchmarkWorkload,
    ZipfWorkload,
    random_key,
    random_value,
)


class TestPrimitives:
    def test_key_shape(self):
        rng = random.Random(0)
        key = random_key(rng)
        assert len(key) == KEY_BYTES == 15  # the paper's key size
        assert key.isascii()

    def test_value_shape(self):
        rng = random.Random(0)
        assert len(random_value(rng)) == VALUE_BYTES == 132


class TestMicroBenchmark:
    def test_phases_in_paper_order(self):
        """"insert, then lookup, and then remove"."""
        w = MicroBenchmarkWorkload(ops_per_client=3)
        ops = [op for op, _k, _v in w.client_ops(0)]
        assert ops == [OpCode.INSERT] * 3 + [OpCode.LOOKUP] * 3 + [
            OpCode.REMOVE
        ] * 3

    def test_same_keys_across_phases(self):
        w = MicroBenchmarkWorkload(ops_per_client=4)
        ops = list(w.client_ops(0))
        insert_keys = [k for op, k, _ in ops if op == OpCode.INSERT]
        lookup_keys = [k for op, k, _ in ops if op == OpCode.LOOKUP]
        assert insert_keys == lookup_keys

    def test_deterministic_per_client(self):
        w = MicroBenchmarkWorkload(ops_per_client=5, seed=3)
        assert list(w.client_ops(7)) == list(w.client_ops(7))

    def test_distinct_across_clients(self):
        w = MicroBenchmarkWorkload(ops_per_client=5, seed=3)
        keys_a = {k for _o, k, _v in w.client_ops(0)}
        keys_b = {k for _o, k, _v in w.client_ops(1)}
        assert keys_a != keys_b

    def test_total_ops(self):
        assert MicroBenchmarkWorkload(ops_per_client=5).total_ops_per_client == 15
        assert (
            MicroBenchmarkWorkload(
                ops_per_client=5, include_remove=False
            ).total_ops_per_client
            == 10
        )

    def test_payload_sizes(self):
        w = MicroBenchmarkWorkload(ops_per_client=2)
        for op, key, value in w.client_ops(0):
            assert len(key) == KEY_BYTES
            if op == OpCode.INSERT:
                assert len(value) == VALUE_BYTES


class TestAppendWorkload:
    def test_all_appends_to_hot_keys(self):
        w = AppendWorkload(ops_per_client=20, hot_keys=2)
        ops = list(w.client_ops(0))
        assert all(op == OpCode.APPEND for op, _k, _v in ops)
        assert len({k for _o, k, _v in ops}) <= 2

    def test_fragments_identify_client_and_sequence(self):
        w = AppendWorkload(ops_per_client=3)
        fragments = [v for _o, _k, v in w.client_ops(9)]
        assert all(f.startswith(b"[c9:") for f in fragments)
        assert len(set(fragments)) == 3

    def test_fragment_padding(self):
        w = AppendWorkload(ops_per_client=1, fragment_bytes=64)
        _op, _key, value = next(iter(w.client_ops(0)))
        assert len(value) == 64


class TestZipfWorkload:
    def test_skew_concentrates_on_head(self):
        w = ZipfWorkload(ops_per_client=2000, universe=1000, alpha=1.2, seed=1)
        keys = Counter(k for _o, k, _v in w.client_ops(0))
        top = sum(c for _k, c in keys.most_common(10))
        assert top > 0.25 * sum(keys.values())  # heavy head

    def test_write_ratio_respected(self):
        w = ZipfWorkload(
            ops_per_client=1000, universe=100, write_ratio=0.5, seed=2
        )
        ops = Counter(op for op, _k, _v in w.client_ops(0))
        assert 0.4 <= ops[OpCode.INSERT] / 1000 <= 0.6

    def test_keys_within_universe(self):
        w = ZipfWorkload(ops_per_client=200, universe=50, seed=3)
        for _op, key, _v in w.client_ops(0):
            index = int(key.decode().split("-")[1])
            assert 0 <= index < 50

    def test_deterministic_per_client_and_seed(self):
        """Same (seed, client_id) must replay the identical op stream, so
        benchmark baselines and mitigated runs see the same traffic."""
        a = ZipfWorkload(ops_per_client=300, universe=100, seed=5)
        b = ZipfWorkload(ops_per_client=300, universe=100, seed=5)
        assert list(a.client_ops(3)) == list(b.client_ops(3))

    def test_distinct_streams_across_clients_and_seeds(self):
        w = ZipfWorkload(ops_per_client=300, universe=100, seed=5)
        other = ZipfWorkload(ops_per_client=300, universe=100, seed=6)
        assert list(w.client_ops(0)) != list(w.client_ops(1))
        assert list(w.client_ops(0)) != list(other.client_ops(0))
