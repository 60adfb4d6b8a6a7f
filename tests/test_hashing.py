"""Tests for repro.core.hashing — FNV, Jenkins lookup3, ring placement."""

import string
import sys
import timeit
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashing
from repro.core.hashing import (
    HASH_FUNCTIONS,
    ID_SPACE,
    fnv1a_32,
    fnv1a_64,
    fmix64,
    get_hash_function,
    jenkins_64,
    jenkins_lookup3,
    partition_of,
    partitions_of,
    ring_position,
)


class TestFNV:
    def test_known_vectors_32(self):
        # Published FNV-1a test vectors.
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_known_vectors_64(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_str_and_bytes_agree(self):
        assert fnv1a_64("zht-key") == fnv1a_64(b"zht-key")

    def test_rejects_non_key_types(self):
        with pytest.raises(TypeError):
            fnv1a_64(123)  # type: ignore[arg-type]


class TestJenkins:
    def test_empty_input(self):
        # lookup3 with no data returns the initialized c value.
        assert jenkins_lookup3(b"") == 0xDEADBEEF

    def test_deterministic(self):
        assert jenkins_lookup3(b"hello world") == jenkins_lookup3(b"hello world")

    def test_seed_changes_result(self):
        assert jenkins_lookup3(b"key", 0) != jenkins_lookup3(b"key", 1)

    def test_64_combines_two_seeds(self):
        h = jenkins_64(b"key")
        assert h >> 32 == jenkins_lookup3(b"key", 0x9E3779B9)
        assert h & 0xFFFFFFFF == jenkins_lookup3(b"key", 0)

    def test_multiblock_input(self):
        # Inputs > 12 bytes exercise the _mix loop.
        long_key = b"x" * 100
        assert 0 <= jenkins_lookup3(long_key) < 2**32

    @given(st.binary(min_size=0, max_size=64))
    def test_range_32bit(self, data):
        assert 0 <= jenkins_lookup3(data) < 2**32


class TestRegistry:
    def test_all_registered_functions_callable(self):
        for name in HASH_FUNCTIONS:
            assert get_hash_function(name)(b"probe") >= 0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown hash function"):
            get_hash_function("sha999")


class TestRingPlacement:
    @given(st.binary(min_size=1, max_size=40))
    def test_position_in_id_space(self, key):
        for name in HASH_FUNCTIONS:
            assert 0 <= ring_position(key, name) < ID_SPACE

    @given(
        st.binary(min_size=1, max_size=40),
        st.integers(min_value=1, max_value=100_000),
    )
    def test_partition_in_range(self, key, n):
        assert 0 <= partition_of(key, n) < n

    def test_partition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partition_of(b"k", 0)

    def test_single_partition_maps_everything_to_zero(self):
        assert all(
            partition_of(f"k{i}".encode(), 1) == 0 for i in range(100)
        )

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=1024))
    def test_distribution_roughly_uniform(self, n):
        """"distribute signatures uniformly" — no partition should hog keys."""
        counts = [0] * n
        samples = 50 * n if n <= 64 else 4 * n
        for i in range(samples):
            counts[partition_of(f"key-{i}".encode(), n)] += 1
        # Very loose bound: no partition gets more than 12x its fair share.
        assert max(counts) <= max(12 * samples // n, 16)

    def test_avalanche_effect(self):
        """Small input changes flip roughly half the ring-position bits."""
        diffs = []
        for i in range(200):
            a = ring_position(f"key-{i}a".encode())
            b = ring_position(f"key-{i}b".encode())
            diffs.append(bin(a ^ b).count("1"))
        mean = sum(diffs) / len(diffs)
        assert 28 <= mean <= 36  # ideal is 32 of 64 bits

    def test_keys_spread_across_partitions(self):
        n = 128
        hit = {partition_of(f"file-{i}".encode(), n) for i in range(2000)}
        assert len(hit) > n * 0.9


class TestConsistencyAcrossRuns:
    """ZHT hashes must be stable across processes (they define data
    placement); these pin the exact values."""

    def test_pinned_values(self):
        from repro.core.hashing import fmix64

        assert ring_position(b"zht") == fmix64(fnv1a_64(b"zht"))
        assert partition_of(b"zht", 1024) == (
            fmix64(fnv1a_64(b"zht")) * 1024
        ) >> 64

    def test_printable_ascii_keys(self):
        # Typical ZHT keys are "variable length ASCII text string"s.
        for ch in string.printable:
            assert 0 <= partition_of(ch.encode(), 64) < 64


class TestFusedPartitionOf:
    """``partition_of`` runs the default hash inline; whatever the name
    and the key's type, its value is the composition it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.binary(max_size=4096),
        n=st.integers(1, 2**20),
        name=st.sampled_from(sorted(HASH_FUNCTIONS)),
    )
    def test_equals_the_composition_for_every_key_type(self, raw, n, name):
        expected = fmix64(HASH_FUNCTIONS[name](raw)) * n >> 64
        assert expected == ring_position(raw, name) * n >> 64
        for key in (raw, bytearray(raw), memoryview(raw)):
            assert partition_of(key, n, name) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.text(max_size=1024),
        n=st.integers(1, 2**20),
        name=st.sampled_from(sorted(HASH_FUNCTIONS)),
    )
    def test_str_keys_hash_as_their_utf8_bytes(self, text, n, name):
        raw = text.encode("utf-8")
        assert partition_of(text, n, name) == fmix64(HASH_FUNCTIONS[name](raw)) * n >> 64

    def test_rejects_non_key_types(self):
        with pytest.raises(TypeError):
            partition_of(123, 8)  # type: ignore[arg-type]

    def test_long_keys_cost_no_more_per_byte(self):
        """No big-int growth: a 64 KiB key costs per byte what a 64 B key
        does (3x leaves room for a noisy host; an unmasked product would
        be hundreds of times slower)."""
        short, long_ = b"k" * 64, b"k" * 65536
        per_byte_short = min(
            timeit.repeat(lambda: partition_of(short, 1024), number=500, repeat=5)
        ) / 500 / len(short)
        per_byte_long = min(
            timeit.repeat(lambda: partition_of(long_, 1024), number=1, repeat=3)
        ) / len(long_)
        assert per_byte_long <= 3 * per_byte_short


#: Partition counts at the lane pass's edges: a product that fills its
#: lane (2**64 - 1) and one that would overflow it (2**64).
_EDGE_COUNTS = [1, 2, 1023, 1024, 2**32 - 1, 2**64 - 1, 2**64]

_KEY = st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(bytearray),
    st.text(max_size=100),
)


class TestPartitionsOf:
    """``partitions_of`` hashes many keys at once; whatever the keys'
    lengths, types and number, its value is the scalar list."""

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.one_of(
            st.lists(_KEY, max_size=600),
            # Many keys of few lengths, so groups reach the lane pass and
            # cross the chunk width.
            st.lists(st.sampled_from([0, 1, 15, 300]), min_size=1, max_size=4).flatmap(
                lambda lengths: st.lists(
                    st.sampled_from(lengths).flatmap(
                        lambda n: st.binary(min_size=n, max_size=n)
                    ),
                    max_size=600,
                )
            ),
        ),
        n=st.sampled_from(_EDGE_COUNTS),
        name=st.sampled_from(sorted(HASH_FUNCTIONS)),
    )
    def test_equals_the_scalar_list(self, keys, n, name):
        assert partitions_of(keys, n, name) == [partition_of(k, n, name) for k in keys]

    @pytest.mark.parametrize("count", [0, 7, 8, 9, 255, 256, 257, 512, 600])
    def test_batch_sizes_around_the_threshold_and_the_chunk(self, count):
        keys = [b"key-%011d" % i for i in range(count)]
        mixed = [key[: i % 17] for i, key in enumerate(keys)]
        for n in _EDGE_COUNTS:
            assert partitions_of(keys, n) == [partition_of(k, n) for k in keys]
            assert partitions_of(mixed, n) == [partition_of(k, n) for k in mixed]

    def test_rejects_what_the_scalar_rejects(self):
        keys = [b"k%d" % i for i in range(20)]
        with pytest.raises(ValueError):
            partitions_of(keys, 0)
        with pytest.raises(TypeError):
            partitions_of(keys + [123], 8)  # type: ignore[list-item]
        with pytest.raises(ValueError, match="unknown hash function"):
            partitions_of(keys, 8, "sha999")

    def test_a_large_batch_leaves_no_state_and_bounded_memory(self):
        """No cache keyed by what a peer sends: the module's globals are
        the same objects after a 50,000-key batch, and the call's peak
        allocation stays within twice the keys' own bytes."""
        keys = [b"key-%d" % (i * 7919) for i in range(50_000)]  # 5-13 bytes
        own = sum(map(sys.getsizeof, keys))
        before = dict(vars(hashing))
        tracemalloc.start()
        try:
            pids = partitions_of(keys, 2**32 - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pids == [partition_of(k, 2**32 - 1) for k in keys]
        assert peak <= 2 * own, (peak, own)
        after = vars(hashing)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_a_batch_costs_a_fraction_of_the_scalar_loop(self):
        """64 keys of 15 bytes, as a ledger batch sends them: the lane pass
        is measured at 0.35–0.45 of the scalar loop's time; 0.6 leaves room
        for a noisy host, and a fall back to the scalar loop reads 1."""
        keys = [b"key-%011d" % (i * 7919) for i in range(64)]
        lanes, scalar = [], []
        for _ in range(5):  # interleaved, so a slow spell hits both
            lanes.append(timeit.timeit(lambda: partitions_of(keys, 1024), number=200))
            scalar.append(timeit.timeit(lambda: [partition_of(k, 1024) for k in keys], number=200))
        assert min(lanes) <= 0.6 * min(scalar), (lanes, scalar)
