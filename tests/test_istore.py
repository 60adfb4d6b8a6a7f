"""Tests for IStore: GF(256), the IDA codec, and the dispersed store."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ZHTConfig, build_local_cluster
from repro.core.errors import StoreError
from repro.istore import (
    Chunk,
    ChunkStore,
    IDACodec,
    IStore,
    gf_add,
    gf_div,
    gf_inverse,
    gf_mul,
    gf_pow,
    mat_invert,
    mat_mul,
    mat_vec,
    vandermonde,
)


class TestGF256:
    def test_add_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_mul_commutative_sample(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = rng.randrange(256), rng.randrange(256)
            assert gf_mul(a, b) == gf_mul(b, a)

    def test_known_aes_product(self):
        # 0x57 * 0x83 = 0xC1 under the AES polynomial.
        assert gf_mul(0x57, 0x83) == 0xC1

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inverse(a)) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf_inverse(0)

    def test_div(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b = rng.randrange(256), rng.randrange(1, 256)
            assert gf_mul(gf_div(a, b), b) == a
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(0, 5) == 0
        # a^255 = 1 for all nonzero a (multiplicative group order).
        for a in (1, 2, 3, 77, 255):
            assert gf_pow(a, 255) == 1

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_property_distributive(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))


class TestMatrices:
    def test_vandermonde_shape(self):
        v = vandermonde(5, 3)
        assert len(v) == 5 and all(len(row) == 3 for row in v)
        assert v[0] == [1, 1, 1]  # (1)^j

    def test_invert_roundtrip(self):
        rng = random.Random(3)
        matrix = [[rng.randrange(256) for _ in range(4)] for _ in range(4)]
        matrix[0][0] |= 1  # nudge away from singularity
        try:
            inverse = mat_invert(matrix)
        except ValueError:
            pytest.skip("random matrix was singular")
        identity = mat_mul(matrix, inverse)
        assert identity == [
            [int(i == j) for j in range(4)] for i in range(4)
        ]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            mat_invert([[1, 1], [1, 1]])

    def test_mat_vec(self):
        assert mat_vec([[1, 0], [0, 1]], [7, 9]) == [7, 9]

    def test_vandermonde_submatrices_invertible(self):
        """The IDA guarantee: any k rows of the n x k Vandermonde matrix
        form an invertible matrix."""
        v = vandermonde(8, 4)
        rng = random.Random(4)
        for _ in range(10):
            rows = rng.sample(range(8), 4)
            mat_invert([v[r] for r in rows])  # must not raise

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            vandermonde(256, 4)


class TestIDACodec:
    def test_encode_produces_n_chunks(self):
        codec = IDACodec(6, 4)
        chunks = codec.encode(b"hello world")
        assert len(chunks) == 6
        assert [c.index for c in chunks] == list(range(6))

    def test_systematic_fast_path(self):
        codec = IDACodec(6, 4)
        data = b"systematic data here"
        chunks = codec.encode(data)
        assert codec.decode(chunks[:4]) == data

    def test_any_k_chunks_reconstruct(self):
        codec = IDACodec(8, 5)
        data = bytes(range(256)) * 3
        chunks = codec.encode(data)
        rng = random.Random(5)
        for _ in range(15):
            subset = rng.sample(chunks, 5)
            assert codec.decode(subset) == data

    def test_parity_only_reconstruction(self):
        codec = IDACodec(8, 3)
        data = b"parity chunks alone suffice"
        chunks = codec.encode(data)
        assert codec.decode(chunks[5:8]) == data  # indices 5,6,7 (2 parity)

    def test_fewer_than_k_fails(self):
        codec = IDACodec(6, 4)
        chunks = codec.encode(b"data")
        with pytest.raises(ValueError, match="distinct chunks"):
            codec.decode(chunks[:3])

    def test_duplicate_chunks_dont_count_twice(self):
        codec = IDACodec(6, 4)
        chunks = codec.encode(b"data")
        with pytest.raises(ValueError):
            codec.decode([chunks[0]] * 4)

    def test_empty_payload(self):
        codec = IDACodec(5, 2)
        chunks = codec.encode(b"")
        assert codec.decode(chunks[3:]) == b""

    def test_k_equals_n(self):
        codec = IDACodec(4, 4)
        data = b"no redundancy at all"
        assert codec.decode(codec.encode(data)) == data

    def test_k_equals_one_is_replication(self):
        codec = IDACodec(4, 1)
        data = b"full copies"
        for chunk in codec.encode(data):
            assert codec.decode([chunk]) == data

    def test_bad_params(self):
        with pytest.raises(ValueError):
            IDACodec(4, 5)
        with pytest.raises(ValueError):
            IDACodec(300, 2)

    def test_storage_overhead(self):
        assert IDACodec(6, 4).storage_overhead == pytest.approx(1.5)

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 4), (9, 5), (11, 8)])
    def test_every_k_subset_reconstructs(self, n, k):
        """"Any k of n", by enumeration rather than by sampling."""
        codec = IDACodec(n, k)
        data = bytes(range(7, 30))
        chunks = codec.encode(data)
        for subset in itertools.combinations(chunks, k):
            assert codec.decode(list(subset)) == data

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.binary(max_size=500),
        params=st.sampled_from([(4, 2), (6, 4), (9, 5), (11, 8)]),
        seed=st.integers(0, 1000),
    )
    @example(params=(9, 5), seed=565, data=b"")
    def test_property_roundtrip_any_subset(self, data, params, seed):
        n, k = params
        codec = IDACodec(n, k)
        chunks = codec.encode(data)
        subset = random.Random(seed).sample(chunks, k)
        assert codec.decode(subset) == data


@pytest.fixture
def istore_setup():
    cluster = build_local_cluster(
        3, ZHTConfig(transport="local", num_partitions=64)
    )
    stores = [ChunkStore(i) for i in range(8)]
    store = IStore(cluster.client(), stores)
    yield cluster, stores, store
    cluster.close()


class TestIStore:
    def test_write_read_roundtrip(self, istore_setup):
        _cluster, _stores, store = istore_setup
        store.write("file1", b"dispersed bytes" * 100)
        assert store.read("file1") == b"dispersed bytes" * 100

    def test_chunk_metadata_in_zht(self, istore_setup):
        cluster, _stores, store = istore_setup
        store.write("file1", b"x" * 100)
        z = cluster.client()
        assert z.contains("istore:file:file1")
        assert z.contains("istore:chunk:file1.chunk000")

    def test_metadata_intensity_per_write(self, istore_setup):
        """Figure 17's driver: every chunk costs a metadata op, so small
        files are metadata-bound."""
        _cluster, _stores, store = istore_setup
        store.write("f", b"tiny")
        assert store.stats.metadata_ops == store.codec.n + 1

    def test_survives_node_failures_up_to_n_minus_k(self, istore_setup):
        _cluster, stores, store = istore_setup
        data = bytes(range(256)) * 10
        store.write("resilient", data)
        for i in range(store.codec.n - store.codec.k):
            stores[i].alive = False
        assert store.read("resilient") == data
        assert store.stats.degraded_reads == 1

    def test_too_many_failures_fail_loudly(self, istore_setup):
        _cluster, stores, store = istore_setup
        store.write("fragile", b"data")
        for i in range(store.codec.n - store.codec.k + 1):
            stores[i].alive = False
        with pytest.raises(StoreError, match="cannot reconstruct"):
            store.read("fragile")

    def test_delete_removes_chunks_and_metadata(self, istore_setup):
        cluster, stores, store = istore_setup
        store.write("temp", b"gone soon")
        store.delete("temp")
        assert not store.exists("temp")
        z = cluster.client()
        assert not z.contains("istore:chunk:temp.chunk000")

    def test_disk_backed_chunk_store(self, tmp_path):
        store = ChunkStore(0, directory=str(tmp_path / "chunks"))
        store.put("c1", b"chunk data")
        assert store.get("c1") == b"chunk data"
        store.delete("c1")
        from repro.core.errors import KeyNotFound

        with pytest.raises(KeyNotFound):
            store.get("c1")
