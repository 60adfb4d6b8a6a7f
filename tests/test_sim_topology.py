"""Tests for simulator topologies (repro.sim.topology)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.topology import (
    SwitchedTopology,
    TorusTopology,
    torus_dims_for,
)


class TestTorusDims:
    def test_exact_powers_of_two(self):
        assert torus_dims_for(8) == (2, 2, 2)
        assert torus_dims_for(64) == (4, 4, 4)
        assert torus_dims_for(512) == (8, 8, 8)  # a BG/P midplane

    def test_rounds_up_to_fit(self):
        dims = torus_dims_for(1000)
        assert dims[0] * dims[1] * dims[2] >= 1000

    def test_near_cubic(self):
        x, y, z = torus_dims_for(8192)
        assert max(x, y, z) <= 4 * min(x, y, z)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            torus_dims_for(0)


class TestTorusHops:
    def test_self_distance_zero(self):
        topo = TorusTopology((4, 4, 4))
        assert topo.hops(5, 5) == 0

    def test_neighbor_distance_one(self):
        topo = TorusTopology((4, 4, 4))
        assert topo.hops(0, 1) == 1  # +x neighbor

    def test_wraparound_shortens_path(self):
        topo = TorusTopology((8, 1, 1), rack_size=1024)
        # 0 -> 7 is one hop via the wraparound link, not seven.
        assert topo.hops(0, 7) == 1

    def test_symmetric(self):
        topo = TorusTopology((4, 8, 2))
        for a, b in [(0, 63), (5, 40), (12, 13)]:
            assert topo.hops(a, b) == topo.hops(b, a)

    def test_manhattan_distance(self):
        topo = TorusTopology((4, 4, 4), rack_size=1024)
        # node 0 = (0,0,0); node 21 = (1,1,1): 3 hops.
        assert topo.hops(0, 1 + 4 + 16) == 3

    def test_rack_penalty_applied(self):
        topo = TorusTopology((16, 16, 16), rack_size=1024, rack_penalty_hops=4)
        same_rack = topo.hops(0, 1)
        cross_rack = topo.hops(0, 1024 + 1)
        base = TorusTopology((16, 16, 16), rack_size=10**9).hops(0, 1025)
        assert cross_rack == base + 4
        assert same_rack == 1

    def test_out_of_range_rejected(self):
        topo = TorusTopology((2, 2, 2))
        with pytest.raises(ValueError):
            topo.hops(0, 8)

    @settings(max_examples=30)
    @given(
        node=st.integers(min_value=0, max_value=63),
    )
    def test_property_triangle_inequality_via_zero(self, node):
        topo = TorusTopology((4, 4, 4), rack_size=1024)
        # d(0, node) <= d(0, mid) + d(mid, node) for a fixed midpoint.
        mid = 21
        assert topo.hops(0, node) <= topo.hops(0, mid) + topo.hops(mid, node)

    def test_average_hops_grows_with_scale(self):
        small = TorusTopology.for_nodes(64).average_hops()
        large = TorusTopology.for_nodes(8192).average_hops()
        assert large > 2 * small

    def test_average_hops_trivial_cases(self):
        assert TorusTopology.for_nodes(1).average_hops() == 0.0


def _defined_hops(topo: TorusTopology, src: int, dst: int) -> int:
    """Hop count by its definition: per dimension of the coordinates, the
    shorter way round the ring, plus the rack penalty."""
    a, b = topo.coordinates(src), topo.coordinates(dst)
    total = sum(min((p - q) % k, (q - p) % k) for p, q, k in zip(a, b, topo.dims))
    if src // topo.rack_size != dst // topo.rack_size:
        total += topo.rack_penalty_hops
    return total


class TestHopTables:
    """``hops`` reads per-dimension ring tables; it must agree with the
    coordinate definition everywhere and reject what is not a node."""

    def test_every_pair_of_a_4x4x8_torus(self):
        topo = TorusTopology((4, 4, 8))
        for src in range(128):
            for dst in range(128):
                assert topo.hops(src, dst) == _defined_hops(topo, src, dst)

    def test_sampled_pairs_at_8192_nodes_with_the_rack_penalty(self):
        topo = TorusTopology.for_nodes(8192)
        rng = random.Random(7)
        crossed = 0
        for _ in range(20_000):
            src, dst = rng.randrange(8192), rng.randrange(8192)
            assert topo.hops(src, dst) == _defined_hops(topo, src, dst)
            crossed += src // topo.rack_size != dst // topo.rack_size
        assert crossed > 10_000  # most pairs cross racks at 8 racks

    @pytest.mark.parametrize(
        "src,dst", [(-1, 0), (0, -1), (-1, -1), (128, 0), (0, 128), (128, 128), (-5, 300)]
    )
    def test_a_node_outside_the_torus_raises(self, src, dst):
        # A table read would silently wrap a negative node: -1 is node 127.
        with pytest.raises(ValueError, match="outside torus of 128"):
            TorusTopology((4, 4, 8)).hops(src, dst)


class TestSwitched:
    def test_hops(self):
        topo = SwitchedTopology(64)
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 63) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SwitchedTopology(4).hops(0, 4)

    def test_average_hops_approaches_one(self):
        assert SwitchedTopology(64).average_hops() == pytest.approx(63 / 64)
        assert SwitchedTopology(1).average_hops() == 0.0
