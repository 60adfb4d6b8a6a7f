"""Network topologies for the simulator.

Two models cover the paper's testbeds:

* :class:`TorusTopology` — the IBM Blue Gene/P 3D torus: "the IBM Blue
  Gene/P network for communication is a 3D Torus network, which does
  multi-hop routing to send messages among compute nodes ... one rack of
  Blue Gene/P has 1024 nodes, any larger scale than 1024 will involve
  more than one rack" (§IV.C).  Hop count is the Manhattan distance with
  per-dimension wraparound; crossing a rack boundary adds a penalty hop
  count.
* :class:`SwitchedTopology` — the HEC-Cluster: a flat Ethernet switch,
  every distinct pair is one switch traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def torus_dims_for(num_nodes: int) -> tuple[int, int, int]:
    """Pick near-cubic 3D torus dimensions containing *num_nodes*.

    Blue Gene/P midplanes are 8x8x8 (512 nodes); larger systems stack
    midplanes.  We choose the most cubic factorization of the smallest
    power-of-two box that fits.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    size = 1
    while size < num_nodes:
        size *= 2
    # Distribute log2(size) across three dimensions as evenly as possible.
    log2 = size.bit_length() - 1
    dims = [1, 1, 1]
    for i in range(log2):
        dims[i % 3] *= 2
    dims.sort()
    return (dims[0], dims[1], dims[2])


@dataclass(frozen=True)
class TorusTopology:
    """3D torus with wraparound links and rack-crossing penalties."""

    dims: tuple[int, int, int]
    #: Nodes per rack (Blue Gene/P: 1024).
    rack_size: int = 1024
    #: Extra hops charged when source and destination racks differ
    #: (inter-rack cabling and the extra switch chips on the path).
    rack_penalty_hops: int = 4
    #: What :meth:`hops` reads: the dimensions, the node count, the rack
    #: terms and, per dimension, a ring table (``ring[d]`` is the shorter
    #: way round for an offset ``d``).  Tables are O(x + y + z), so a
    #: 1M-node torus costs no memory per node.
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, y, z = self.dims
        rings = [tuple(min(d, k - d) for d in range(k)) for k in self.dims]
        tables = (x, y, x * y, x * y * z, self.rack_size, self.rack_penalty_hops, *rings)
        object.__setattr__(self, "_tables", tables)

    @classmethod
    def for_nodes(cls, num_nodes: int, **kwargs) -> "TorusTopology":
        return cls(torus_dims_for(num_nodes), **kwargs)

    @property
    def num_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def coordinates(self, node: int) -> tuple[int, int, int]:
        x, y, z = self.dims
        if not 0 <= node < x * y * z:
            raise ValueError(f"node {node} outside torus of {x * y * z}")
        return (node % x, (node // x) % y, node // (x * y))

    def hops(self, src: int, dst: int) -> int:
        """Torus Manhattan distance plus any rack-crossing penalty."""
        x, y, xy, n, rack, penalty, ring_x, ring_y, ring_z = self._tables
        if src >= n or dst >= n or (src | dst) < 0:
            raise ValueError(f"node {dst if 0 <= src < n else src} outside torus of {n}")
        # Per dimension (cf. coordinates()), the ring offset of the two
        # coordinates; z needs no modulo, as a negative index wraps.
        total = (
            ring_x[(src - dst) % x]
            + ring_y[(src // x - dst // x) % y]
            + ring_z[src // xy - dst // xy]
        )
        if src // rack != dst // rack:
            total += penalty
        return total

    def average_hops(self, num_nodes: int | None = None, samples: int = 512) -> float:
        """Mean hop count over a deterministic sample of node pairs."""
        n = num_nodes if num_nodes is not None else self.num_nodes
        n = min(n, self.num_nodes)
        if n <= 1:
            return 0.0
        total = 0.0
        count = 0
        # Deterministic low-discrepancy pair sample (golden-ratio stride).
        stride = max(1, int(n * 0.6180339887498949))
        src = 0
        for i in range(min(samples, n * 2)):
            dst = (src + stride + i) % n
            if dst != src:
                total += self.hops(src, dst)
                count += 1
            src = (src + 7919) % n
        return total / max(count, 1)


@dataclass(frozen=True)
class SwitchedTopology:
    """Flat switched Ethernet (the 64-node HEC-Cluster)."""

    num_nodes: int
    #: Hops through the switch fabric for any distinct pair.
    switch_hops: int = 1

    def hops(self, src: int, dst: int) -> int:
        if not 0 <= src < self.num_nodes or not 0 <= dst < self.num_nodes:
            raise ValueError("node outside topology")
        return 0 if src == dst else self.switch_hops

    def average_hops(self, num_nodes: int | None = None, samples: int = 0) -> float:
        n = num_nodes if num_nodes is not None else self.num_nodes
        if n <= 1:
            return 0.0
        # Fraction of pairs that are remote when targets are uniform.
        return self.switch_hops * (n - 1) / n
