"""Membership management for ZHT (§III.C).

Every ZHT participant holds a complete **membership table**: the set of
physical nodes, the ZHT instances running on them, and the assignment of
every partition to its owning instance.  Because the table is complete,
routing is zero-hop — ``hash(key) → partition → owning instance`` is a
purely local computation.

The table is versioned by an **epoch** that increases on every change
(join, departure, failure, partition reassignment).  Updates propagate
two ways, both reproduced from the paper:

* managers broadcast incremental deltas after a migration commits, and
* clients are updated **lazily**: a server that receives a request carrying
  a stale epoch piggybacks the latest table on its response ("Only when
  the requests are sent mistakenly, the ZHT instance will send back a copy
  of latest membership table to the clients").

Replica placement follows the paper's proximity rule: replicas of a
partition live on the instances that follow the owner in ring (UUID)
order, skipping instances on the owner's physical node ("replicated
asynchronously to nodes in close proximity (according to the UUID) of the
original hashed location").
"""

from __future__ import annotations

import json
import random
import uuid as _uuid
from dataclasses import dataclass, replace

from .errors import MembershipError
from .hashing import partition_of


@dataclass(frozen=True, order=True)
class Address:
    """Communication address of a ZHT instance or manager.

    ``host`` is an IP/hostname for real transports or an opaque node name
    in the simulator; ``port`` disambiguates instances sharing a host
    ("Each physical node may have several ZHT instances which are
    differentiated with IP address and port").
    """

    host: str
    port: int

    def to_obj(self) -> list:
        return [self.host, self.port]

    @classmethod
    def from_obj(cls, obj: "tuple[object, object] | list[object]") -> "Address":
        return cls(str(obj[0]), int(obj[1]))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class InstanceInfo:
    """One ZHT instance (a server process owning some partitions)."""

    instance_id: str  # 32-hex-char UUID; its integer value is the ring position
    node_id: str
    address: Address

    @property
    def ring_position(self) -> int:
        return int(self.instance_id, 16)

    def to_obj(self) -> dict:
        return {
            "id": self.instance_id,
            "node": self.node_id,
            "addr": self.address.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "InstanceInfo":
        return cls(obj["id"], obj["node"], Address.from_obj(obj["addr"]))


@dataclass(frozen=True)
class NodeInfo:
    """One physical node, hosting a manager and ≥1 instances."""

    node_id: str
    manager_address: Address
    alive: bool = True

    def to_obj(self) -> dict:
        return {
            "id": self.node_id,
            "mgr": self.manager_address.to_obj(),
            "alive": self.alive,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "NodeInfo":
        return cls(obj["id"], Address.from_obj(obj["mgr"]), bool(obj["alive"]))


def new_instance_id(rng: "random.Random | None" = None) -> str:
    """Mint a universally-unique instance id (ring position)."""
    if rng is not None:
        return f"{rng.getrandbits(128):032x}"
    return _uuid.uuid4().hex


def correlated_instance_id(
    node_index: int, instance_index: int = 0, rng: "random.Random | None" = None
) -> str:
    """Mint an instance id whose ring position tracks network position.

    "The node ids in ZHT can be randomly distributed throughout the
    network, or they can be closely correlated with the network distance
    between nodes.  The correlation can generally be computed from
    information such as MPI rank or IP address." (§III.A)  The high 32
    bits encode ``node_index`` (the MPI-rank analogue), so ring neighbors
    — and therefore replica chains, which follow ring order — are network
    neighbors.  The low bits stay random for uniqueness.
    """
    if not 0 <= node_index < 1 << 24:
        raise ValueError("node_index out of range")
    if not 0 <= instance_index < 1 << 8:
        raise ValueError("instance_index out of range")
    high = (node_index << 8) | instance_index
    low = rng.getrandbits(96) if rng is not None else _uuid.uuid4().int >> 32
    return f"{high:08x}{low:024x}"


class MembershipTable:
    """The complete, versioned view of a ZHT deployment.

    All mutating methods bump :attr:`epoch`.  The table is cheap to copy
    (:meth:`copy`), so clients and servers can hold independent snapshots
    and reconcile via epochs.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.epoch = 0
        self.nodes: dict[str, NodeInfo] = {}
        self.instances: dict[str, InstanceInfo] = {}
        #: partition index -> owning instance_id ("" = unassigned)
        self.partition_owner: list[str] = [""] * num_partitions
        self._ring_cache: list[InstanceInfo] | None = None
        #: ``(pid, num_replicas) -> (chain, first alive position)`` for
        #: this epoch; see :meth:`route`.  Replaced, never cleared, so a
        #: reader racing a mutation fills the table being thrown away.
        self._routes: dict[tuple[int, int], tuple[tuple[InstanceInfo, ...], int]] = {}

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        num_partitions: int,
        nodes: list[NodeInfo],
        instances: list[InstanceInfo],
    ) -> "MembershipTable":
        """Build the initial static-membership table.

        "In static membership, every node at bootstrap time has all
        information about how to contact every other node in ZHT."
        Partitions are dealt to instances as contiguous, nearly-equal
        ranges of the ring, so each of the *i* instances holds ``n/i``
        partitions.
        """
        if not instances:
            raise MembershipError("cannot bootstrap with zero instances")
        if len(instances) > num_partitions:
            raise MembershipError(
                f"{len(instances)} instances exceed {num_partitions} partitions; "
                "num_partitions is the maximum deployment size"
            )
        node_ids = {n.node_id for n in nodes}
        for inst in instances:
            if inst.node_id not in node_ids:
                raise MembershipError(
                    f"instance {inst.instance_id} references unknown node "
                    f"{inst.node_id}"
                )
        table = cls(num_partitions)
        table.nodes = {n.node_id: n for n in nodes}
        table.instances = {i.instance_id: i for i in instances}
        ordered = sorted(instances, key=lambda i: i.ring_position)
        k = len(ordered)
        for idx, inst in enumerate(ordered):
            start = idx * num_partitions // k
            end = (idx + 1) * num_partitions // k
            for pid in range(start, end):
                table.partition_owner[pid] = inst.instance_id
        table.epoch = 1
        return table

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def partition_of_key(self, key: bytes | str, hash_name: str) -> int:
        return partition_of(key, self.num_partitions, hash_name)

    def owner_of_partition(self, pid: int) -> InstanceInfo:
        iid = self.partition_owner[pid]
        if not iid:
            raise MembershipError(f"partition {pid} is unassigned")
        return self.instances[iid]

    def lookup_instance(self, key: bytes | str, hash_name: str) -> InstanceInfo:
        """Zero-hop route: the instance owning *key*'s partition."""
        return self.owner_of_partition(self.partition_of_key(key, hash_name))

    def ring_order(self) -> list[InstanceInfo]:
        """Instances sorted by ring position (UUID value)."""
        if self._ring_cache is None:
            self._ring_cache = sorted(
                self.instances.values(), key=lambda i: i.ring_position
            )
        return self._ring_cache

    def replicas_for_partition(
        self,
        pid: int,
        num_replicas: int,
        *,
        assume_alive: str | None = None,
    ) -> list[InstanceInfo]:
        """Replica chain for *pid*: owner first, then ``num_replicas``
        successors on the ring located on *distinct, alive* physical nodes.

        ``assume_alive`` treats that one node as alive regardless of its
        flag — repair uses it to reconstruct the chain as it stood before
        a node died, so it can find every partition that lost a copy.
        """
        owner = self.owner_of_partition(pid)
        chain = [owner]
        if num_replicas <= 0:
            return chain
        ring = self.ring_order()
        start = next(
            i for i, inst in enumerate(ring) if inst.instance_id == owner.instance_id
        )
        used_nodes = {owner.node_id}
        for offset in range(1, len(ring)):
            inst = ring[(start + offset) % len(ring)]
            node = self.nodes.get(inst.node_id)
            if node is None or inst.node_id in used_nodes:
                continue
            if not node.alive and inst.node_id != assume_alive:
                continue
            chain.append(inst)
            used_nodes.add(inst.node_id)
            if len(chain) == num_replicas + 1:
                break
        return chain

    def route(
        self, pid: int, num_replicas: int
    ) -> tuple[tuple[InstanceInfo, ...], int]:
        """The per-epoch route table: *pid*'s replica chain and the first
        chain position whose node is alive (-1 if none is) — what a per-op
        caller needs from :meth:`replicas_for_partition`, as one dict
        probe.  Only the owner can sit on a dead node (successors are
        chosen alive), so every later position is alive too.  Any mutation
        drops the cache; callers must not keep a route across operations.
        """
        routes = self._routes
        hit = routes.get((pid, num_replicas))
        if hit is None:
            chain = tuple(self.replicas_for_partition(pid, num_replicas))
            first = -1
            for index, inst in enumerate(chain):
                node = self.nodes.get(inst.node_id)
                if node is not None and node.alive:
                    first = index
                    break
            hit = routes[(pid, num_replicas)] = (chain, first)
        return hit

    def instances_on_node(self, node_id: str) -> list[InstanceInfo]:
        return [i for i in self.instances.values() if i.node_id == node_id]

    def partitions_of_instance(self, instance_id: str) -> list[int]:
        return [
            pid
            for pid, owner in enumerate(self.partition_owner)
            if owner == instance_id
        ]

    def partitions_of_node(self, node_id: str) -> list[int]:
        owned = {i.instance_id for i in self.instances_on_node(node_id)}
        return [
            pid for pid, owner in enumerate(self.partition_owner) if owner in owned
        ]

    def most_loaded_node(self) -> str:
        """Node holding the most partitions (a joiner's migration source:
        "the new node can find the physical nodes with the most partitions,
        then join the ring as this heavily loaded node's neighbor").
        """
        alive = [n for n in self.nodes.values() if n.alive]
        if not alive:
            raise MembershipError("no alive nodes")
        return max(alive, key=lambda n: len(self.partitions_of_node(n.node_id))).node_id

    # ------------------------------------------------------------------
    # Mutation (each bumps the epoch)
    # ------------------------------------------------------------------

    def _drop_caches(self) -> None:
        self._ring_cache = None
        self._routes = {}

    def _bump(self) -> None:
        self.epoch += 1
        self._drop_caches()

    def add_node(self, node: NodeInfo) -> None:
        if node.node_id in self.nodes:
            raise MembershipError(f"node {node.node_id} already present")
        self.nodes[node.node_id] = node
        self._bump()

    def add_instance(self, inst: InstanceInfo) -> None:
        if inst.instance_id in self.instances:
            raise MembershipError(f"instance {inst.instance_id} already present")
        if inst.node_id not in self.nodes:
            raise MembershipError(f"instance references unknown node {inst.node_id}")
        if len(self.instances) >= self.num_partitions:
            raise MembershipError("instance count would exceed partition count")
        self.instances[inst.instance_id] = inst
        self._bump()

    def remove_instance(self, instance_id: str) -> None:
        if instance_id not in self.instances:
            raise MembershipError(f"unknown instance {instance_id}")
        if self.partitions_of_instance(instance_id):
            raise MembershipError(
                f"instance {instance_id} still owns partitions; migrate first"
            )
        del self.instances[instance_id]
        self._bump()

    def remove_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise MembershipError(f"unknown node {node_id}")
        remaining = self.instances_on_node(node_id)
        if remaining:
            raise MembershipError(
                f"node {node_id} still hosts instances; remove them first"
            )
        del self.nodes[node_id]
        self._bump()

    def mark_node_dead(self, node_id: str) -> None:
        """Failure detector verdict: "mark the entire physical node
        unavailable on its local membership table"."""
        node = self.nodes.get(node_id)
        if node is None:
            raise MembershipError(f"unknown node {node_id}")
        if node.alive:
            self.nodes[node_id] = replace(node, alive=False)
            self._bump()

    def mark_node_alive(self, node_id: str) -> None:
        """Revive a node in this local view (circuit-breaker half-open
        re-probe, or a manager-confirmed recovery)."""
        node = self.nodes.get(node_id)
        if node is None:
            raise MembershipError(f"unknown node {node_id}")
        if not node.alive:
            self.nodes[node_id] = replace(node, alive=True)
            self._bump()

    def reassign_partition(self, pid: int, new_instance_id: str) -> None:
        if not 0 <= pid < self.num_partitions:
            raise MembershipError(f"partition {pid} out of range")
        if new_instance_id not in self.instances:
            raise MembershipError(f"unknown instance {new_instance_id}")
        self.partition_owner[pid] = new_instance_id
        self._bump()

    # ------------------------------------------------------------------
    # Serialization & reconciliation
    # ------------------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "epoch": self.epoch,
            "nodes": [n.to_obj() for n in self.nodes.values()],
            "instances": [i.to_obj() for i in self.instances.values()],
            "owners": self._owners_rle(),
        }

    def _owners_rle(self) -> list:
        """Run-length-encode the owner list (contiguous ranges compress
        to almost nothing, keeping the <1%-of-memory footprint goal)."""
        runs: list[list] = []
        for owner in self.partition_owner:
            if runs and runs[-1][0] == owner:
                runs[-1][1] += 1
            else:
                runs.append([owner, 1])
        return runs

    @classmethod
    def from_obj(cls, obj: dict) -> "MembershipTable":
        table = cls(int(obj["num_partitions"]))
        table.epoch = int(obj["epoch"])
        table.nodes = {
            n["id"]: NodeInfo.from_obj(n) for n in obj["nodes"]
        }
        table.instances = {
            i["id"]: InstanceInfo.from_obj(i) for i in obj["instances"]
        }
        owners: list[str] = []
        for owner, count in obj["owners"]:
            owners.extend([owner] * count)
        if len(owners) != table.num_partitions:
            raise MembershipError("owner RLE does not cover the partition space")
        table.partition_owner = owners
        return table

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_obj(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MembershipTable":
        try:
            return cls.from_obj(json.loads(data.decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise MembershipError(f"bad membership payload: {exc}") from exc

    def copy(self) -> "MembershipTable":
        return MembershipTable.from_bytes(self.to_bytes())

    def maybe_adopt(self, other: "MembershipTable") -> bool:
        """Adopt *other*'s state if it is strictly newer; return True if so.

        This is the lazy-update receive path on clients and the broadcast
        receive path on managers.
        """
        if other.epoch <= self.epoch:
            return False
        if other.num_partitions != self.num_partitions:
            raise MembershipError(
                "cannot adopt table with a different partition count"
            )
        self.nodes = dict(other.nodes)
        self.instances = dict(other.instances)
        self.partition_owner = list(other.partition_owner)
        self.epoch = other.epoch
        self._drop_caches()
        return True

    def memory_footprint_bytes(self) -> int:
        """Estimated serialized footprint — the paper budgets ~32 B/node,
        "1 million nodes only need 32MB memory"."""
        return len(self.to_bytes())
