"""High-level public API for ZHT.

Most users interact with exactly two things:

* :class:`ZHT` — a client handle exposing the paper's four operations
  (``insert``, ``lookup``, ``remove``, ``append``) plus convenience
  helpers.
* a cluster builder — :func:`build_local_cluster` for an in-process
  deployment (tests, examples, integrations) or
  :func:`repro.net.cluster.build_tcp_cluster` /
  :func:`repro.net.cluster.build_udp_cluster` for real sockets.

Example::

    from repro import build_local_cluster

    cluster = build_local_cluster(num_nodes=4)
    zht = cluster.client()
    zht.insert("key", b"value")
    assert zht.lookup("key") == b"value"
    zht.append("key", b"+more")
    zht.remove("key")
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Self

from .core.client import BatchEntry, ZHTClientCore
from .core.config import ZHTConfig
from .core.errors import (
    KeyNotFound,
    RequestTimeout,
    Status,
    ZHTError,
    raise_for_status,
)
from .core.loops import OpClient, script_loop
from .core.manager import ManagerCore
from .core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    correlated_instance_id,
    new_instance_id,
)
from .core.protocol import OpCode
from .core.server import ZHTServerCore
from .net.local import LocalNetwork
from .net.transport import ClientTransport, drive


#: Bound once: reading a member through its enum class costs ~0.1 µs.
_INSERT, _LOOKUP, _REMOVE, _APPEND = OpCode.INSERT, OpCode.LOOKUP, OpCode.REMOVE, OpCode.APPEND


def _to_key(key: str | bytes) -> bytes:
    if type(key) is bytes:
        return key
    return key.encode("utf-8") if isinstance(key, str) else bytes(key)


def _to_value(value: str | bytes) -> bytes:
    if type(value) is bytes:
        return value
    return value.encode("utf-8") if isinstance(value, str) else bytes(value)


class ZHT(OpClient):
    """Client handle for a ZHT deployment.

    Wraps a :class:`~repro.core.client.ZHTClientCore` (routing, retries,
    failover, lazy membership refresh) and a transport, and runs the op
    loop of :class:`~repro.core.loops.OpClient` over that transport.
    Keys and values may be ``str`` (encoded UTF-8) or ``bytes``.

    When *recorder* is given (or the ``ZHT_HISTORY`` environment
    variable names a JSONL path), every operation's invocation/response
    interval is captured for the consistency checker
    (:mod:`repro.verify`).
    """

    timed = True

    def __init__(
        self,
        core: ZHTClientCore,
        transport: ClientTransport,
        *,
        recorder=None,
        client_id: str | None = None,
    ):
        if recorder is None:
            from .verify.history import recorder_from_env

            recorder = recorder_from_env()
        super().__init__(core, recorder=recorder, client_id=client_id)
        self.transport = transport
        # When the failure detector declares a node dead, drop any cached
        # connections to it so retries/failovers never target a socket
        # whose server has crashed.
        core.on_node_dead = self._evict_dead_node

    def _evict_dead_node(self, node_id: str, addresses) -> None:
        for address in addresses:
            self.transport.evict(address)

    # -- the four ZHT operations (§III.A) -------------------------------

    def insert(self, key: str | bytes, value: str | bytes) -> None:
        """Store *value* under *key*, overwriting any existing value."""
        drive(self.op(_INSERT, _to_key(key), _to_value(value)), self.transport)

    def lookup(self, key: str | bytes) -> bytes:
        """Return the value stored under *key*.

        Raises :class:`~repro.core.errors.KeyNotFound` if absent.
        """
        return drive(self.op(_LOOKUP, _to_key(key)), self.transport).value

    def remove(self, key: str | bytes) -> None:
        """Delete *key*; raises :class:`KeyNotFound` if absent."""
        drive(self.op(_REMOVE, _to_key(key)), self.transport)

    def append(self, key: str | bytes, value: str | bytes) -> None:
        """Append *value* to the value under *key* (lock-free concurrent
        modification; creates the key if absent)."""
        drive(self.op(_APPEND, _to_key(key), _to_value(value)), self.transport)

    def lookup_at_replica(self, key: str | bytes, replica_index: int) -> bytes:
        """Read *key* directly from chain position *replica_index*.

        Positions >= 2 are asynchronously updated (weak/bounded
        consistency, §III.J); the recorded event carries the replica
        index so the checker applies the bounded-staleness model instead
        of linearizability.  Primarily a verification/diagnostic aid.
        """
        loop = self.op(OpCode.LOOKUP, _to_key(key), replica_index=replica_index)
        return drive(loop, self.transport).value

    # -- batched operations (one BATCH round trip per owner) -------------

    def _run_batch(
        self, op: OpCode, entries: list[BatchEntry]
    ) -> list[BatchEntry]:
        driver = self.core.driver_many(
            op, entries, max_bytes=self.transport.max_request_bytes
        )
        try:
            drive(self.run(driver), self.transport)
        except ZHTError:
            pass  # each entry carries its own outcome; the callers map them
        return entries

    def insert_many(self, items) -> None:
        """Store many pairs with one BATCH round trip per owning instance.

        *items* is a mapping or an iterable of ``(key, value)`` pairs.
        All-or-error per key: the first per-key failure raises its mapped
        exception (other keys in the batch may still have been applied).
        """
        pairs = items.items() if hasattr(items, "items") else items
        entries = [
            BatchEntry(key=_to_key(k), value=_to_value(v)) for k, v in pairs
        ]
        for entry in self._run_batch(OpCode.INSERT, entries):
            if entry.error is not None:
                raise entry.error
            raise_for_status(entry.status, "INSERT")

    def append_many(self, items) -> None:
        """Append many fragments with one BATCH round trip per owning
        instance (same semantics as :meth:`append` per key)."""
        pairs = items.items() if hasattr(items, "items") else items
        entries = [
            BatchEntry(key=_to_key(k), value=_to_value(v)) for k, v in pairs
        ]
        for entry in self._run_batch(OpCode.APPEND, entries):
            if entry.error is not None:
                raise entry.error
            raise_for_status(entry.status, "APPEND")

    def lookup_many(self, keys) -> dict:
        """Fetch many keys at once; returns ``{key: value | None}``.

        Missing keys map to ``None`` (they fail individually without
        affecting their batch siblings); transport-level failures raise.
        """
        keys = list(keys)
        entries = [BatchEntry(key=_to_key(k)) for k in keys]
        self._run_batch(OpCode.LOOKUP, entries)
        result = {}
        for key, entry in zip(keys, entries):
            if entry.error is not None:
                raise entry.error
            if entry.status == Status.KEY_NOT_FOUND:
                result[key] = None
            else:
                raise_for_status(entry.status, "LOOKUP")
                result[key] = entry.result
        return result

    def remove_many(self, keys) -> dict:
        """Delete many keys at once; returns ``{key: was_present}``."""
        keys = list(keys)
        entries = [BatchEntry(key=_to_key(k)) for k in keys]
        self._run_batch(OpCode.REMOVE, entries)
        result = {}
        for key, entry in zip(keys, entries):
            if entry.error is not None:
                raise entry.error
            if entry.status == Status.KEY_NOT_FOUND:
                result[key] = False
            else:
                raise_for_status(entry.status, "REMOVE")
                result[key] = True
        return result

    # -- broadcast (§VI future-work primitive) ---------------------------

    def broadcast(self, key: str | bytes, value: str | bytes) -> None:
        """Disseminate a pair to *every* instance via a spanning tree.

        Each instance keeps the pair in a node-local broadcast store,
        readable with :meth:`lookup_broadcast`; delivery costs each
        participant at most two forwards (O(log N) levels) instead of N
        sends from this client.
        """
        from .core.broadcast import broadcast_order, make_broadcast_request

        order = broadcast_order(self.core.membership)
        if not order:
            raise ZHTError("no alive instances to broadcast to")
        request = make_broadcast_request(
            _to_key(key),
            _to_value(value),
            order,
            request_id=self.core.allocate_request_id(),
            epoch=self.core.membership.epoch,
        )
        response = self.transport.roundtrip(
            order[0], request, self.core.config.request_timeout
        )
        if response is None:
            raise RequestTimeout("broadcast root did not acknowledge")
        raise_for_status(response.status, "BROADCAST")

    def lookup_broadcast(
        self, key: str | bytes, instance_address=None
    ) -> bytes:
        """Read a broadcast pair from one instance's local store
        (defaults to the first alive instance in ring order)."""
        from .core.broadcast import broadcast_order
        from .core.protocol import Request

        if instance_address is None:
            order = broadcast_order(self.core.membership)
            if not order:
                raise ZHTError("no alive instances")
            instance_address = order[0]
        request = Request(
            op=OpCode.LOOKUP_LOCAL,
            key=_to_key(key),
            request_id=self.core.allocate_request_id(),
            epoch=self.core.membership.epoch,
        )
        response = self.transport.roundtrip(
            instance_address, request, self.core.config.request_timeout
        )
        if response is None:
            raise RequestTimeout("LOOKUP_LOCAL timed out")
        raise_for_status(response.status, "LOOKUP_LOCAL")
        return response.value

    # -- membership -------------------------------------------------------

    def refresh_membership(self, instance_address=None) -> bool:
        """Explicitly fetch a server's membership table (GET_MEMBERSHIP).

        Normal operation refreshes lazily from piggybacked tables and
        redirects; this forces a round trip — useful after a topology
        change when the client has been idle.  Returns True when a
        strictly newer table was adopted.
        """
        from .core.broadcast import broadcast_order
        from .core.protocol import Request

        if instance_address is None:
            order = broadcast_order(self.core.membership)
            if not order:
                raise ZHTError("no alive instances")
            instance_address = order[0]
        request = Request(
            op=OpCode.GET_MEMBERSHIP,
            request_id=self.core.allocate_request_id(),
            epoch=self.core.membership.epoch,
        )
        response = self.transport.roundtrip(
            instance_address, request, self.core.config.request_timeout
        )
        if response is None:
            raise RequestTimeout("GET_MEMBERSHIP timed out")
        raise_for_status(response.status, "GET_MEMBERSHIP")
        if not response.membership:
            return False
        return self.core.adopt_membership(response.membership)

    # -- conveniences -----------------------------------------------------

    def get(self, key: str | bytes, default: bytes | None = None) -> bytes | None:
        """Like :meth:`lookup` but returns *default* instead of raising."""
        try:
            return self.lookup(key)
        except KeyNotFound:
            return default

    def contains(self, key: str | bytes) -> bool:
        return self.get(key) is not None

    @property
    def membership(self) -> MembershipTable:
        return self.core.membership


class LiveCluster(abc.ABC):
    """The half every live deployment shares: clients, managers and
    manager-script runs over its transport.  Every cluster handle, this
    or the DES's :class:`~repro.sim.cluster.SimulatedCluster`, answers
    ``kill_node``, ``cores`` and ``close`` (also on ``with`` exit)."""

    def __init__(
        self, config: ZHTConfig, membership: MembershipTable, rng: random.Random
    ):
        self.config = config
        self.membership = membership
        self.rng = rng

    @abc.abstractmethod
    def _transport(self) -> ClientTransport:
        """The transport a new client or script run goes over."""

    @property
    @abc.abstractmethod
    def cores(self) -> list[ZHTServerCore]:
        """The server cores living in this process."""

    @abc.abstractmethod
    def kill_node(self, node_id: str) -> list[Address]:
        """Kill every instance of *node_id*; returns their addresses."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop the deployment; a second call does nothing."""

    def client(
        self,
        *,
        seed: int | None = None,
        recorder=None,
        client_id: str | None = None,
    ) -> ZHT:
        """A new client with its own copy of the membership table."""
        rng = random.Random(seed if seed is not None else self.rng.random())
        core = ZHTClientCore(self.membership.copy(), self.config, rng=rng)
        return ZHT(core, self._transport(), recorder=recorder, client_id=client_id)

    def manager(self, node_id: str | None = None) -> ManagerCore:
        """A manager bound to the authoritative membership table."""
        if node_id is None:
            node_id = next(iter(self.membership.nodes))
        return ManagerCore(node_id, self.membership, self.config, rng=self.rng)

    def run(self, script) -> object:
        """Execute a manager script against the cluster."""
        return drive(script_loop(script, self.config), self._transport())

    def quiesce(self) -> None:
        """Wait for in-flight asynchronous replica updates to land."""

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalCluster(LiveCluster):
    """An in-process ZHT deployment over :class:`LocalNetwork`.

    Holds the authoritative membership table, the server cores, and a
    manager per node.  Suitable for tests, the examples, and as the
    substrate for FusionFS / IStore / MATRIX integrations.  Its network
    delivers every message, replica updates included, synchronously.
    """

    def __init__(
        self,
        config: ZHTConfig,
        network: LocalNetwork,
        membership: MembershipTable,
        servers: dict[str, ZHTServerCore],
        rng: random.Random,
    ):
        super().__init__(config, membership, rng)
        self.network = network
        self.servers = servers
        self._next_port = 20000 + len(servers)

    def _transport(self) -> ClientTransport:
        return self.network

    @property
    def cores(self) -> list[ZHTServerCore]:
        return list(self.servers.values())

    # -- topology changes ---------------------------------------------------

    def add_node(
        self, instances_per_node: int | None = None
    ) -> tuple[NodeInfo, list[InstanceInfo]]:
        """Dynamically join a fresh node (returns its infos).

        Reproduces the §III.C join protocol: the joiner copies the table,
        takes partitions from the most-loaded node, and the delta is
        broadcast.
        """
        count = instances_per_node or self.config.instances_per_node
        node_id = f"node-{len(self.membership.nodes):04d}"
        manager_addr = Address(node_id, 1)
        node = NodeInfo(node_id, manager_addr)
        instances = []
        for _ in range(count):
            self._next_port += 1
            instances.append(
                InstanceInfo(
                    new_instance_id(self.rng), node_id, Address(node_id, self._next_port)
                )
            )
        # Start the new instances' servers first, so the join's partition
        # migrations find them reachable.
        for inst in instances:
            core = ZHTServerCore(inst, self.membership, self.config)
            self.servers[inst.instance_id] = core
            self.network.add_server(core)
        manager = self.manager()
        self.run(manager.join_node(node, instances))
        return node, instances

    def retire_node(self, node_id: str) -> object:
        manager = self.manager(
            next(n for n in self.membership.nodes if n != node_id)
        )
        return self.run(manager.retire_node(node_id))

    def kill_node(self, node_id: str) -> list[Address]:
        """Abruptly fail every instance on *node_id* (fault injection)."""
        addresses = [i.address for i in self.membership.instances_on_node(node_id)]
        self.network.kill_node(addresses)
        return addresses

    def repair(self, dead_node_id: str) -> object:
        manager = self.manager(
            next(
                n
                for n, info in self.membership.nodes.items()
                if n != dead_node_id and info.alive
            )
        )
        return self.run(manager.repair_after_failure(dead_node_id))

    # -- introspection -------------------------------------------------------

    def server_for_instance(self, instance_id: str) -> ZHTServerCore:
        return self.servers[instance_id]

    def total_pairs(self) -> int:
        """Total primary+replica pairs stored across all instances."""
        return sum(
            len(part.store)
            for server in self.servers.values()
            for part in server.partitions.values()
        )

    def close(self) -> None:
        self.network.close()


def build_membership(
    num_nodes: int,
    config: ZHTConfig,
    rng: random.Random,
    *,
    host_prefix: str = "node",
    base_port: int = 20000,
    port_allocator: Callable[[str, int], Address] | None = None,
    network_aware: bool = False,
) -> tuple[MembershipTable, list[NodeInfo], list[InstanceInfo]]:
    """Construct a bootstrap membership table for *num_nodes* nodes with
    ``config.instances_per_node`` instances each.

    ``network_aware=True`` assigns instance ids correlated with node
    order (§III.A / §VI "network-aware topology"): ring neighbors become
    network neighbors, so replica chains stay local.
    """
    nodes: list[NodeInfo] = []
    instances: list[InstanceInfo] = []
    port = base_port
    for n in range(num_nodes):
        node_id = f"{host_prefix}-{n:04d}"
        nodes.append(NodeInfo(node_id, Address(node_id, 1)))
        for i in range(config.instances_per_node):
            if port_allocator is not None:
                address = port_allocator(node_id, i)
            else:
                port += 1
                address = Address(node_id, port)
            instance_id = (
                correlated_instance_id(n, i, rng)
                if network_aware
                else new_instance_id(rng)
            )
            instances.append(InstanceInfo(instance_id, node_id, address))
    table = MembershipTable.bootstrap(config.num_partitions, nodes, instances)
    return table, nodes, instances


def build_local_cluster(
    num_nodes: int,
    config: ZHTConfig | None = None,
    *,
    seed: int = 0,
) -> LocalCluster:
    """Build and start an in-process ZHT deployment.

    Every instance shares the cluster's authoritative membership table
    object (servers in one address space see updates immediately, like
    co-located clients/servers sharing a table in the paper's 1:1
    deployment); clients get their own copies and exercise the lazy
    update path.
    """
    config = config or ZHTConfig(transport="local")
    rng = random.Random(seed)
    membership, _nodes, instances = build_membership(num_nodes, config, rng)
    network = LocalNetwork()
    servers: dict[str, ZHTServerCore] = {}
    for inst in instances:
        core = ZHTServerCore(inst, membership, config)
        servers[inst.instance_id] = core
        network.add_server(core)
    return LocalCluster(config, network, membership, servers, rng)
