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
import itertools
import random
import threading
from typing import Callable, Self

from .core.client import BatchEntry, OpDriver, ZHTClientCore
from .core.config import ZHTConfig
from .core.errors import (
    KeyNotFound,
    RequestTimeout,
    Status,
    ZHTError,
    raise_for_status,
)
from .core.manager import ManagerCore
from .core.membership import (
    Address,
    InstanceInfo,
    MembershipTable,
    NodeInfo,
    correlated_instance_id,
    new_instance_id,
)
from .core.protocol import OpCode, Response
from .core.server import ZHTServerCore
from .net.local import LocalNetwork
from .net.transport import ClientTransport, execute_op, run_script


def _to_key(key: str | bytes) -> bytes:
    if type(key) is bytes:
        return key
    return key.encode("utf-8") if isinstance(key, str) else bytes(key)


def _to_value(value: str | bytes) -> bytes:
    if type(value) is bytes:
        return value
    return value.encode("utf-8") if isinstance(value, str) else bytes(value)


#: Process-wide default client ids (``client-0``, ``client-1``, ...).
_client_ids = itertools.count()

#: OpCode -> history op name for the recorder.
_OP_NAMES = {
    OpCode.INSERT: "insert",
    OpCode.LOOKUP: "lookup",
    OpCode.REMOVE: "remove",
    OpCode.APPEND: "append",
}


class ZHT:
    """Client handle for a ZHT deployment.

    Wraps a :class:`~repro.core.client.ZHTClientCore` (routing, retries,
    failover, lazy membership refresh) and a transport.  Keys and values
    may be ``str`` (encoded UTF-8) or ``bytes``.

    When *recorder* is given (or the ``ZHT_HISTORY`` environment
    variable names a JSONL path), every operation's invocation/response
    interval is captured for the consistency checker
    (:mod:`repro.verify`).  With no recorder the per-op cost of the hook
    is a single ``is None`` test.
    """

    def __init__(
        self,
        core: ZHTClientCore,
        transport: ClientTransport,
        *,
        recorder=None,
        client_id: str | None = None,
    ):
        self.core = core
        self.transport = transport
        if recorder is None:
            from .verify.history import recorder_from_env

            recorder = recorder_from_env()
        self.recorder = recorder
        self.client_id = (
            client_id
            if client_id is not None
            else f"client-{next(_client_ids)}"
        )
        # When the failure detector declares a node dead, drop any cached
        # connections to it so retries/failovers never target a socket
        # whose server has crashed.
        core.on_node_dead = self._evict_dead_node
        # Hot-key value cache (bounded LRU; see DESIGN.md §13).  Serves
        # repeat lookups of hot keys locally for up to hot_key_cache_ttl_s
        # after a fetch; every mutation of a key through this client
        # invalidates its entry on ack.  Cache hits are recorded as
        # bounded-stale reads (replica_index >= 2) — a served value can be
        # up to TTL + async-replication-lag old, so verify runs must use a
        # staleness bound of at least that.  LRUCache is not internally
        # synchronized; _cache_lock guards every access.
        self._hot_cache = None
        self._cache_lock = threading.Lock()
        if self.core.config.hot_key_cache_size > 0:
            from .net.lru import LRUCache

            self._hot_cache = LRUCache(self.core.config.hot_key_cache_size)

    def _evict_dead_node(self, node_id: str, addresses) -> None:
        for address in addresses:
            self.transport.evict(address)

    # -- hot-key cache ----------------------------------------------------

    def _cache_get(self, key: bytes) -> tuple[bytes, int] | None:
        """A fresh cached value for *key* as ``(value, effective_replica
        _index)``, or ``None``.  The effective index is clamped to >= 2 so
        the recorded event always lands in the checker's bounded-staleness
        model — a cached value is stale by construction, no matter which
        chain position served the original fetch."""
        cache = self._hot_cache
        if cache is None:
            return None
        now = self.core.clock()
        with self._cache_lock:
            entry = cache.get(key)
            if entry is not None:
                value, fetched_at, source_index = entry
                if now - fetched_at <= self.core.config.hot_key_cache_ttl_s:
                    self.core.stats.inc("hot_cache_hits")
                    return value, max(2, source_index)
                cache.pop(key)  # expired
        self.core.stats.inc("hot_cache_misses")
        return None

    def _cache_fill(
        self, key: bytes, value: bytes, fetched_at: float, source_index: int
    ) -> None:
        """Cache a freshly-fetched value if the key is hot (population is
        heat-gated so cold keys never displace hot entries)."""
        cache = self._hot_cache
        if cache is None or not self.core.is_hot(key):
            return
        with self._cache_lock:
            cache.put(key, (value, fetched_at, source_index))

    def _cache_invalidate(self, key: bytes) -> None:
        """Drop *key*'s cached value after a mutation ack.

        Called for failed mutations too: ZHT mutations are at-least-once,
        so a timed-out insert may still have applied server-side — keeping
        the pre-mutation value cached would extend its staleness past the
        TTL accounting."""
        cache = self._hot_cache
        if cache is None:
            return
        with self._cache_lock:
            dropped = cache.pop(key) is not None
        if dropped:
            self.core.stats.inc("hot_cache_invalidations")

    def _execute(self, op: OpCode, key: bytes, value: bytes = b"") -> "Response":
        """Drive one point operation (with the hot-key cache around it)."""
        if self._hot_cache is None:
            return self._run(self.core.driver(op, key, value))
        if op == OpCode.LOOKUP:
            hit = self._cache_get(key)
            if hit is not None:
                return self._serve_cache_hit(key, hit)
            fetched_at = self.core.clock() if self._hot_cache is not None else 0.0
        driver = self.core.driver(op, key, value)
        try:
            response = self._run(driver)
        finally:
            # Mutations (acked *or* ambiguous) drop the key's cached value.
            if op != OpCode.LOOKUP:
                self._cache_invalidate(key)
        if op == OpCode.LOOKUP:
            self._cache_fill(
                key, response.value, fetched_at, driver.entries[0].replica_index
            )
        return response

    def _run(self, driver: OpDriver) -> Response:
        """Drive *driver* to completion, recording one history event per
        entry when a recorder is set."""
        recorder = self.recorder
        if recorder is None:
            return execute_op(self.core, driver, self.transport)
        t_call = recorder.now()
        try:
            return execute_op(self.core, driver, self.transport)
        finally:
            t_return = recorder.now()
            for entry in driver.entries:
                self._record(driver.op, entry, t_call, t_return)

    def _record(
        self, op: OpCode, entry: BatchEntry, t_call: float, t_return: float
    ) -> None:
        """Record *entry*'s invocation/response interval for the checker,
        at the chain position that served it."""
        from .verify.history import STATUS_FAIL, STATUS_NOTFOUND, STATUS_OK

        status, result = STATUS_FAIL, b""
        if entry.status == Status.OK:
            status = STATUS_OK
            if op == OpCode.LOOKUP:
                result = entry.result
        elif entry.status == Status.KEY_NOT_FOUND and not (
            # A retried REMOVE that observes NOT_FOUND may have applied on
            # an earlier attempt whose ack was lost (ZHT mutations are
            # at-least-once), so its outcome is indefinite for the checker.
            op == OpCode.REMOVE and entry.attempts > 1
        ):
            status = STATUS_NOTFOUND
        self.recorder.record(
            self.client_id,
            _OP_NAMES[op],
            entry.key,
            entry.value,
            t_call,
            t_return,
            status,
            result=result,
            replica_index=entry.replica_index,
        )

    def _serve_cache_hit(self, key: bytes, hit: tuple[bytes, int]) -> Response:
        """Answer a lookup from the hot-key cache, recording it as a
        bounded-stale read at the clamped replica index."""
        value, replica_index = hit
        if self.recorder is not None:
            now = self.recorder.now()
            entry = BatchEntry(
                key, status=Status.OK, result=value, replica_index=replica_index
            )
            self._record(OpCode.LOOKUP, entry, now, self.recorder.now())
        return Response(status=Status.OK, value=value, op=int(OpCode.LOOKUP))

    # -- the four ZHT operations (§III.A) -------------------------------

    def insert(self, key: str | bytes, value: str | bytes) -> None:
        """Store *value* under *key*, overwriting any existing value."""
        self._execute(OpCode.INSERT, _to_key(key), _to_value(value))

    def lookup(self, key: str | bytes) -> bytes:
        """Return the value stored under *key*.

        Raises :class:`~repro.core.errors.KeyNotFound` if absent.
        """
        return self._execute(OpCode.LOOKUP, _to_key(key)).value

    def remove(self, key: str | bytes) -> None:
        """Delete *key*; raises :class:`KeyNotFound` if absent."""
        self._execute(OpCode.REMOVE, _to_key(key))

    def append(self, key: str | bytes, value: str | bytes) -> None:
        """Append *value* to the value under *key* (lock-free concurrent
        modification; creates the key if absent)."""
        self._execute(OpCode.APPEND, _to_key(key), _to_value(value))

    def lookup_at_replica(self, key: str | bytes, replica_index: int) -> bytes:
        """Read *key* directly from chain position *replica_index*.

        Positions >= 2 are asynchronously updated (weak/bounded
        consistency, §III.J); the recorded event carries the replica
        index so the checker applies the bounded-staleness model instead
        of linearizability.  Primarily a verification/diagnostic aid.
        """
        driver = self.core.driver(OpCode.LOOKUP, _to_key(key))
        driver.entries[0].replica_index = replica_index
        return self._run(driver).value

    # -- batched operations (one BATCH round trip per owner) -------------

    def _run_batch(
        self, op: OpCode, entries: list[BatchEntry]
    ) -> list[BatchEntry]:
        driver = self.core.driver_many(
            op, entries, max_bytes=self.transport.max_request_bytes
        )
        try:
            self._run(driver)
        except ZHTError:
            pass  # each entry carries its own outcome; the callers map them
        finally:
            # Batched mutations drop every touched key's cached value,
            # acked or not (a partially-applied batch is still a mutation).
            if op != OpCode.LOOKUP and self._hot_cache is not None:
                for entry in entries:
                    self._cache_invalidate(entry.key)
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
    def stats(self):
        return self.core.stats

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
        return run_script(script, self._transport())

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
