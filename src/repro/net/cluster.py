"""Real-socket cluster builders.

:func:`build_tcp_cluster` and :func:`build_udp_cluster` start a full ZHT
deployment on loopback sockets: listeners are bound first (to learn
their ephemeral ports), the membership table is built from the real
addresses, and then each server gets its **own copy** of the table —
unlike the shared-table local transport, socket deployments exercise the
membership broadcast and lazy-refresh paths exactly as separate
processes would.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..core.manager import Script
    from ..verify.history import HistoryRecorder

from ..api import ZHT, build_membership
from ..core.client import ZHTClientCore
from ..core.config import ZHTConfig
from ..core.manager import ManagerCore
from ..core.membership import MembershipTable
from ..core.server import ZHTServerCore
from .tcp import EventDrivenTCPServer, MultiplexedTCPClient, TCPClient
from .transport import ClientTransport, run_script
from .udp import UDPClient, UDPServer


class SocketCluster:
    """A running ZHT deployment over real loopback sockets."""

    def __init__(
        self,
        config: ZHTConfig,
        servers: list,
        membership: MembershipTable,
        client_factory: Callable[[], ClientTransport],
        rng: random.Random,
    ) -> None:
        self.config = config
        self.servers = servers
        self.membership = membership
        self._client_factory = client_factory
        self.rng = rng
        self._transports: list[ClientTransport] = []

    def client(
        self,
        *,
        seed: int | None = None,
        recorder: HistoryRecorder | None = None,
        client_id: str | None = None,
    ) -> ZHT:
        transport = self._client_factory()
        self._transports.append(transport)
        rng = random.Random(seed if seed is not None else self.rng.random())
        core = ZHTClientCore(self.membership.copy(), self.config, rng=rng)
        return ZHT(core, transport, recorder=recorder, client_id=client_id)

    def manager(self) -> ManagerCore:
        node_id = next(iter(self.membership.nodes))
        return ManagerCore(node_id, self.membership, self.config, rng=self.rng)

    def run(self, script: Script) -> object:
        transport = self._client_factory()
        self._transports.append(transport)
        return run_script(script, transport)

    def stop_server(self, index: int) -> None:
        """Hard-kill one server (fault injection on real sockets)."""
        self.servers[index].stop()

    def close(self) -> None:
        for transport in self._transports:
            transport.close()
        for server in self.servers:
            try:
                server.stop()
            except Exception:
                pass

    def __enter__(self) -> "SocketCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _build_socket_cluster(
    num_nodes: int,
    config: ZHTConfig,
    server_factory: Callable[[], object],
    client_factory: Callable[[], ClientTransport],
    seed: int,
) -> SocketCluster:
    rng = random.Random(seed)
    # 1. Bind all listeners to learn their addresses.
    total = num_nodes * config.instances_per_node
    servers = [server_factory() for _ in range(total)]
    addresses = [server.address for server in servers]
    index = iter(range(total))
    membership, _nodes, instances = build_membership(
        num_nodes,
        config,
        rng,
        port_allocator=lambda node_id, i: addresses[next(index)],
    )
    # 2. One core per server, each with a private copy of the table.
    for server, inst in zip(servers, instances):
        core = ZHTServerCore(inst, membership.copy(), config)
        server.attach_core(core)
        server.start()
    return SocketCluster(config, servers, membership, client_factory, rng)


def _tcp_client_factory(config: ZHTConfig) -> Callable[[], ClientTransport]:
    """The paper's two TCP client modes: with connection caching (one
    multiplexed socket per server) or, at ``connection_cache_size=0``,
    a fresh ``connect()`` per operation."""
    if config.connection_cache_size > 0:
        return MultiplexedTCPClient
    return lambda: TCPClient(cache_size=0)


def build_tcp_cluster(
    num_nodes: int,
    config: ZHTConfig | None = None,
    *,
    seed: int = 0,
) -> SocketCluster:
    """Start a ZHT deployment over TCP on loopback."""
    config = config or ZHTConfig(transport="tcp")
    return _build_socket_cluster(
        num_nodes, config, EventDrivenTCPServer, _tcp_client_factory(config), seed
    )


def build_sharded_tcp_cluster(
    num_nodes: int,
    config: ZHTConfig | None = None,
    *,
    seed: int = 0,
) -> SocketCluster:
    """Start a deployment of multi-core nodes (process-per-shard).

    Each "server" is one :class:`~repro.net.shard.ShardedNodeServer`
    forking ``config.num_shards`` worker processes; the membership table
    advertises every shard's **private** port so clients route zero-hop
    to the owning shard.  From the cluster API's point of view a node is
    one server (``stop_server`` kills all of its shards), matching how
    the chaos harness kills whole nodes.
    """
    from .shard import ShardedNodeServer

    config = config or ZHTConfig(transport="tcp", num_shards=2)
    shards = max(1, config.num_shards)
    rng = random.Random(seed)
    # 1. Bind every node's sockets up front to learn shard addresses.
    nodes = [
        ShardedNodeServer(config, num_shards=shards)
        for _ in range(num_nodes)
    ]
    addresses = {
        (node_index, shard_index): address
        for node_index, node in enumerate(nodes)
        for shard_index, address in enumerate(node.shard_addresses)
    }
    node_counter = iter(range(num_nodes))
    node_of: dict[str, int] = {}

    def _allocate(node_id: str, shard_index: int) -> "object":
        if node_id not in node_of:
            node_of[node_id] = next(node_counter)
        return addresses[(node_of[node_id], shard_index)]

    membership, _nodes, instances = build_membership(
        num_nodes,
        config.replace(instances_per_node=shards),
        rng,
        port_allocator=_allocate,
    )
    # 2. Hand each node its chunk of instances (build_membership yields
    # them grouped by node, ``instances_per_node`` at a time).
    for node_index, node in enumerate(nodes):
        chunk = instances[node_index * shards : (node_index + 1) * shards]
        node.attach_instances(membership.copy(), chunk)
        node.start()
    return SocketCluster(config, nodes, membership, _tcp_client_factory(config), rng)


def build_udp_cluster(
    num_nodes: int,
    config: ZHTConfig | None = None,
    *,
    seed: int = 0,
) -> SocketCluster:
    """Start a ZHT deployment over UDP (ack-per-message) on loopback."""
    config = config or ZHTConfig(transport="udp")
    return _build_socket_cluster(
        num_nodes, config, UDPServer, lambda: UDPClient(), seed
    )
