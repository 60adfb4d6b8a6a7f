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
import time
from typing import Callable

from ..api import LiveCluster, build_membership
from ..core.config import ZHTConfig
from ..core.membership import Address, MembershipTable
from ..core.server import ZHTServerCore
from .tcp import EventDrivenTCPServer, MultiplexedTCPClient
from .transport import ClientTransport
from .udp import UDPClient, UDPServer


class SocketCluster(LiveCluster):
    """A running ZHT deployment over real loopback sockets.  *servers*
    are the listening servers, one per instance, or one per node when
    sharded; *cores* are the server cores that live in this process."""

    def __init__(
        self,
        config: ZHTConfig,
        servers: list,
        membership: MembershipTable,
        client_factory: Callable[[], ClientTransport],
        rng: random.Random,
        cores: list[ZHTServerCore] | None = None,
    ) -> None:
        super().__init__(config, membership, rng)
        self.servers = servers
        self._cores = cores or []
        self._client_factory = client_factory
        self._transports: list[ClientTransport] = []

    def _transport(self) -> ClientTransport:
        transport = self._client_factory()
        self._transports.append(transport)
        return transport

    @property
    def cores(self) -> list[ZHTServerCore]:
        return self._cores

    def kill_node(self, node_id: str) -> list[Address]:
        """Hard-kill every server of *node_id*; a sharded node's
        addresses are its shards'."""
        addresses = [i.address for i in self.membership.instances_on_node(node_id)]
        for server in self.servers:
            served = getattr(server, "shard_addresses", None) or [server.address]
            if not set(served).isdisjoint(addresses):
                server.stop()
        return addresses

    def quiesce(self) -> None:
        """Replica updates travel over sockets: give them time to land."""
        time.sleep(0.2)

    def close(self) -> None:
        transports, self._transports = self._transports, []
        for transport in transports:
            transport.close()
        for server in self.servers:
            try:
                server.stop()
            except Exception:
                pass


def _build_socket_cluster(
    num_nodes: int,
    config: ZHTConfig,
    server_factory: Callable[[], object],
    client_factory: Callable[[], ClientTransport],
    seed: int,
) -> SocketCluster:
    rng = random.Random(seed)
    # 1. Bind all listeners to learn their addresses.
    servers = [server_factory() for _ in range(num_nodes * config.instances_per_node)]
    addresses = iter([server.address for server in servers])
    membership, _nodes, instances = build_membership(
        num_nodes, config, rng, port_allocator=lambda node_id, i: next(addresses)
    )
    # 2. One core per server, each with a private copy of the table.
    cores = [ZHTServerCore(inst, membership.copy(), config) for inst in instances]
    for server, core in zip(servers, cores):
        server.attach_core(core)
        server.start()
    return SocketCluster(config, servers, membership, client_factory, rng, cores)


def _tcp_client_factory(config: ZHTConfig) -> Callable[[], ClientTransport]:
    """The paper's two TCP client modes: with connection caching (one
    multiplexed socket per server) or, at ``connection_cache_size=0``,
    a fresh ``connect()`` per operation."""
    cached = config.connection_cache_size > 0
    return lambda: MultiplexedTCPClient(cache_connections=cached)


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

    Each "server" is one :class:`~repro.net.shard.ShardedNodeServer`:
    ``config.num_shards`` instances, each a forked worker process on the
    private port the membership table advertises for it, so clients
    route zero-hop to the owning shard.  From the cluster API's point of
    view a node is one server (``kill_node`` kills all of its shards),
    and its server cores live in the shard processes, so ``cores`` is
    empty.  A standalone node is ``build_sharded_tcp_cluster(1, config)``.
    """
    from .shard import ShardedNodeServer

    config = config or ZHTConfig(transport="tcp", num_shards=2)
    shards = config.num_shards
    rng = random.Random(seed)
    # 1. Bind every node's sockets up front to learn shard addresses
    # (build_membership asks for them node by node, shard by shard).
    nodes = [ShardedNodeServer(config) for _ in range(num_nodes)]
    addresses = iter([address for node in nodes for address in node.shard_addresses])
    membership, _nodes, instances = build_membership(
        num_nodes,
        config.replace(instances_per_node=shards),
        rng,
        port_allocator=lambda node_id, i: next(addresses),
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
