"""Cluster plumbing for the scenario runner
(:mod:`repro.scenario.runner`): the harness-standard config for every
backend, and building / killing / repairing / quiescing the live ones
(``local`` / ``tcp`` / ``udp`` / ``sharded``; the ``sim`` cluster is a
:class:`~repro.sim.cluster.SimulatedCluster`, built by the runner's DES
loop).
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any

from ..api import build_local_cluster
from ..core.config import ZHTConfig
from ..core.manager import ManagerCore, Script
from ..core.membership import MembershipTable

if TYPE_CHECKING:
    from ..core.server import ZHTServerCore
    from ..faults.plan import FaultPlan


def default_config(backend: str, replicas: int) -> ZHTConfig:
    """The harness-standard config: fast timeouts, quick failure
    detection, a breaker scaled to the timeouts so flapping nodes are
    re-probed within a few op latencies.  On ``sim`` those are simulated
    seconds, so the timeout sits a few modeled round trips up."""
    timeout = {"local": 0.02, "sim": 0.005}.get(backend, 0.15)
    return ZHTConfig(
        transport="local" if backend in ("local", "sim") else
        ("tcp" if backend == "sharded" else backend),
        num_replicas=replicas,
        request_timeout=timeout,
        failures_before_dead=2,
        backoff_factor=1.5,
        max_retries=10,
        breaker_cooldown_s=timeout * 4,
        breaker_cooldown_max_s=timeout * 40,
    )


def build_cluster(backend: str, nodes: int, config: ZHTConfig, seed: int) -> Any:
    """Build a running cluster for any live backend (context manager)."""
    if backend == "local":
        return build_local_cluster(nodes, config, seed=seed)
    from ..net.cluster import (
        build_sharded_tcp_cluster,
        build_tcp_cluster,
        build_udp_cluster,
    )

    if backend == "sharded":
        return build_sharded_tcp_cluster(nodes, config, seed=seed)
    builder = build_udp_cluster if backend == "udp" else build_tcp_cluster
    return builder(nodes, config, seed=seed)


def kill_node(cluster: Any, backend: str, victim: str, plan: FaultPlan) -> None:
    """Hard-kill every instance of node *victim* on any backend and
    record the crash in *plan* so transports refuse to reach it."""
    addresses = [
        str(inst.address) for inst in cluster.membership.instances_on_node(victim)
    ]
    if backend in ("local", "sim"):
        cluster.kill_node(victim)
    else:
        for server in cluster.servers:
            # A sharded node advertises its shards' private addresses in
            # the membership table, not the shared bootstrap port.
            owned = {str(a) for a in getattr(server, "shard_addresses", [])}
            owned.add(str(server.address))
            if owned.intersection(addresses):
                server.stop()
    plan.crash_target(victim, *addresses)


def server_cores(cluster: Any, backend: str) -> list[ZHTServerCore]:
    """The in-process :class:`~repro.core.server.ZHTServerCore` list, for
    the store-level invariant checkers.  Sharded workers live in child
    processes, so their cores are not introspectable from here."""
    if backend == "local":
        return list(cluster.servers.values())
    return [
        core
        for core in (getattr(s, "core", None) for s in cluster.servers)
        if core is not None
    ]


def repair_script(
    membership: MembershipTable, victim: str, config: ZHTConfig, seed: int
) -> Script:
    """The manager repair script for *victim*, run from the first alive
    survivor (drive it with ``cluster.run`` / ``SimulatedCluster.run_script``)."""
    manager_node = next(
        n for n, info in membership.nodes.items() if info.alive and n != victim
    )
    manager = ManagerCore(
        manager_node, membership, config, rng=random.Random(seed ^ 0xC0DE)
    )
    return manager.repair_after_failure(victim)


def quiesce(backend: str) -> None:
    """Let in-flight async replica updates drain before the stores are
    judged (the in-process network delivers them synchronously)."""
    if backend != "local":
        time.sleep(0.2)
