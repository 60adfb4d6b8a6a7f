"""Cluster plumbing for the scenario runner
(:mod:`repro.scenario.runner`): the harness-standard config for every
backend, :func:`build_cluster` — the one place a backend name picks a
deployment (a cluster handle, see :class:`~repro.api.LiveCluster`) —
and the manager's repair script.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..api import LiveCluster, build_local_cluster
from ..core.config import ZHTConfig
from ..core.manager import ManagerCore, Script
from ..core.membership import MembershipTable
from ..net.cluster import build_sharded_tcp_cluster, build_tcp_cluster, build_udp_cluster
from ..sim.cluster import SimSpec, SimulatedCluster

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

_LIVE_BUILDERS: dict[str, Callable[..., LiveCluster]] = {
    "local": build_local_cluster,
    "tcp": build_tcp_cluster,
    "udp": build_udp_cluster,
    "sharded": build_sharded_tcp_cluster,
}


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


def build_cluster(
    backend: str,
    nodes: int,
    config: ZHTConfig,
    seed: int,
    faults: FaultPlan | None = None,
) -> LiveCluster | SimulatedCluster:
    """Build a running deployment for *backend* (a context manager).
    *faults* is the plan the DES enacts inside its own network; a live
    deployment meets its plan in its clients' transports
    (:class:`~repro.faults.transport.FaultyClientTransport`)."""
    if backend == "sim":
        return SimulatedCluster(
            SimSpec(num_nodes=nodes, seed=seed, faults=faults, config=config)
        )
    return _LIVE_BUILDERS[backend](nodes, config, seed=seed)


def repair_script(
    membership: MembershipTable, victim: str, config: ZHTConfig, seed: int
) -> Script:
    """The manager repair script for *victim*, run from the first alive
    survivor (run it with ``cluster.run`` or ``script_loop``)."""
    manager_node = next(
        n for n, info in membership.nodes.items() if info.alive and n != victim
    )
    manager = ManagerCore(
        manager_node, membership, config, rng=random.Random(seed ^ 0xC0DE)
    )
    return manager.repair_after_failure(victim)
