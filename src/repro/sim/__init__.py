"""Discrete-event simulation substrate for scale experiments.

The paper validated a PeerSim simulation against ≤8K-node Blue Gene/P
runs (3% average error) and used it beyond; this package plays the same
role: :mod:`~repro.sim.engine` is the DES kernel,
:mod:`~repro.sim.cluster` runs real ZHT cores over modeled networks,
:mod:`~repro.sim.network` holds the calibrated constants, and
:mod:`~repro.sim.analytic` extends Figure 11 to 1M nodes in closed form.
"""

from ..workload import (
    KEY_BYTES,
    VALUE_BYTES,
    AppendWorkload,
    MicroBenchmarkWorkload,
    ZipfWorkload,
)
from .analytic import (
    FIG11_SCALES,
    predicted_efficiency,
    predicted_latency_ms,
    predicted_throughput_ops_s,
)
from .cluster import SimSpec, SimulatedCluster, simulate
from .engine import Environment, Event, Process, Resource, SimError, Store
from .metrics import LatencyStats, RunResult
from .network import (
    BGP_TORUS_LINK,
    CASSANDRA_CLUSTER,
    CLUSTER_ETHERNET_LINK,
    MEMCACHED_BGP,
    MEMCACHED_CLUSTER,
    ZHT_BGP,
    ZHT_BGP_NO_CONN_CACHE,
    ZHT_CLUSTER,
    LinkModel,
    LogRoutingServiceModel,
    ServiceModel,
    zht_instance_service,
)
from .topology import SwitchedTopology, TorusTopology, torus_dims_for

__all__ = [
    "AppendWorkload",
    "BGP_TORUS_LINK",
    "CASSANDRA_CLUSTER",
    "CLUSTER_ETHERNET_LINK",
    "Environment",
    "Event",
    "FIG11_SCALES",
    "KEY_BYTES",
    "LatencyStats",
    "LinkModel",
    "LogRoutingServiceModel",
    "MEMCACHED_BGP",
    "MEMCACHED_CLUSTER",
    "MicroBenchmarkWorkload",
    "Process",
    "Resource",
    "RunResult",
    "ServiceModel",
    "SimError",
    "SimSpec",
    "SimulatedCluster",
    "Store",
    "SwitchedTopology",
    "TorusTopology",
    "VALUE_BYTES",
    "ZHT_BGP",
    "ZHT_BGP_NO_CONN_CACHE",
    "ZHT_CLUSTER",
    "ZipfWorkload",
    "predicted_efficiency",
    "predicted_latency_ms",
    "predicted_throughput_ops_s",
    "simulate",
    "torus_dims_for",
    "zht_instance_service",
]
