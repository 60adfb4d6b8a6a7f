"""Deterministic fault injection for ZHT deployments.

The paper's fault-tolerance story (§III.H: timeout detection with
exponential backoff, replica failover, manager-driven re-replication) is
implemented across ``repro.core``, ``repro.net``, and ``repro.sim`` —
this package exercises it as a whole:

* :mod:`~repro.faults.plan` — :class:`FaultPlan`, one seeded schedule
  format for every fault class (message drop/delay/duplicate, connection
  reset, node crash/stall, fsync loss, torn WAL tail).
* :mod:`~repro.faults.transport` — :class:`FaultyClientTransport`, a
  wrapper applying a plan around any :class:`~repro.net.transport.ClientTransport`.
* :mod:`~repro.faults.files` — :class:`FaultyWALFile`, the file-level
  shim simulating crashes with un-synced or torn WAL tails.
* :mod:`~repro.faults.invariants` — the one judge of the core invariant
  (an *acknowledged* write survives any single node failure under
  replication): :class:`AckLedger` models the acked INSERTs, REMOVEs and
  APPEND fragments, and :func:`audit_acked_writes` reads each key once
  and walks its copies once for durability, divergence, replication
  level and convergence.

The end-to-end kill → failover → repair → verify run
(``python -m repro chaos``, :func:`run_chaos`) is a synthesised scenario
executed by :mod:`repro.scenario.runner`, on the local/TCP/UDP/sharded
backends and inside the DES.
"""

from ..scenario.frontends import run_chaos
from .files import FaultyWALFile, corrupt_byte, faulty_wal_opener, tear_tail
from .invariants import AckLedger, Audit, audit_acked_writes
from .plan import (
    VICTIM_TARGET,
    FaultKind,
    FaultPlan,
    FaultRecord,
    FaultRule,
    resolve_victim_rules,
)
from .transport import FaultyClientTransport

__all__ = [
    "AckLedger",
    "Audit",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultRule",
    "FaultyClientTransport",
    "FaultyWALFile",
    "faulty_wal_opener",
    "audit_acked_writes",
    "corrupt_byte",
    "run_chaos",
    "tear_tail",
]
