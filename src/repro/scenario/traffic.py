"""Compile a :class:`~repro.scenario.schema.WorkloadSpec` into concrete
per-client op streams.

Reuses :mod:`repro.workload`'s generators (the Zipf sampler, the
append-fragment pattern) but with two properties the scenario verdict
depends on:

* **Determinism** — the op list for ``(scenario seed, client index)``
  is a pure function, so a failing verdict replays exactly.
* **Ledger-soundness** — concurrent writers to a shared key universe
  must not confuse the :class:`~repro.faults.invariants.AckLedger`,
  which :func:`~repro.faults.invariants.audit_acked_writes` judges
  after the run: INSERT values are a pure function of the *key* (two
  racing inserts write identical bytes, so ack order cannot disagree
  with store state), and APPEND fragments are globally unique
  fixed-width chunks that the ledger keeps, and the audit checks, as a
  multiset per key rather than a concatenation order.  The one
  exception is the ``registers`` shape — distinct values per write, the
  workload the linearizability checker needs — whose streams are marked
  ``ledger=False`` and judged from the recorded history instead.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..core.protocol import OpCode
from ..verify.history import STATUS_NOTFOUND, STATUS_OK, HistoryEvent
from ..workload import ZipfWorkload
from .schema import TenantSpec, WorkloadSpec

#: Fixed fragment width for append-shape tenants: final values split
#: back into the exact multiset of applied fragments.  (Equal-width and
#: distinct also means prefix-free, which the history checker's
#: tokenizer relies on.)
FRAGMENT_BYTES = 32

#: ``registers`` shape: share of ops that go to an append key, and share
#: of register-key mutations that are REMOVEs.
REGISTERS_APPEND_SHARE = 0.25
REGISTERS_REMOVE_SHARE = 0.15


def value_for_key(key: bytes, value_bytes: int) -> bytes:
    """The deterministic INSERT payload for *key* (same for every
    writer, so concurrent inserts to one key are value-identical)."""
    out = bytearray()
    counter = 0
    while len(out) < value_bytes:
        out += hashlib.sha256(key + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:value_bytes])


def fragment_for(client_index: int, op_index: int) -> bytes:
    """A globally unique fixed-width APPEND fragment."""
    return f"[c{client_index:03d}:{op_index:05d}]".encode().ljust(
        FRAGMENT_BYTES, b"."
    )


@dataclass(frozen=True)
class ClientStream:
    """One client's compiled op list."""

    client_index: int
    tenant: str
    #: ``(op, key, value)`` triples.
    ops: tuple
    #: Whether acked mutations may feed the :class:`AckLedger`.
    ledger: bool = True


def _registers_op(
    tenant: TenantSpec, rng: random.Random, client_index: int, op_index: int
) -> tuple[OpCode, bytes, bytes]:
    write = rng.random() < tenant.write_ratio
    if rng.random() < REGISTERS_APPEND_SHARE:
        key = f"{tenant.name}-app-{rng.randrange(tenant.hot_keys):04d}".encode()
        if write:
            return OpCode.APPEND, key, fragment_for(client_index, op_index)
    else:
        key = f"{tenant.name}-reg-{rng.randrange(tenant.universe):04d}".encode()
        if write:
            if rng.random() < REGISTERS_REMOVE_SHARE:
                return OpCode.REMOVE, key, b""
            # Distinct per write, so a lost or reordered update is
            # visible to the checker.
            value = f"v{client_index}-{op_index}-{rng.randrange(1 << 30)}"
            return OpCode.INSERT, key, value.encode()
    return OpCode.LOOKUP, key, b""


def _tenant_ops(
    tenant: TenantSpec,
    seed: int,
    client_index: int,
    ops_per_client: int,
) -> tuple:
    rng = random.Random((seed << 20) ^ (0xE5C0 + client_index))
    ops = []
    if tenant.shape == "registers":
        return tuple(
            _registers_op(tenant, rng, client_index, i)
            for i in range(ops_per_client)
        )
    if tenant.shape == "append":
        for i in range(ops_per_client):
            key = f"{tenant.name}-hot-{rng.randrange(tenant.hot_keys):04d}".encode()
            ops.append((OpCode.APPEND, key, fragment_for(client_index, i)))
        return tuple(ops)

    zipf = (
        ZipfWorkload(
            ops_per_client=ops_per_client,
            universe=tenant.universe,
            alpha=tenant.zipf_alpha,
            seed=seed,
        )
        if tenant.shape == "zipf"
        else None
    )
    for _ in range(ops_per_client):
        if zipf is not None:
            index = zipf._sample(rng)
        else:
            index = rng.randrange(tenant.universe)
        key = f"{tenant.name}-{index:06d}".encode()
        if rng.random() < tenant.write_ratio:
            ops.append((OpCode.INSERT, key, value_for_key(key, tenant.value_bytes)))
        else:
            ops.append((OpCode.LOOKUP, key, b""))
    return tuple(ops)


def build_streams(workload: WorkloadSpec, seed: int) -> list[ClientStream]:
    """Compile the workload into one deterministic stream per client."""
    streams: list[ClientStream] = []
    client_index = 0
    for tenant in workload.tenants:
        for _ in range(tenant.clients):
            streams.append(
                ClientStream(
                    client_index=client_index,
                    tenant=tenant.name,
                    ops=_tenant_ops(
                        tenant, seed, client_index, workload.ops_per_client
                    ),
                    ledger=tenant.shape != "registers",
                )
            )
            client_index += 1
    return streams


def synthesize_history(
    seed: int, ops: int, *, clients: int = 8
) -> tuple[list[HistoryEvent], dict[bytes, bytes | None]]:
    """Build a *valid* concurrent history without running a cluster.

    Used by the checker throughput benchmark: applies a seeded
    ``registers`` workload (the one ``repro verify`` runs) to a plain
    dict model under a logical clock, giving each client overlapping
    operation intervals (so the checker really searches) while the
    outcomes stay linearizable by construction — the model IS the
    linearization.
    """
    tenant = TenantSpec(
        name="syn",
        shape="registers",
        clients=clients,
        write_ratio=0.65,
        universe=max(4, ops // 8),
        hot_keys=max(2, clients),
    )
    streams = build_streams(
        WorkloadSpec(ops_per_client=-(-ops // clients), tenants=(tenant,)), seed
    )
    flat = [(s.client_index, op) for s in streams for op in s.ops][:ops]
    rng = random.Random(seed ^ 0x5EED)
    model: dict[bytes, bytes] = {}
    events: list[HistoryEvent] = []
    #: Each client's earliest possible next invocation time.
    free_at = [0.0] * clients
    # Ops are applied to the model in flat order, so that order must be a
    # valid linearization of the emitted intervals: each op's
    # linearization point t_lin advances a global clock, and its interval
    # [t_call, t_return] brackets t_lin with jitter so intervals of
    # different clients genuinely overlap (the checker has to search).
    now = 0.0
    for seq, (client, (op, key, value)) in enumerate(flat, start=1):
        t_lin = max(now, free_at[client]) + rng.random() * 1e-4 + 1e-9
        t_call = max(free_at[client], t_lin - rng.random() * 5e-4)
        t_return = t_lin + rng.random() * 5e-4
        now = t_lin
        free_at[client] = t_return
        status, result = STATUS_OK, b""
        if op == OpCode.INSERT:
            model[key] = value
        elif op == OpCode.APPEND:
            model[key] = model.get(key, b"") + value
        elif key not in model:
            status = STATUS_NOTFOUND
        elif op == OpCode.REMOVE:
            del model[key]
        else:
            result = model[key]
        events.append(
            HistoryEvent(
                client_id=f"c{client}",
                op=op.name.lower(),
                key=key,
                value=value,
                t_call=t_call,
                t_return=t_return,
                status=status,
                result=result,
                seq=seq,
            )
        )
    events.sort(key=lambda e: e.t_call)
    append_keys = {key for _c, (op, key, _v) in flat if op == OpCode.APPEND}
    return events, {key: model.get(key) for key in append_keys}
