"""Failure-recovery invariants: what an acknowledged write promises.

Two properties turn the paper's §fault-tolerance narrative into
checkable assertions:

1. **Acknowledged durability** — every write the client saw acknowledged
   must be readable after recovery from any single node failure (given
   ``num_replicas >= 1``).
2. **Replica convergence** — asynchronously-updated replicas must hold
   the primary's value once faults stop and in-flight updates drain
   (§III.J: only the secondary is strongly consistent).

:class:`AckLedger` models the expected final state from the ack stream
(INSERT values, REMOVEd keys, APPEND fragments as a multiset per key);
:func:`audit_acked_writes` judges it once per key: one read through the
runtime's lookup and one walk of the key's partition on every alive
server core, which answer durability, divergence, the replication level
and convergence together.  The cores are
:class:`~repro.core.server.ZHTServerCore` objects, so the same code
audits the local, socket, and simulated backends.
"""

from __future__ import annotations

from collections import Counter as Multiset
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core.errors import KeyNotFound
from ..core.membership import MembershipTable
from ..core.protocol import OpCode
from ..core.server import ZHTServerCore
from ..scenario.traffic import FRAGMENT_BYTES

#: Attempts per audited read: a transient error is retried, and only
#: ``KeyNotFound`` means the key is absent.
READ_ATTEMPTS = 3


@dataclass
class AckLedger:
    """Model of the expected key space, built from acknowledged ops."""

    #: Expected value per INSERTed key (the last acked insert wins).
    expected: dict[bytes, bytes] = field(default_factory=dict)
    #: Keys whose last acknowledged op was a REMOVE.
    removed: set[bytes] = field(default_factory=set)
    #: Acked APPEND fragments per key: a multiset, since concurrent
    #: appenders interleave in any order.
    appended: dict[bytes, list[bytes]] = field(default_factory=dict)
    acked_ops: int = 0

    def record(self, op: OpCode, key: bytes, value: bytes = b"") -> None:
        """Record one *acknowledged* mutation (call only after the client
        op returned success)."""
        self.acked_ops += 1
        if op == OpCode.INSERT:
            self.expected[key] = value
            self.removed.discard(key)
        elif op == OpCode.APPEND:
            self.appended.setdefault(key, []).append(value)
            self.removed.discard(key)
        elif op == OpCode.REMOVE:
            self.expected.pop(key, None)
            self.removed.add(key)


@dataclass
class Audit:
    """The violations one audit found, per check.  Each list names INSERT
    keys first, then REMOVEd keys, then APPEND keys."""

    #: Durability: acked data that no read returns (or, with the stores
    #: in reach, that no alive instance holds).
    lost: list[str] = field(default_factory=list)
    #: The owner disagrees with the ledger while an alive copy survives.
    diverged: list[str] = field(default_factory=list)
    under_replicated: list[str] = field(default_factory=list)
    unconverged: list[str] = field(default_factory=list)
    #: Copies every INSERT and APPEND key needs: ``replicas + 1``, capped
    #: at the alive node count.
    min_copies: int = 0
    #: INSERT and APPEND keys the replication level is checked over.
    keys: int = 0


def _read(
    lookup: Callable[[bytes], bytes], key: bytes
) -> tuple[bytes | None, Exception | None]:
    """*key*'s value (``None`` when absent), or the last error when every
    one of :data:`READ_ATTEMPTS` reads failed."""
    error = None
    for _attempt in range(READ_ATTEMPTS):
        try:
            return lookup(key), None
        except KeyNotFound:
            return None, None
        except Exception as exc:  # noqa: BLE001 - retried, then reported
            error = exc
    return None, error


def audit_acked_writes(
    ledger: AckLedger,
    lookup: Callable[[bytes], bytes] | None,
    cores: Iterable[ZHTServerCore],
    membership: MembershipTable,
    *,
    replicas: int,
    hash_name: str,
) -> Audit:
    """Judge every acked write against the live system.

    *lookup* returns a key's value through the runtime (the owner's
    answer) or raises :class:`~repro.core.errors.KeyNotFound`; ``None``
    skips the reads, and with them durability and divergence.  Without
    *cores* (stores out of reach) only the reads judge durability.
    """
    cores = list(cores)
    by_instance = {
        s.info.instance_id: s
        for s in cores
        if membership.nodes[s.info.node_id].alive
    }
    alive_nodes = sum(1 for n in membership.nodes.values() if n.alive)
    audit = Audit(
        min_copies=min(replicas + 1, alive_nodes),
        keys=len(ledger.expected) + len(ledger.appended),
    )

    def walk(key: bytes, want: bytes | None) -> tuple[int, dict[str, bytes]]:
        """The one store walk: *key*'s copies in its partition's store on
        each alive core.  Records the key's replication level, and each
        alive chain member that lacks the key or holds a value other than
        *want* (``None`` for an APPEND key, whose members are compared
        with each other).  Returns the alive copy count and the chain
        members' values."""
        pid = membership.partition_of_key(key, hash_name)
        held = {}
        for iid, server in by_instance.items():
            part = server.partitions.get(pid)
            if part is not None and key in part.store:
                held[iid] = part.store.get(key)
        if len(held) < audit.min_copies:
            audit.under_replicated.append(
                f"under-replicated: {key!r} on {len(held)} "
                f"instance(s), want >= {audit.min_copies}"
            )
        values = {}
        for inst in membership.replicas_for_partition(pid, replicas):
            iid = inst.instance_id
            if iid not in by_instance:
                continue
            if iid not in held:
                kind = "replica" if want is not None else "append replica"
                audit.unconverged.append(f"{kind} missing: {key!r} absent on {iid[:8]}")
            elif want is not None and held[iid] != want:
                audit.unconverged.append(
                    f"replica diverged: {key!r} on {iid[:8]} "
                    f"= {held[iid]!r}, want {want!r}"
                )
            else:
                values[iid[:8]] = held[iid]
        return len(held), values

    for key, want in ledger.expected.items():
        held = walk(key, want)[0] if cores else 0
        if lookup is None:
            continue
        got, error = _read(lookup, key)
        if got == want:
            continue
        if error is not None:
            audit.lost.append(f"acked write unreadable: {key!r}: {error!r}")
        elif not cores:
            audit.lost.append(
                f"acked write lost: {key!r} not found"
                if got is None
                else f"acked write diverged: {key!r} = {got!r}, want {want!r}"
            )
        elif not held:
            audit.lost.append(f"acked write lost: {key!r} on no alive instance")
        elif got is None:
            audit.diverged.append(
                f"acked write missing at owner: {key!r} held by "
                f"{held} alive instance(s)"
            )
        else:
            audit.diverged.append(
                f"acked write disagrees at owner: {key!r} = {got!r}, want {want!r}"
            )

    if lookup is not None:
        for key in ledger.removed:
            if _read(lookup, key)[0] is not None:
                audit.lost.append(f"acked remove resurrected: {key!r}")

    for key, fragments in ledger.appended.items():
        value = None if lookup is None else _read(lookup, key)[0]
        if lookup is not None and value is None:
            audit.lost.append(
                f"acked appends lost: {key!r} unreadable "
                f"({len(fragments)} fragment(s))"
            )
        elif value is not None:
            chunks = Multiset(
                bytes(value[i : i + FRAGMENT_BYTES])
                for i in range(0, len(value), FRAGMENT_BYTES)
            )
            for fragment, n in (Multiset(fragments) - chunks).items():
                audit.lost.append(
                    f"acked append fragment missing: {key!r} lacks {fragment!r} x{n}"
                )
        if cores:
            # Append order may differ from ack order, so the chain members
            # are compared with each other, not with the ledger.
            values = walk(key, None)[1]
            if len(set(values.values())) > 1:
                audit.unconverged.append(
                    f"append replicas disagree: {key!r} has "
                    f"{len(set(values.values()))} distinct values across "
                    f"{sorted(values)}"
                )
    return audit
