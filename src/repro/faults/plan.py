"""The :class:`FaultPlan` schedule format.

One plan describes every fault a run will inject, across all three
injection points (client transport, DES cluster, WAL file shim).  Plans
are **deterministic**: each rule's firing decisions are a pure function
of ``(plan.seed, rule index, per-rule match counter)``, so two runs that
present the same sequence of matching events to a plan built with the
same seed inject the identical fault sequence — the property the chaos
harness asserts on (replayability is what makes an injected-fault
failure debuggable).

Every decision is appended to :attr:`FaultPlan.trace`, and
:meth:`FaultPlan.trace_digest` summarises a run's fault sequence in one
comparable string.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

#: Sentinel rule target resolved by the scenario runner to the concrete
#: instance addresses of the node it is about to kill (the transports
#: match faults against address strings, which are only known once the
#: cluster is built).
VICTIM_TARGET = "victim"


class FaultKind:
    """Names of the injectable fault classes."""

    #: Message vanishes; the sender observes a timeout.
    DROP = "drop"
    #: Message is delivered after an extra ``rule.delay`` seconds.
    DELAY = "delay"
    #: Message is delivered twice (UDP retransmit / duplicated datagram).
    DUPLICATE = "duplicate"
    #: Connection reset: the attempt fails immediately (no timeout wait)
    #: and any cached connection to the target is discarded.
    RESET = "reset"
    #: Node crash: the target becomes permanently unreachable until the
    #: harness revives/repairs it.
    CRASH = "crash"
    #: Node stall: the target answers, but ``rule.delay`` seconds late
    #: (GC pause / overloaded node).
    STALL = "stall"
    #: ``fsync`` silently does nothing; bytes written after the last real
    #: sync are lost if the process crashes.
    FSYNC_LOSS = "fsync_loss"
    #: On crash, a prefix of the first un-synced record survives (power
    #: loss mid-append), exercising WAL tail recovery.
    TORN_TAIL = "torn_tail"

    MESSAGE_KINDS = (DROP, DELAY, DUPLICATE, RESET, STALL)
    FILE_KINDS = (FSYNC_LOSS, TORN_TAIL)
    ALL = MESSAGE_KINDS + FILE_KINDS + (CRASH,)


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    A rule *matches* an event when ``kind`` equals the event kind and
    ``target``/``op`` (when set) match the event's target and operation.
    Among matching events, the rule skips the first ``after``, then fires
    with ``probability`` (seeded, deterministic), at most ``count`` times.
    """

    kind: str
    #: Node id, ``"host:port"`` address string, or ``None`` for any.
    target: str | None = None
    #: OpCode name (``"INSERT"``) or ``None`` for any operation.
    op: str | None = None
    #: Skip this many matching events before the rule becomes eligible.
    after: int = 0
    #: Maximum number of firings (``None`` = unlimited).
    count: int | None = None
    #: Deterministic firing probability over eligible events.
    probability: float = 1.0
    #: Seconds of injected latency (DELAY / STALL).
    delay: float = 0.0
    #: Simulated-time instant for scheduled faults (CRASH in the DES).
    at_time: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def matches(self, target: str | None, op: str | None) -> bool:
        if self.target is not None and self.target != target:
            return False
        if self.op is not None and self.op != op:
            return False
        return True


class MessageFate(NamedTuple):
    """What the rules that fire on one message make of it; each runtime
    enacts it its own way (DESIGN.md §7, "Three injection points")."""

    #: ``DROP`` or ``RESET`` (the first to fire, in rule order) when the
    #: message is lost; ``None`` when it is delivered.
    lost: str | None
    #: Extra seconds of DELAY and STALL, summed.
    delay: float
    #: Copies put on the wire: one, plus one per DUPLICATE that fired.
    copies: int


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as appended to :attr:`FaultPlan.trace`."""

    kind: str
    target: str | None
    op: str | None
    #: Per-rule sequence number of the matching event that fired.
    n: int
    rule_index: int

    def key(self) -> tuple:
        return (self.kind, self.target, self.op, self.n, self.rule_index)


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Thread-safe: counters and the trace are guarded by one lock, so the
    same plan can back a multi-threaded socket deployment (determinism
    then holds per-rule, to the extent the event order itself is
    deterministic — single-client runs are fully reproducible).
    """

    def __init__(self, seed: int = 0, rules: list[FaultRule] | None = None):
        self.seed = seed
        self.rules: list[FaultRule] = list(rules or [])
        self.trace: list[FaultRecord] = []
        self._lock = threading.Lock()
        #: Matching-event counter per rule index.
        self._matches: dict[int, int] = {}
        #: Firing counter per rule index.
        self._fired: dict[int, int] = {}
        #: Targets (node ids and/or address strings) currently crashed.
        self._crashed: set[str] = set()

    # -- construction ----------------------------------------------------

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    @classmethod
    def message_chaos(
        cls,
        seed: int,
        *,
        drop: float = 0.0,
        delay: float = 0.0,
        delay_seconds: float = 0.0,
        duplicate: float = 0.0,
        reset: float = 0.0,
        target: str | None = None,
    ) -> "FaultPlan":
        """A plan injecting background message-level chaos at the given
        per-message probabilities."""
        plan = cls(seed)
        if drop:
            plan.add(FaultRule(FaultKind.DROP, target=target, probability=drop))
        if delay:
            plan.add(
                FaultRule(
                    FaultKind.DELAY,
                    target=target,
                    probability=delay,
                    delay=delay_seconds,
                )
            )
        if duplicate:
            plan.add(
                FaultRule(FaultKind.DUPLICATE, target=target, probability=duplicate)
            )
        if reset:
            plan.add(FaultRule(FaultKind.RESET, target=target, probability=reset))
        return plan

    @classmethod
    def overload(
        cls,
        seed: int,
        *,
        target: str | None = None,
        stall_s: float = 0.05,
        probability: float = 0.35,
    ) -> "FaultPlan":
        """An overloaded (slow, not dead) server: a fraction of round
        trips to *target* complete *stall_s* late, emulating queueing
        delay.  Exercises admission control / RETRY_LATER handling and
        the detector's ability to not declare a slow node dead."""
        plan = cls(seed)
        plan.add(
            FaultRule(
                FaultKind.STALL,
                target=target,
                probability=probability,
                delay=stall_s,
            )
        )
        return plan

    @classmethod
    def flapping(
        cls,
        seed: int,
        *,
        target: str | None = VICTIM_TARGET,
        period: int = 40,
        burst: int = 8,
        cycles: int = 6,
    ) -> "FaultPlan":
        """A flapping node: every *period* matching messages, the next
        *burst* round trips to *target* are dropped, for *cycles* cycles.
        The default target is the :data:`VICTIM_TARGET` sentinel, which
        the scenario runner resolves to its kill victim's addresses.
        Exercises the circuit breaker's open → half-open → closed loop —
        the client must both suspect the node quickly and rediscover it
        once the burst passes."""
        plan = cls(seed)
        for k in range(cycles):
            plan.add(
                FaultRule(
                    FaultKind.DROP,
                    target=target,
                    after=k * period,
                    count=burst,
                )
            )
        return plan

    # -- deterministic decisions ------------------------------------------

    def _chance(self, rule_index: int, n: int) -> float:
        """Uniform [0,1) value pure in ``(seed, rule_index, n)``."""
        mixed = (self.seed * 1_000_003 + rule_index) * 2_147_483_647 + n
        return random.Random(mixed).random()

    def _consider(
        self, rule_index: int, rule: FaultRule, target: str | None, op: str | None
    ) -> FaultRecord | None:
        """Advance *rule*'s counters for one matching event; return the
        record if it fires.  Caller holds the lock."""
        n = self._matches.get(rule_index, 0)
        self._matches[rule_index] = n + 1
        if n < rule.after:
            return None
        fired = self._fired.get(rule_index, 0)
        if rule.count is not None and fired >= rule.count:
            return None
        if rule.probability < 1.0 and self._chance(rule_index, n) >= rule.probability:
            return None
        self._fired[rule_index] = fired + 1
        record = FaultRecord(rule.kind, target, op, n, rule_index)
        self.trace.append(record)
        return record

    def message_fate(
        self, *, target: str | None = None, op: str | None = None
    ) -> MessageFate:
        """Decide one send attempt's fate: the one reading of message
        faults.  *target* is an address string or node id; *op* an
        OpCode name.  Every matching rule is considered, and traced if
        it fires."""
        lost: str | None = None
        delay = 0.0
        copies = 1
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.kind not in FaultKind.MESSAGE_KINDS:
                    continue
                if rule.at_time is not None:
                    continue  # scheduled rules are enacted by the harness
                if not rule.matches(target, op):
                    continue
                if self._consider(index, rule, target, op) is None:
                    continue
                if rule.kind in (FaultKind.DROP, FaultKind.RESET):
                    lost = lost or rule.kind
                elif rule.kind == FaultKind.DUPLICATE:
                    copies += 1
                else:  # DELAY, STALL
                    delay += rule.delay
        return MessageFate(lost, delay, copies)

    def file_fault(self, kind: str, *, target: str | None = None) -> FaultRule | None:
        """Decide one file-level fault event (an ``fsync`` call, a crash
        tearing the tail).  Returns the firing rule or ``None``."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.kind != kind:
                    continue
                if not rule.matches(target, None):
                    continue
                record = self._consider(index, rule, target, None)
                if record is not None:
                    return rule
        return None

    # -- crash bookkeeping -------------------------------------------------

    def scheduled_crashes(self) -> list[tuple[float, str]]:
        """``(at_time, target)`` for every scheduled CRASH rule, sorted."""
        out = [
            (rule.at_time, rule.target)
            for rule in self.rules
            if rule.kind == FaultKind.CRASH
            and rule.at_time is not None
            and rule.target is not None
        ]
        return sorted(out)

    def crash_target(self, *targets: str) -> None:
        """Record that *targets* (node id and/or address strings) are down.

        The harness calls this when it enacts a crash (kills a server,
        removes a sim instance); transports then refuse to reach them.
        """
        with self._lock:
            for target in targets:
                if target not in self._crashed:
                    self._crashed.add(target)
                    self.trace.append(
                        FaultRecord(FaultKind.CRASH, target, None, 0, -1)
                    )

    def record_external(self, kind: str, target: str) -> None:
        """Append a harness-enacted fault to the trace without touching
        transport state (e.g. a shard kill the supervisor will undo)."""
        with self._lock:
            self.trace.append(FaultRecord(kind, target, None, 0, -1))

    def revive_target(self, *targets: str) -> None:
        with self._lock:
            for target in targets:
                self._crashed.discard(target)

    def is_crashed(self, *candidates: str | None) -> bool:
        with self._lock:
            return any(c in self._crashed for c in candidates if c is not None)

    # -- replay verification ----------------------------------------------

    def trace_digest(self) -> str:
        """Stable digest of the injected fault sequence (for replay
        assertions: same seed + same run => same digest)."""
        h = hashlib.sha256()
        with self._lock:
            for record in self.trace:
                h.update(repr(record.key()).encode())
        return h.hexdigest()[:16]

    def trace_keys(self) -> list[tuple]:
        with self._lock:
            return [record.key() for record in self.trace]


def resolve_victim_rules(plan, membership, victim: str) -> None:
    """Rewrite rules targeting :data:`VICTIM_TARGET` to *victim*'s
    concrete instance addresses.

    Must run before any traffic consults the plan: rules are replaced
    in place (preserving rule indices and so the deterministic firing
    schedule), with extra per-address copies appended at the end.
    """
    addresses = [
        str(inst.address) for inst in membership.instances_on_node(victim)
    ]
    if not addresses:
        return
    extra = []
    for i, rule in enumerate(plan.rules):
        if rule.target == VICTIM_TARGET:
            plan.rules[i] = replace(rule, target=addresses[0])
            extra.extend(replace(rule, target=a) for a in addresses[1:])
    plan.rules.extend(extra)
