"""Execute one validated :class:`~repro.scenario.schema.Scenario`
against any backend and return a machine-readable :class:`Verdict`.

This is the only code in the repo that builds a cluster, drives
traffic, injects faults and judges the result; ``repro chaos`` and
``repro verify`` synthesise a scenario and call it
(:mod:`repro.scenario.frontends`).  The phases, all driven from the
declarative config:

1. **build** — topology → :func:`~repro.scenario.cluster.default_config`
   + overrides → a live cluster (or the DES);
2. **traffic** — the workload spec compiles to one deterministic op
   stream per client (:mod:`repro.scenario.traffic`); acknowledged
   mutations land in the ledger and, with ``checks.linearizability``,
   every op's interval lands in a history recorder;
3. **faults** — message rules + a named preset become one seeded
   :class:`~repro.faults.plan.FaultPlan`; node-level events fire when
   global progress crosses their fraction;
4. **verdict** — after quiesce the configured checks judge the stores
   and the history, metric gates are evaluated, and everything is
   folded into a pass/fail JSON document (``Verdict.to_dict``).

There is one scenario loop (:func:`_run`): each client is a sans-IO
generator (:mod:`repro.core.loops`), and so are the read-back and the
tail probes.  The deployment's type picks who runs them: a thread per
client over a live cluster (:class:`_Live`), or one engine run of the
DES (:class:`_Sim`).
"""

from __future__ import annotations

import gc
import random
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Generator, Iterator

from ..api import ZHT, LiveCluster
from ..core.client import ZHTClientCore
from ..core.config import ZHTConfig
from ..core.errors import KeyNotFound, ZHTError
from ..core.loops import OpClient, Sleep, script_loop
from ..core.membership import MembershipTable
from ..core.protocol import OpCode
from ..faults.invariants import AckLedger, audit_acked_writes
from ..faults.plan import (
    VICTIM_TARGET,
    FaultKind,
    FaultPlan,
    FaultRule,
    resolve_victim_rules,
)
from ..faults.transport import FaultyClientTransport
from ..net.transport import drive
from ..obs import CounterSet
from ..sim.cluster import SimulatedCluster
from ..verify.checker import CheckReport, check_history
from ..verify.history import HistoryRecorder
from .cluster import build_cluster, default_config, repair_script
from .schema import FaultEvent, Scenario, ScenarioError
from .traffic import ClientStream, build_streams

#: Max violation strings kept per check in the verdict document.
MAX_VIOLATIONS = 12
#: Client counters summed over the workload's clients into ``client.*``.
_CLIENT_STATS = ("retries", "failovers", "nodes_marked_dead", "reprobes", "hot_cache_hits")


# ---------------------------------------------------------------------------
# Verdict document
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    #: ``pass`` / ``fail`` / ``skipped`` (skipped = not requested, or not
    #: introspectable on this backend; never counts against the verdict).
    status: str
    violations: list = field(default_factory=list)
    detail: str = ""
    #: Linearizability only: the event lines of the first violating
    #: key's ddmin-minimal sub-history, and the checker's full report
    #: (kept reachable for callers; not serialized).
    witness: list = field(default_factory=list)
    report: CheckReport | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "violations": list(self.violations),
            "detail": self.detail,
            "witness": list(self.witness),
        }


@dataclass
class GateResult:
    metric: str
    op: str
    value: float
    observed: float | None
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        observed = "absent" if self.observed is None else f"{self.observed:g}"
        flag = "OK" if self.ok else "FAIL"
        return f"{self.metric} {self.op} {self.value:g} (observed {observed}): {flag}"


@dataclass
class Verdict:
    """The machine-readable outcome of one scenario run."""

    scenario: str
    backend: str
    seed: int
    ok: bool = False
    duration_s: float = 0.0
    clients: int = 0
    ops_attempted: int = 0
    ops_acked: int = 0
    ops_failed: int = 0
    injected_faults: int = 0
    fault_digest: str = ""
    #: Node ids killed by the scenario's ``kill`` events, in firing order.
    victims: list = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    gates: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "seed": self.seed,
            "ok": self.ok,
            "duration_s": round(self.duration_s, 6),
            "clients": self.clients,
            "ops": {
                "attempted": self.ops_attempted,
                "acked": self.ops_acked,
                "failed": self.ops_failed,
            },
            "faults": {
                "injected": self.injected_faults,
                "digest": self.fault_digest,
                "victims": list(self.victims),
            },
            "checks": [c.to_dict() for c in self.checks],
            "gates": [g.to_dict() for g in self.gates],
            "metrics": self.metrics,
            "error": self.error,
        }

    def check(self, name: str) -> CheckResult:
        return next(c for c in self.checks if c.name == name)

    def summary_lines(self) -> list[str]:
        metrics = self.metrics
        lines = [
            f"scenario={self.scenario} backend={self.backend} seed={self.seed}",
            f"ops: {self.ops_acked}/{self.ops_attempted} acked, "
            f"{self.ops_failed} failed across {self.clients} client(s) "
            f"in {self.duration_s:.2f}s",
            f"faults injected: {self.injected_faults} "
            f"(digest {self.fault_digest or '-'})",
        ]
        if "client.retries" in metrics:
            lines.append(
                f"clients: {metrics['client.retries']} retries, "
                f"{metrics['client.failovers']} failovers, "
                f"{metrics['client.nodes_marked_dead']} node(s) marked dead"
            )
        if self.victims:
            lines.append(f"victims: {', '.join(self.victims)}")
        if "fault.failover_latency_s" in metrics:
            before = metrics["ops.throughput_before_per_s"]
            during = metrics["ops.throughput_during_per_s"]
            dip = (1 - during / before) * 100 if before else 0.0
            lines.append(
                f"failover latency: "
                f"{metrics['fault.failover_latency_s'] * 1e3:.1f} ms   "
                f"repair time: {metrics.get('fault.repair_time_s', 0.0) * 1e3:.1f} ms"
            )
            lines.append(
                f"throughput ops/s: {before:,.0f} before, {during:,.0f} during "
                f"({dip:+.0f}% dip), "
                f"{metrics['ops.throughput_after_per_s']:,.0f} after"
            )
        for check in self.checks:
            line = f"check {check.name}: {check.status.upper()}"
            if check.detail:
                line += f" ({check.detail})"
            lines.append(line)
            if check.report is not None:
                lines.extend("  " + l for l in check.report.summary_lines())
                continue
            for violation in check.violations[:3]:
                lines.append(f"  VIOLATION: {violation}")
        for gate in self.gates:
            lines.append(f"gate {gate.describe()}")
        if self.error:
            lines.append(f"error: {self.error}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return lines


# ---------------------------------------------------------------------------
# Fault-plan compilation
# ---------------------------------------------------------------------------


def build_plan(scenario: Scenario, seed: int) -> FaultPlan:
    """Compile the declarative fault spec into one seeded FaultPlan."""
    faults = scenario.faults
    if faults.plan == "overload":
        plan = FaultPlan.overload(seed)
    elif faults.plan == "flapping":
        plan = FaultPlan.flapping(seed)
    else:
        plan = FaultPlan(seed)
    for message in faults.messages:
        plan.add(
            FaultRule(
                message.kind,
                target=VICTIM_TARGET if message.target == "victim" else None,
                op=message.op,
                after=message.after,
                count=message.count,
                probability=message.probability,
                delay=message.delay_s,
            )
        )
    return plan


def _truncate(violations: list) -> list:
    if len(violations) <= MAX_VIOLATIONS:
        return violations
    extra = len(violations) - MAX_VIOLATIONS
    return violations[:MAX_VIOLATIONS] + [f"... and {extra} more"]


# ---------------------------------------------------------------------------
# Gate evaluation
# ---------------------------------------------------------------------------

_GATE_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def _evaluate_gates(scenario: Scenario, metrics: dict) -> list:
    results = []
    snapshot = None
    for gate in scenario.gates:
        observed: float | None = None
        if gate.metric.startswith(("counter:", "latency:")):
            if snapshot is None:
                from ..obs import metrics_snapshot

                snapshot = metrics_snapshot()
            parts = gate.metric.split(":")
            if parts[0] == "counter":
                raw = snapshot.get("counters", {}).get(parts[1])
            else:
                raw = snapshot.get("latency", {}).get(parts[1], {}).get(parts[2])
            observed = None if raw is None else float(raw)
        else:
            raw = metrics.get(gate.metric)
            observed = None if raw is None else float(raw)
        ok = observed is not None and _GATE_OPS[gate.op](observed, gate.value)
        results.append(
            GateResult(gate.metric, gate.op, gate.value, observed, ok)
        )
    return results


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class _History:
    """What ``checks.linearizability`` gathers during a run: the op
    recorder shared by every client, the post-quiesce strong read-back
    of every touched key, and the number of async-tail probes issued."""

    recorder: HistoryRecorder
    #: Every key the compiled streams touch, and the APPEND-model subset
    #: (tail probes skip those).
    keys: list
    append_keys: set
    final_values: dict = field(default_factory=dict)
    tail_probes: int = 0


def _check_linearizability(scenario: Scenario, history: _History) -> CheckResult:
    faults = scenario.faults
    report = check_history(
        history.recorder.events(),
        final_values=history.final_values,
        staleness_bound=(
            scenario.checks.staleness_bound
            if scenario.topology.replicas >= 2
            else None
        ),
        # Any injected fault can make a client retry, and a retried
        # APPEND whose first attempt applied lands twice (at-least-once).
        strict_append_once=not (faults.events or faults.messages or faults.plan),
    )
    first = report.first_violation()
    return CheckResult(
        "linearizability",
        "pass" if report.ok else "fail",
        _truncate([key_report.describe()[0] for key_report in report.violations]),
        f"{report.events_total} event(s) over {report.keys_checked} key(s), "
        f"{report.stale_reads_checked} bounded-staleness read(s)",
        witness=first.describe()[1:] if first is not None else [],
        report=report,
    )


def _run_checks(
    scenario: Scenario,
    tally: _Tally,
    lookup: Callable[[bytes], bytes],
    cluster: LiveCluster | SimulatedCluster,
    history: _History | None,
) -> list:
    """One CheckResult per configured check.  The store-level ones come
    from one :func:`audit_acked_writes` pass; each is ``skipped`` when
    not requested or — all but durability — when the backend's stores
    are out of reach (never silently dropped)."""
    checks, ledger = scenario.checks, tally.ledger
    audit = audit_acked_writes(
        ledger,
        lookup if checks.durability or checks.divergence else None,
        cluster.cores,
        cluster.membership,
        replicas=scenario.topology.replicas,
        hash_name=cluster.config.hash_name,
    )
    details = {
        "durability": f"{ledger.acked_ops} acked mutation(s) audited",
        "replication": f"min {audit.min_copies} cop(ies) over {audit.keys} key(s)",
    }
    results: list = []
    for name, requested, violations in (
        ("durability", checks.durability, audit.lost),
        ("divergence", checks.divergence, audit.diverged),
        ("replication", checks.replication, audit.under_replicated),
        ("convergence", checks.convergence, audit.unconverged),
    ):
        if not requested:
            result = CheckResult(name, "skipped", [], "not requested")
        elif not cluster.cores and name != "durability":
            result = CheckResult(
                name, "skipped", [], "stores not introspectable on this backend"
            )
        else:
            result = CheckResult(
                name,
                "fail" if violations else "pass",
                _truncate(violations),
                details.get(name, ""),
            )
        results.append(result)
    # Judges the recorded history, not the stores: every backend.
    if history is None:
        results.append(CheckResult("linearizability", "skipped", [], "not requested"))
    else:
        results.append(_check_linearizability(scenario, history))
    return results


# ---------------------------------------------------------------------------
# Config, event schedule, op accounting
# ---------------------------------------------------------------------------


def _build_config(
    scenario: Scenario, backend: str
) -> tuple[ZHTConfig, tempfile.TemporaryDirectory | None]:
    """``default_config(backend)`` + the topology + its overrides; also
    returns the run-scoped tempdir when ``persistence_dir`` is ``auto``."""
    topo = scenario.topology
    overrides = dict(topo.config)
    partitions = topo.partitions
    if backend == "sim":
        # DES stores are memory-only, and SimSpec wants a whole number of
        # partitions per instance.
        overrides.pop("persistence_dir", None)
        partitions = topo.nodes * max(1, topo.partitions // topo.nodes)
    tmpdir = None
    if overrides.get("persistence_dir") == "auto":
        tmpdir = tempfile.TemporaryDirectory(prefix=f"scenario-{scenario.name}-")
        overrides["persistence_dir"] = tmpdir.name
    config = default_config(backend, topo.replicas).replace(
        num_partitions=partitions,
        num_shards=topo.shards if backend == "sharded" else 1,
        **overrides,
    )
    return config, tmpdir


class _FaultSchedule:
    """Which node-level fault event is due at which progress point, and
    at whom it is aimed.  Victim selection is deterministic: automatic
    kills walk ``sorted(nodes)[1:]`` in order.  The scenario loop enacts the
    events with their backend's kill/repair primitives; this object only
    decides, and keeps the marks (on the run's clock) that the fault
    metrics are cut at."""

    def __init__(
        self,
        scenario: Scenario,
        membership: MembershipTable,
        now: Callable[[], float],
    ) -> None:
        self.events = scenario.faults.events
        self.total_ops = scenario.workload.total_ops
        self.now = now
        self.pending = list(self.events)
        self.nodes = sorted(membership.nodes)
        self.auto_victims = list(self.nodes[1:])
        self.killed: list[str] = []
        #: ``<action>_start`` / ``<action>_done`` of the *first* event of
        #: each action.
        self.marks: dict[str, float] = {}

    @property
    def designated_victim(self) -> str:
        """The node 'victim'-targeted message rules resolve to."""
        for event in self.events:
            if event.action == "kill":
                if 0 <= event.target < len(self.nodes):
                    return self.nodes[event.target]
                return self.auto_victims[0]
        return self.nodes[1] if len(self.nodes) > 1 else self.nodes[0]

    def is_due(self, done: int) -> bool:
        """Whether the next event's progress point is crossed at *done*.
        Safe without the caller's lock: events leave only from the head,
        under it, and *done* only grows."""
        head = self.pending[:1]
        return bool(head) and done >= head[0].at * self.total_ops

    def due(self, done: int) -> Iterator[tuple[str, Any]]:
        """Every event whose progress point *done* has crossed, as
        ``(action, target)``: the victim node id for kill/repair, the
        shard index for kill_shard.  The caller enacts each event before
        asking for the next, which is what times the ``_done`` marks.
        A repair leaves the schedule as it starts, so clients crossing
        later points go on with their ops while it runs; a kill leaves
        once it is done, so until then it is due to every client."""
        while self.is_due(done):
            event = self.pending[0]
            if event.action == "repair":
                self.pending.pop(0)
            target = self._resolve(event)
            self.marks.setdefault(f"{event.action}_start", self.now())
            yield event.action, target
            self.marks.setdefault(f"{event.action}_done", self.now())
            if event.action != "repair":
                self.pending.pop(0)

    def _resolve(self, event: FaultEvent) -> Any:
        explicit = 0 <= event.target < len(self.nodes)
        if event.action == "kill":
            if explicit:
                victim = self.nodes[event.target]
                if victim in self.auto_victims:
                    self.auto_victims.remove(victim)
            else:
                victim = self.auto_victims.pop(0)
            self.killed.append(victim)
            return victim
        if event.action == "repair":
            return self.nodes[event.target] if explicit else self.killed[-1]
        return max(event.target, 0)  # kill_shard: a shard index

    def window_metrics(
        self, intervals: list[tuple[float, float]], t_start: float, t_end: float
    ) -> dict:
        """Failover latency, repair time and before/during/after
        throughput, cut at the first kill and the first repair (no repair:
        the failure window runs to the end).  Empty without a kill."""
        if "kill_done" not in self.marks:
            return {}
        t_kill = self.marks["kill_done"]
        t_repair = self.marks.get("repair_start", t_end)
        t_repaired = self.marks.get("repair_done", t_end)

        def rate(lo: float, hi: float) -> float:
            acked = sum(1 for _t0, t1 in intervals if lo < t1 <= hi)
            return acked / max(hi - lo, 1e-9)

        metrics = {
            "ops.throughput_before_per_s": rate(t_start, t_kill),
            "ops.throughput_during_per_s": rate(t_kill, t_repair),
            "ops.throughput_after_per_s": rate(t_repaired, t_end),
            # The worst acked op that overlapped the failure window: the
            # one that burned the timeout/backoff chain before failing over.
            "fault.failover_latency_s": max(
                (t1 - t0 for t0, t1 in intervals if t1 > t_kill and t0 < t_repair),
                default=0.0,
            ),
        }
        if "repair_done" in self.marks:
            metrics["fault.repair_time_s"] = t_repaired - t_repair
        return metrics


class _Tally:
    """What the clients' settled ops add up to: counts, the ack ledger,
    and each acked op's ``(t_call, t_return)``.
    Not thread-safe — the scenario loop settles under its lock."""

    def __init__(self) -> None:
        self.ledger = AckLedger()
        self.done = self.acked = self.failed = 0
        self.intervals: list[tuple[float, float]] = []

    def settle(
        self,
        stream: ClientStream,
        op: OpCode,
        key: bytes,
        value: bytes,
        t_call: float,
        t_return: float,
        ok: bool,
    ) -> None:
        self.done += 1
        if not ok:
            self.failed += 1
            return
        self.acked += 1
        self.intervals.append((t_call, t_return))
        if op != OpCode.LOOKUP and stream.ledger:
            self.ledger.record(op, key, value)


# ---------------------------------------------------------------------------
# The scenario loop and its two runtimes
# ---------------------------------------------------------------------------

#: Client tags of the post-run reader and tail prober (a workload
#: client's tag is its index).
_READER, _PROBER = 0xF1, 0xF2
#: The tail probes wait the staleness bound plus this, so a frozen tail
#: is unambiguously out of its staleness window.
TAIL_PROBE_MARGIN_S = 0.01


class _Live:
    """A live deployment runs each client's generator on a thread of its
    own, over its own fault-injecting transport, on the wall clock."""

    now = staticmethod(time.perf_counter)
    #: A client with a fault event due blocks until no other client is
    #: enacting one.
    wait_for_events = True

    def __init__(self, cluster: LiveCluster, plan: FaultPlan, seed: int) -> None:
        self.cluster, self.plan, self.seed = cluster, plan, seed
        self.respawns: list[tuple] = []

    def client(self, tag: int, client_id: str, recorder, transport) -> ZHT:
        zht = self.cluster.client(
            seed=(self.seed << 8) + tag, recorder=recorder, client_id=client_id
        )
        zht.transport = transport
        return zht

    def script(self, script) -> Generator:
        # Runs to its end right here, over the deployment's own transport:
        # a manager's calls do not cross a client's fault plan.
        yield from ()
        return self.cluster.run(script)

    def kill_shard(self, shard: int) -> None:
        server = self.cluster.servers[0]
        self.respawns.append((server, shard, server.shard_pid(shard)))
        server.kill_shard(shard)

    def settle(self) -> None:
        for server, shard, old_pid in self.respawns:
            server.wait_for_respawn(shard, old_pid, timeout=10.0)
        self.cluster.quiesce()

    def lookup(self) -> Callable[[bytes], bytes]:
        return self.cluster.client(seed=self.seed + 0xF00D).lookup

    def run_job(self, job: Callable[[Any], Generator]) -> None:
        """Drive *job*'s generator over a fault-injecting transport of its own."""
        transport = FaultyClientTransport(self.cluster._transport(), self.plan)
        drive(job(transport), transport)

    def run(self, jobs: list[Callable], tail: Callable) -> tuple[float, float]:
        """Drive each job on a thread, then *tail* on this one; returns when
        the jobs started and ended, or raises the first job's exception."""
        errors: list[BaseException] = []

        def thread(job: Callable) -> None:
            try:
                self.run_job(job)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=thread, args=(job,), name=f"scenario-c{i}")
            for i, job in enumerate(jobs)
        ]
        # The clients run in this process.  A generation-2 collection of a
        # large heap (a whole test session's: about one request timeout)
        # falling due mid-run stalls all of them at once and reads as
        # every server timing out.  Collect now instead.
        gc.collect()
        t_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t_end = time.perf_counter()
        if errors:
            raise errors[0]
        self.run_job(tail)
        return t_start, t_end


class _Sim:
    """The DES runs every generator as a process of one engine run, in
    simulated time; the fault plan lives in its modeled network."""

    #: Every process runs on one thread, so a client must not block on
    #: the fault lock: its holder is a process suspended in a repair, and
    #: a kill (no yields) is done before any other process runs.
    wait_for_events = False

    def __init__(self, cluster: SimulatedCluster, seed: int) -> None:
        self.cluster, self.seed = cluster, seed
        self.now: Callable[[], float] = lambda: cluster.env.now

    def client(self, tag: int, client_id: str, recorder, _transport) -> OpClient:
        # The DES keeps its own client seeds (0xE5 + index, 0x1F1, 0x1F2)
        # so its seed sweeps replay, and its clients run on the simulated
        # clock: deadlines and breaker cooldowns must not depend on how
        # fast the host is.
        tag += 0xE5 if tag < _READER else 0x100
        core = ZHTClientCore(
            self.cluster.membership.copy(),
            self.cluster.config,
            rng=random.Random((self.seed << 16) ^ tag),
            clock=self.now,
        )
        return OpClient(core, recorder=recorder, client_id=client_id)

    def script(self, script) -> Generator:
        return script_loop(script, self.cluster.config)

    def settle(self) -> None:
        """Nothing is left to wait for inside one engine run."""

    def lookup(self) -> Callable[[bytes], bytes]:
        return self.cluster.owner_value

    def run(self, jobs: list[Callable], tail: Callable) -> tuple[float, float]:
        cluster, env = self.cluster, self.cluster.env
        end: list[float] = []

        def main() -> Iterator[Any]:
            procs = [
                env.process(cluster.drive(job(None)), name=f"scenario-c{i}")
                for i, job in enumerate(jobs)
            ]
            for proc in procs:
                yield proc
            end.append(env.now)
            yield from cluster.drive(tail(None))

        proc = env.process(main(), name="scenario-main")
        env.run()
        if not proc.done:
            raise RuntimeError("sim scenario workload deadlocked")
        return 0.0, end[0]


def _run(
    scenario: Scenario,
    runtime: _Live | _Sim,
    plan: FaultPlan,
    seed: int,
    verdict: Verdict,
    history_path: str | None,
) -> None:
    """The scenario loop: every client's ops, the fault events they
    cross, the read-back and the tail probes, as generators *runtime*
    runs; then the checks and the verdict."""
    cluster = runtime.cluster
    config, membership = cluster.config, cluster.membership
    streams = build_streams(scenario.workload, seed)
    verdict.clients = len(streams)
    now = runtime.now
    history = recorder = None
    if scenario.checks.linearizability:
        recorder = HistoryRecorder(history_path, clock=now, fresh=True)
        ops = [op for stream in streams for op in stream.ops]
        history = _History(
            recorder,
            keys=sorted({key for _op, key, _value in ops}),
            append_keys={key for op, key, _value in ops if op == OpCode.APPEND},
        )
    schedule = _FaultSchedule(scenario, membership, now)
    resolve_victim_rules(plan, membership, schedule.designated_victim)
    tally = _Tally()
    lock = threading.Lock()  # guards tally and stats
    fire_lock = threading.Lock()  # one client at a time enacts fault events
    stats: list[CounterSet] = []

    def fire() -> Iterator[Any]:
        # Whichever client crosses a scheduled progress point enacts the
        # event, so a kill lands between two ops of the workload, and the
        # other clients keep issuing ops meanwhile.  The lock stops a
        # second client from enacting events before the first is done: a
        # kill falling due while a repair still re-replicates waits for it
        # instead of taking down the last copy it was about to copy.  Only
        # a client with an event due takes the lock, and a live client
        # waits for it, so no client runs an op past a kill's point before
        # the kill is done, however long its enactor is descheduled.
        if not schedule.is_due(tally.done):
            return
        if not fire_lock.acquire(blocking=runtime.wait_for_events):
            return
        try:
            for action, target in schedule.due(tally.done):
                if action == "kill":
                    plan.crash_target(target, *map(str, cluster.kill_node(target)))
                elif action == "repair":
                    yield from runtime.script(
                        repair_script(membership, target, config, seed)
                    )
                else:  # kill_shard validates onto the sharded backend only
                    runtime.kill_shard(target)
                    # Traced, but NOT marked crashed: the supervisor
                    # respawns the shard and clients retry through the gap.
                    plan.record_external(FaultKind.CRASH, f"shard:{target}")
        finally:
            fire_lock.release()

    def client_proc(stream: ClientStream, transport) -> Iterator[Any]:
        index = stream.client_index
        client = runtime.client(index, f"c{index:02d}", recorder, transport)
        with lock:
            stats.append(client.stats)
        for op, key, value in stream.ops:
            yield from fire()
            t_call = now()
            try:
                yield from client.op(op, key, value)
                ok = True
            except KeyNotFound:
                ok = True
            except ZHTError:
                ok = False
            with lock:
                tally.settle(stream, op, key, value, t_call, now(), ok)

    def read_back(transport) -> Iterator[Any]:
        # The events due at the very end; then every touched key's final
        # value, and each async tail probed once the bound has passed.
        yield from fire()
        runtime.settle()
        if history is None:
            return
        reader = runtime.client(_READER, "reader", recorder, transport)
        for key in history.keys:
            for _attempt in range(3):
                try:
                    response = yield from reader.op(OpCode.LOOKUP, key)
                    history.final_values[key] = response.value
                except KeyNotFound:
                    history.final_values[key] = None
                except ZHTError:
                    continue
                break
        if scenario.topology.replicas < 2:
            return
        yield Sleep(scenario.checks.staleness_bound + TAIL_PROBE_MARGIN_S)
        prober = runtime.client(_PROBER, "tail-prober", recorder, transport)
        for key in history.keys:
            if key not in history.append_keys:
                try:
                    yield from prober.op(OpCode.LOOKUP, key, replica_index=2)
                except ZHTError:
                    pass
                history.tail_probes += 1

    jobs = [partial(client_proc, stream) for stream in streams]
    try:
        t_start, t_end = runtime.run(jobs, read_back)
        verdict.checks = _run_checks(scenario, tally, runtime.lookup(), cluster, history)
    finally:
        if history is not None:
            history.recorder.close()
    total_ops = scenario.workload.total_ops
    verdict.ops_attempted = total_ops
    verdict.ops_acked = tally.acked
    verdict.ops_failed = tally.failed
    verdict.victims = list(schedule.killed)
    verdict.injected_faults = len(plan.trace)
    verdict.fault_digest = plan.trace_digest()
    verdict.metrics = {
        "ops.attempted": total_ops,
        "ops.acked": tally.acked,
        "ops.failed": tally.failed,
        "ops.acked_ratio": tally.acked / max(total_ops, 1),
        # Simulated seconds on the sim backend (the DES clock).
        "ops.throughput_per_s": tally.acked / max(t_end - t_start, 1e-9),
        "faults.injected": len(plan.trace),
        **{f"client.{n}": sum(getattr(s, n) for s in stats) for n in _CLIENT_STATS},
        **schedule.window_metrics(tally.intervals, t_start, t_end),
    }
    if history is not None:
        verdict.metrics["history.events"] = len(history.recorder)
        verdict.metrics["history.tail_probes"] = history.tail_probes
    verdict.gates = _evaluate_gates(scenario, verdict.metrics)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    *,
    backend: str | None = None,
    seed: int | None = None,
    ops_per_client: int | None = None,
    history_path: str | None = None,
) -> Verdict:
    """Run *scenario* and return its :class:`Verdict`.

    ``backend``/``seed``/``ops_per_client`` override the scenario's own
    values (the CLI's ``--backend``/``--seed``/``--ops`` flags);
    ``history_path`` also streams the ``checks.linearizability`` op
    history to a JSONL artifact (``repro verify --check`` re-checks it).
    Configuration problems raise :class:`ScenarioError` before anything
    starts; runtime failures are folded into a failing verdict.
    """
    scenario.validate()
    backend = backend or scenario.default_backend
    if backend not in scenario.backends:
        raise ScenarioError(
            "backend",
            f"scenario {scenario.name!r} does not support {backend!r}; "
            f"declared backends: {', '.join(scenario.backends)}",
        )
    if history_path is not None and not scenario.checks.linearizability:
        raise ScenarioError(
            "history_path", "a history is only recorded with checks.linearizability"
        )
    if ops_per_client is not None:
        if ops_per_client < 1:
            raise ScenarioError("ops_per_client", "must be >= 1")
        scenario = replace(
            scenario,
            workload=replace(scenario.workload, ops_per_client=ops_per_client),
        )
    seed = scenario.seed if seed is None else seed

    verdict = Verdict(scenario=scenario.name, backend=backend, seed=seed)
    t0 = time.perf_counter()
    tmpdir: tempfile.TemporaryDirectory | None = None
    try:
        config, tmpdir = _build_config(scenario, backend)
        plan = build_plan(scenario, seed)
        with build_cluster(
            backend, scenario.topology.nodes, config, seed, faults=plan
        ) as cluster:
            runtime = (
                _Sim(cluster, seed)
                if isinstance(cluster, SimulatedCluster)
                else _Live(cluster, plan, seed)
            )
            _run(scenario, runtime, plan, seed, verdict, history_path)
    except Exception as exc:  # noqa: BLE001 - fold into the verdict
        verdict.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    verdict.duration_s = time.perf_counter() - t0
    verdict.ok = (
        verdict.error is None
        and all(c.status != "fail" for c in verdict.checks)
        and all(g.ok for g in verdict.gates)
    )
    return verdict
