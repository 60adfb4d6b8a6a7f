"""The validated scenario schema.

One :class:`Scenario` is the single, self-contained contract for an
entire adverse-conditions run — topology, traffic, fault plan,
invariant checks, and metric gates — validated **before** anything
starts, so a malformed config is rejected with an actionable,
path-qualified error instead of a traceback halfway through a cluster
run (the validation-first design of AsyncFlow's ``SimulationPayload``).

Everything is plain stdlib dataclasses: the schema must load in the
bare container.  One codec, :func:`from_dict` / :func:`to_dict`, reads
and writes every spec from its field declarations.  Parsing is strict
(unknown fields are rejected, with a did-you-mean suggestion; every
value must have its declared type) and checks nothing else: ranges,
choices and cross-field rules live in each spec's ``validate()``,
which Python-built scenarios pass through too.  ``to_dict`` emits the
full canonical form, so every scenario that validates satisfies
``Scenario.from_json(s.to_json()) == s`` — the round-trip property the
library tests enforce on every shipped scenario file.
"""

from __future__ import annotations

import difflib
import functools
import json
from dataclasses import MISSING, dataclass, field, fields as dc_fields, is_dataclass
from typing import Any, Callable, Iterable, Sequence, get_args, get_origin, get_type_hints

#: Backends a scenario may declare; the first entry of
#: ``Scenario.backends`` is its default.
BACKENDS = ("local", "tcp", "udp", "sim", "sharded")
#: Per-tenant traffic shapes (built on :mod:`repro.workload`).
SHAPES = ("uniform", "zipf", "append", "registers")
#: Node-level fault actions, fired at workload-progress fractions.
FAULT_ACTIONS = ("kill", "repair", "kill_shard")
#: Which messages a message-level fault rule matches.
MESSAGE_TARGETS = ("any", "victim")
#: Named FaultPlan presets layered under the per-rule messages.
NAMED_PLANS = ("overload", "flapping")
#: Gate comparison operators.
GATE_OPS = ("<", "<=", ">", ">=", "==")
#: Run-report metrics a gate may reference directly.
REPORT_METRICS = (
    "ops.attempted",
    "ops.acked",
    "ops.failed",
    "ops.acked_ratio",
    "ops.throughput_per_s",
    # Cut at the first kill / first repair event (absent when the
    # scenario kills nothing); simulated seconds on the sim backend.
    "ops.throughput_before_per_s",
    "ops.throughput_during_per_s",
    "ops.throughput_after_per_s",
    "fault.failover_latency_s",
    "fault.repair_time_s",
    "faults.injected",
    "client.retries",
    "client.failovers",
    "client.nodes_marked_dead",
    "client.reprobes",
    "client.hot_cache_hits",
    # Only with checks.linearizability on.
    "history.events",
    "history.tail_probes",
)
#: Stats a ``latency:<histogram>:<stat>`` gate may reference.
LATENCY_STATS = ("count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "min_ms", "max_ms")


class ScenarioError(ValueError):
    """A scenario failed validation.  ``path`` locates the offending
    field (e.g. ``faults.messages[2].delay_s``); the message says what
    was wrong and what would be accepted."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _suggest(name: str, candidates: Iterable[str]) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_keys(data: dict, cls: type, path: str) -> None:
    allowed = {f.name for f in dc_fields(cls)}
    for key in data:
        if key not in allowed:
            raise ScenarioError(
                path,
                f"unknown field {key!r}{_suggest(key, allowed)}; "
                f"expected one of: {', '.join(sorted(allowed))}",
            )


def _as_dict(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {type(data).__name__}")
    return data


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected true/false, got {value!r}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {value!r}")
    return value


def _choice(value: Any, allowed: Sequence[str], path: str) -> None:
    if _string(value, path) not in allowed:
        raise ScenarioError(
            path,
            f"unknown value {value!r}{_suggest(value, allowed)}; "
            f"must be one of: {', '.join(allowed)}",
        )


# ---------------------------------------------------------------------------
# The codec: one reader and one writer for every spec
# ---------------------------------------------------------------------------

_SCALARS: dict[Any, Callable[[Any, str], Any]] = {
    int: _integer,
    float: _number,
    bool: _boolean,
    str: _string,
}


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _decode(hint: Any, value: Any, path: str) -> Any:
    """One JSON value as a field declared ``hint``: a scalar, ``dict``,
    ``tuple[T, ...]`` (a JSON list), ``X | None`` or a nested spec."""
    if hint in _SCALARS:
        return _SCALARS[hint](value, path)
    if hint is dict:
        return dict(_as_dict(value, path))
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if type(None) in args:
        return None if value is None else _decode(args[0], value, path)
    return from_dict(hint, value, path)


def from_dict(cls: Any, data: Any, path: str) -> Any:
    """Build the spec ``cls`` from a JSON object, strictly: unknown keys
    are rejected, an absent field takes its declared default (a field
    without one is required), and each value must have its declared
    type.  Ranges and choices are left to ``validate()``."""
    data = _as_dict(data, path)
    _check_keys(data, cls, path)
    hints = _hints(cls)
    values = {}
    for f in dc_fields(cls):
        where = f"{path}.{f.name}"
        if f.name in data:
            values[f.name] = _decode(hints[f.name], data[f.name], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(where, "required field is missing")
    return cls(**values)


def _encode(value: Any) -> Any:
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def to_dict(spec: Any) -> dict:
    """The canonical JSON form of a spec: every field, nested specs as
    objects and tuples as lists."""
    return {f.name: _encode(getattr(spec, f.name)) for f in dc_fields(spec)}


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """Cluster shape plus raw :class:`~repro.core.config.ZHTConfig`
    overrides (validated against the real config fields)."""

    nodes: int = 4
    replicas: int = 1
    #: Worker processes per node — applied on the ``sharded`` backend,
    #: ignored (single-process nodes) elsewhere.
    shards: int = 2
    partitions: int = 64
    #: ZHTConfig field overrides.  ``persistence_dir: "auto"`` asks the
    #: runner for a run-scoped temporary directory.
    config: dict = field(default_factory=dict)

    def validate(self, path: str = "topology") -> None:
        if self.nodes < 1:
            raise ScenarioError(f"{path}.nodes", f"must be >= 1, got {self.nodes}")
        if self.replicas < 0:
            raise ScenarioError(
                f"{path}.replicas", f"must be >= 0, got {self.replicas}"
            )
        if self.replicas >= self.nodes:
            raise ScenarioError(
                f"{path}.replicas",
                f"{self.replicas} replica(s) need at least "
                f"{self.replicas + 1} nodes, got {self.nodes}",
            )
        if self.shards < 1:
            raise ScenarioError(f"{path}.shards", f"must be >= 1, got {self.shards}")
        if self.partitions < 1:
            raise ScenarioError(
                f"{path}.partitions", f"must be >= 1, got {self.partitions}"
            )
        from ..core.config import ZHTConfig

        known = {f.name for f in dc_fields(ZHTConfig)}
        reserved = {
            "num_partitions": "topology.partitions",
            "num_shards": "topology.shards",
            "num_replicas": "topology.replicas",
            "transport": "the backend",
        }
        overrides = self.config
        for key, value in overrides.items():
            if key in reserved:
                raise ScenarioError(
                    f"{path}.config.{key}",
                    f"is owned by {reserved[key]}; set it there instead",
                )
            if key not in known:
                raise ScenarioError(
                    f"{path}.config.{key}",
                    f"not a ZHTConfig field{_suggest(key, known)}",
                )
            if value is not None and not isinstance(value, (bool, int, float, str)):
                raise ScenarioError(
                    f"{path}.config.{key}",
                    f"override must be a JSON scalar, got {type(value).__name__}",
                )


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class.  A single-tenant workload is the common case;
    several tenants make a mixed multi-tenant profile (each tenant's
    keys live under its own ``name-`` prefix)."""

    name: str
    #: ``registers`` is the linearizability checker's workload: distinct-
    #: valued insert/lookup/remove on ``universe`` register keys plus
    #: append/lookup on ``hot_keys`` append keys.  Racing writers store
    #: different bytes, so it is not ledger-sound and needs
    #: ``checks.linearizability``.
    shape: str = "uniform"
    clients: int = 2
    #: Mutation fraction (the rest are LOOKUPs); ignored by ``append``.
    write_ratio: float = 0.5
    zipf_alpha: float = 0.99
    #: Key-universe size for uniform/zipf; register-key count for registers.
    universe: int = 256
    #: Hot-key count for the append shape; append-key count for registers.
    hot_keys: int = 2
    value_bytes: int = 64

    def validate(self, path: str) -> None:
        if not self.name or not self.name.replace("-", "").isalnum():
            raise ScenarioError(
                f"{path}.name",
                f"must be a non-empty alphanumeric/dash identifier, got {self.name!r}",
            )
        _choice(self.shape, SHAPES, f"{path}.shape")
        if self.clients < 1:
            raise ScenarioError(f"{path}.clients", f"must be >= 1, got {self.clients}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ScenarioError(
                f"{path}.write_ratio", f"must be in [0, 1], got {self.write_ratio}"
            )
        if self.zipf_alpha <= 0:
            raise ScenarioError(
                f"{path}.zipf_alpha", f"must be > 0, got {self.zipf_alpha}"
            )
        if self.universe < 1:
            raise ScenarioError(
                f"{path}.universe", f"must be >= 1, got {self.universe}"
            )
        if self.hot_keys < 1:
            raise ScenarioError(
                f"{path}.hot_keys", f"must be >= 1, got {self.hot_keys}"
            )
        if not 1 <= self.value_bytes <= 65536:
            raise ScenarioError(
                f"{path}.value_bytes",
                f"must be in [1, 65536], got {self.value_bytes}",
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """The traffic profile: how many ops each client issues, and which
    tenant classes the clients belong to."""

    ops_per_client: int = 60
    tenants: tuple[TenantSpec, ...] = (TenantSpec(name="default"),)

    def validate(self, path: str = "workload") -> None:
        if self.ops_per_client < 1:
            raise ScenarioError(
                f"{path}.ops_per_client", f"must be >= 1, got {self.ops_per_client}"
            )
        if not self.tenants:
            raise ScenarioError(f"{path}.tenants", "at least one tenant is required")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError(
                f"{path}.tenants", f"tenant names must be unique, got {names}"
            )
        for i, tenant in enumerate(self.tenants):
            tenant.validate(f"{path}.tenants[{i}]")

    @property
    def total_clients(self) -> int:
        return sum(t.clients for t in self.tenants)

    @property
    def total_ops(self) -> int:
        return self.ops_per_client * self.total_clients


@dataclass(frozen=True)
class FaultEvent:
    """A node-level fault action fired when workload progress crosses
    ``at`` (a fraction of total ops)."""

    action: str
    at: float
    #: Victim selector: ``-1`` = automatic (next victim in deterministic
    #: order for ``kill``, most recent unrepaired victim for ``repair``);
    #: otherwise an index into the sorted node list (``kill``/``repair``)
    #: or a shard index (``kill_shard``).
    target: int = -1

    def validate(self, path: str) -> None:
        _choice(self.action, FAULT_ACTIONS, f"{path}.action")
        if not 0.0 <= self.at <= 1.0:
            raise ScenarioError(
                f"{path}.at",
                f"progress fraction must be in [0, 1], got {self.at}",
            )
        if self.target < -1:
            raise ScenarioError(
                f"{path}.target", f"must be -1 (auto) or >= 0, got {self.target}"
            )


@dataclass(frozen=True)
class MessageFault:
    """A declarative message-level fault rule, compiled to a
    :class:`~repro.faults.plan.FaultRule` (same matching semantics)."""

    kind: str
    probability: float = 1.0
    #: ``"any"`` message, or ``"victim"`` — the designated problem node
    #: (the first kill target, or the deterministic victim when the
    #: scenario kills nothing).
    target: str = "any"
    #: OpCode name filter (e.g. ``"INSERT"``) or null for any op.
    op: str | None = None
    #: Skip the first N matching messages before the rule is eligible.
    after: int = 0
    #: Max firings (null = unlimited).
    count: int | None = None
    #: Injected latency for delay/stall kinds (seconds).
    delay_s: float = 0.0

    def validate(self, path: str) -> None:
        from ..faults.plan import FaultKind

        _choice(self.kind, FaultKind.MESSAGE_KINDS, f"{path}.kind")
        _choice(self.target, MESSAGE_TARGETS, f"{path}.target")
        if not 0.0 <= self.probability <= 1.0:
            raise ScenarioError(
                f"{path}.probability", f"must be in [0, 1], got {self.probability}"
            )
        if self.op is not None:
            from ..core.protocol import OpCode

            names = [o.name for o in OpCode]
            if self.op not in names:
                raise ScenarioError(
                    f"{path}.op",
                    f"unknown opcode {self.op!r}{_suggest(self.op, names)}",
                )
        if self.after < 0:
            raise ScenarioError(f"{path}.after", f"must be >= 0, got {self.after}")
        if self.count is not None and self.count < 1:
            raise ScenarioError(
                f"{path}.count", f"must be >= 1 or null, got {self.count}"
            )
        if self.delay_s < 0:
            raise ScenarioError(
                f"{path}.delay_s",
                f"durations must be >= 0, got {self.delay_s}",
            )
        if self.kind in ("delay", "stall") and self.delay_s == 0:
            raise ScenarioError(
                f"{path}.delay_s",
                f"{self.kind} faults need delay_s > 0",
            )


@dataclass(frozen=True)
class FaultsSpec:
    """The complete fault plan: an optional named preset, scheduled
    node-level events, and message-level rules."""

    #: Named :class:`~repro.faults.plan.FaultPlan` preset layered under
    #: the explicit message rules (``overload`` / ``flapping``).
    plan: str | None = None
    events: tuple[FaultEvent, ...] = ()
    messages: tuple[MessageFault, ...] = ()

    def validate(self, path: str = "faults") -> None:
        if self.plan is not None:
            _choice(self.plan, NAMED_PLANS, f"{path}.plan")
        last_at = 0.0
        pending_kills = 0
        for i, event in enumerate(self.events):
            event.validate(f"{path}.events[{i}]")
            if event.at < last_at:
                raise ScenarioError(
                    f"{path}.events[{i}].at",
                    f"events must be ordered by progress; {event.at} "
                    f"follows {last_at}",
                )
            last_at = event.at
            if event.action == "kill":
                pending_kills += 1
            elif event.action == "repair":
                if pending_kills == 0:
                    raise ScenarioError(
                        f"{path}.events[{i}]",
                        "repair without a preceding kill",
                    )
                pending_kills -= 1
        for i, message in enumerate(self.messages):
            message.validate(f"{path}.messages[{i}]")

    @property
    def kills(self) -> int:
        return sum(1 for e in self.events if e.action == "kill")

    @property
    def lossy(self) -> bool:
        """True when the plan can lose or duplicate acked messages (which
        makes mutations at-least-once, like ``chaos --durability-only``).
        The ``overload`` preset only stalls round trips, so it is not."""
        if self.plan is not None and self.plan != "overload":
            return True
        return any(
            m.kind in ("drop", "duplicate", "reset") for m in self.messages
        )


@dataclass(frozen=True)
class ChecksSpec:
    """Which post-run invariants must hold for the verdict to pass.

    ``durability`` is the paper's acked-durability guarantee and is
    checkable on every backend.  ``divergence``/``replication``/
    ``convergence`` introspect server stores and are auto-skipped
    (reported, not failed) on the sharded backend, whose workers live
    in child processes.  ``linearizability`` judges the recorded client
    history instead of the stores, so it too runs on every backend.
    """

    #: No acknowledged write may be lost (readable via a fresh client).
    durability: bool = True
    #: The owner must agree with the ack ledger (off under lossy plans:
    #: retries make mutations at-least-once).
    divergence: bool = False
    #: Every key on >= min(replicas+1, alive) instances after the run.
    replication: bool = False
    #: Replica chains converge to the expected value after quiesce.
    convergence: bool = False
    #: Record every client op, read every touched key back after quiesce
    #: (plus, with replicas >= 2, probe the async tail at chain position
    #: 2) and run the history through :func:`repro.verify.check_history`.
    linearizability: bool = False
    #: Seconds an async-replica read may lag (used when replicas >= 2).
    staleness_bound: float = 0.25

    def validate(self, path: str = "checks") -> None:
        if self.staleness_bound <= 0:
            raise ScenarioError(
                f"{path}.staleness_bound",
                f"must be > 0 seconds, got {self.staleness_bound}",
            )


@dataclass(frozen=True)
class GateSpec:
    """A numeric threshold over run metrics: a report metric by name
    (see :data:`REPORT_METRICS`), a registry counter
    (``counter:<name>``), or a latency stat
    (``latency:<histogram>:<stat>``)."""

    metric: str
    op: str
    value: float

    def validate(self, path: str) -> None:
        _choice(self.op, GATE_OPS, f"{path}.op")
        metric = self.metric
        if ":" in metric:
            parts = metric.split(":")
            if parts[0] == "counter" and len(parts) == 2 and parts[1]:
                return
            if parts[0] == "latency":
                if len(parts) == 3 and parts[1] and parts[2] in LATENCY_STATS:
                    return
                raise ScenarioError(
                    f"{path}.metric",
                    f"latency gates are 'latency:<histogram>:<stat>' with "
                    f"stat one of: {', '.join(LATENCY_STATS)}; got {metric!r}",
                )
            raise ScenarioError(
                f"{path}.metric",
                f"unknown metric namespace {parts[0]!r}; registry gates "
                f"use 'counter:<name>' or 'latency:<histogram>:<stat>'",
            )
        if metric not in REPORT_METRICS:
            raise ScenarioError(
                f"{path}.metric",
                f"unknown metric {metric!r}{_suggest(metric, REPORT_METRICS)}; "
                f"report metrics: {', '.join(REPORT_METRICS)} — or use "
                f"'counter:<name>' / 'latency:<histogram>:<stat>'",
            )

    def describe(self) -> str:
        return f"{self.metric} {self.op} {self.value:g}"


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One validated, self-contained scenario."""

    name: str
    description: str
    backends: tuple[str, ...] = ("local",)
    seed: int = 0
    tags: tuple[str, ...] = ()
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    checks: ChecksSpec = field(default_factory=ChecksSpec)
    gates: tuple[GateSpec, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "scenario") -> "Scenario":
        scenario: Scenario = from_dict(cls, data, path)
        scenario.validate(path)
        return scenario

    @classmethod
    def from_json(cls, text: str, path: str = "scenario") -> "Scenario":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(path, f"not valid JSON: {exc}") from None
        return cls.from_dict(data, path)

    def validate(self, path: str = "scenario") -> None:
        # A Python-built scenario meets the parser's type rules too, so
        # whatever validates survives to_json -> from_json.
        from_dict(Scenario, to_dict(self), path)
        if not self.name or not self.name.replace("-", "").isalnum():
            raise ScenarioError(
                f"{path}.name",
                f"must be a non-empty kebab-case identifier, got {self.name!r}",
            )
        if not self.backends:
            raise ScenarioError(f"{path}.backends", "at least one backend is required")
        for i, backend in enumerate(self.backends):
            _choice(backend, BACKENDS, f"{path}.backends[{i}]")
        self.topology.validate(f"{path}.topology")
        self.workload.validate(f"{path}.workload")
        self.faults.validate(f"{path}.faults")
        self.checks.validate(f"{path}.checks")
        for i, gate in enumerate(self.gates):
            gate.validate(f"{path}.gates[{i}]")

        # -- cross-component consistency ---------------------------------
        kills = self.faults.kills
        if kills and self.topology.nodes < 3:
            raise ScenarioError(
                f"{path}.topology.nodes",
                f"kill events need >= 3 nodes (victim + survivors), "
                f"got {self.topology.nodes}",
            )
        if kills > max(0, self.topology.nodes - 2):
            raise ScenarioError(
                f"{path}.faults.events",
                f"{kills} kill(s) on {self.topology.nodes} nodes would leave "
                f"fewer than 2 survivors",
            )
        if kills and self.checks.durability and self.topology.replicas < 1:
            raise ScenarioError(
                f"{path}.topology.replicas",
                "killing a node while checking durability requires "
                "replicas >= 1 (an unreplicated victim loses acked data "
                "by construction)",
            )
        shard_kills = [e for e in self.faults.events if e.action == "kill_shard"]
        if shard_kills:
            if set(self.backends) != {"sharded"}:
                raise ScenarioError(
                    f"{path}.backends",
                    "kill_shard events only run on the sharded backend; "
                    'set "backends": ["sharded"]',
                )
            if self.topology.shards < 2:
                raise ScenarioError(
                    f"{path}.topology.shards",
                    "kill_shard needs >= 2 shards per node (a sibling must "
                    "keep serving)",
                )
        if not self.checks.linearizability:
            for i, tenant in enumerate(self.workload.tenants):
                if tenant.shape == "registers":
                    raise ScenarioError(
                        f"{path}.workload.tenants[{i}].shape",
                        "registers tenants race distinct values on shared "
                        "keys, which no ledger-based check can judge; set "
                        "checks.linearizability to true",
                    )
        if self.faults.lossy and (
            self.checks.divergence or self.checks.convergence
        ):
            raise ScenarioError(
                f"{path}.checks",
                "lossy fault plans (drops/duplicates/resets or the "
                "flapping plan) make mutations at-least-once; divergence and "
                "convergence checks cannot hold — gate on durability "
                "instead (see chaos --durability-only)",
            )

    def to_dict(self) -> dict:
        return to_dict(self)

    def to_json(self) -> str:
        """Canonical serialization (the library's on-disk format)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def default_backend(self) -> str:
        return self.backends[0]
