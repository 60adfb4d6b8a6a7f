"""``repro chaos`` and ``repro verify`` as scenarios.

:func:`run_chaos` and :func:`run_verify` keep the keyword arguments the
two hand-wired harnesses had, but each only *synthesises* a
:class:`~repro.scenario.schema.Scenario` document
(:func:`chaos_scenario` / :func:`verify_scenario`) and hands it to
:func:`~repro.scenario.runner.run_scenario` — no cluster is built, no
thread spawned and no invariant judged here.  The synthesised document
is an ordinary scenario: ``.to_json()`` it, edit it, and
``repro scenario run`` replays the same experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .schema import (
    ChecksSpec,
    FaultEvent,
    FaultsSpec,
    MessageFault,
    Scenario,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
)

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan
    from .runner import Verdict

MUTATIONS = ("none", "ack-unreplicated", "stale-tail")


def _fault_messages(plan: FaultPlan | str | None) -> tuple[str | None, tuple]:
    """``(faults.plan, faults.messages)`` for a named preset or for a
    :class:`FaultPlan` object's message rules.  Only the rules carry
    over: their firing schedule is seeded by the run's seed."""
    if plan is None or isinstance(plan, str):
        return plan, ()
    messages = []
    for rule in plan.rules:
        if rule.target not in (None, "victim") or rule.at_time is not None:
            raise ValueError(
                f"a scenario cannot express fault rule {rule!r}: message "
                f"rules target any node or the 'victim' sentinel"
            )
        messages.append(
            MessageFault(
                kind=rule.kind,
                probability=rule.probability,
                target=rule.target or "any",
                op=rule.op,
                after=rule.after,
                count=rule.count,
                delay_s=rule.delay,
            )
        )
    return None, tuple(messages)


def chaos_scenario(
    backend: str = "local",
    *,
    nodes: int = 4,
    replicas: int = 1,
    ops: int = 240,
    seed: int = 0,
    plan: FaultPlan | str | None = None,
    config: dict | None = None,
    value_bytes: int = 64,
    kill_fraction: float = 0.35,
    detector: str | None = None,
) -> Scenario:
    """The kill-and-repair scenario behind ``repro chaos``: one client
    streams INSERTs while a second APPENDs to keys of its own (*ops* in
    total), the deterministic victim is hard-killed at *kill_fraction* of
    the way through and repaired by a manager a sixth of the run later;
    all four store invariants must hold.  Under a lossy *plan* mutations
    are at-least-once, so divergence and convergence cannot be judged
    (the schema rejects them): durability and replication remain."""
    if nodes < 3:
        raise ValueError("chaos needs >= 3 nodes (victim + survivors)")
    overrides = dict(config or {})
    if detector is not None:
        overrides["failure_detector"] = detector
    kill_index = max(1, int(ops * kill_fraction))
    repair_index = min(ops - 1, kill_index + max(6, ops // 6))
    preset, messages = _fault_messages(plan)
    faults = FaultsSpec(
        plan=preset,
        events=(
            FaultEvent("kill", kill_index / ops),
            FaultEvent("repair", repair_index / ops),
        ),
        messages=messages,
    )
    strict = not faults.lossy
    return Scenario(
        name="chaos",
        description="An INSERT writer and an APPEND writer ride through a "
        "node kill and its repair.",
        backends=(backend,),
        seed=seed,
        topology=TopologySpec(nodes=nodes, replicas=replicas, config=overrides),
        workload=WorkloadSpec(
            ops_per_client=-(-ops // 2),
            tenants=(
                TenantSpec(
                    name="chaos",
                    clients=1,
                    write_ratio=1.0,
                    universe=max(ops, 1),
                    value_bytes=value_bytes,
                ),
                # Single-writer append keys: their acked fragments, copy
                # count and replica agreement are judged through the kill
                # and the repair like the INSERTs.
                TenantSpec(
                    name="chaos-app",
                    shape="append",
                    clients=1,
                    hot_keys=max(2, ops // 8),
                ),
            ),
        ),
        faults=faults,
        checks=ChecksSpec(
            durability=True, divergence=strict, replication=True, convergence=strict
        ),
    )


def run_chaos(backend: str = "local", **kwargs: Any) -> Verdict:
    """Run :func:`chaos_scenario` (same keyword arguments); the verdict's
    ``fault.*`` / ``ops.throughput_*`` metrics carry the failover and
    repair measurements."""
    from .runner import run_scenario

    return run_scenario(chaos_scenario(backend, **kwargs))


def verify_scenario(
    backend: str = "local",
    *,
    ops: int = 400,
    seed: int = 0,
    clients: int = 4,
    nodes: int = 4,
    replicas: int = 1,
    chaos: bool = True,
    mutation: str = "none",
    staleness_bound: float = 0.25,
    hot_cache: bool = False,
    plan: FaultPlan | str | None = None,
    shards: int | None = None,
) -> Scenario:
    """The record → crash → recover → check scenario behind ``repro
    verify``: *clients* concurrent register/append clients, a mid-run
    node kill + repair (``chaos``), and ``checks.linearizability``.
    With the defaults this is the library's ``kill-repair-linearizable``.

    ``mutation`` turns on a deliberately broken replication mode — the
    checker's self-test (it must fail): ``ack-unreplicated`` acks writes
    the strong secondary never saw, so the kill loses acked data;
    ``stale-tail`` freezes the async tail so its reads fall behind every
    staleness bound.  ``hot_cache`` adds a hot-key tenant with the client
    value cache on and an aggressively low heat threshold, so cache hits
    (recorded as reads at chain position >= 2) are certified against the
    bounded-staleness contract.  Its ops come on top of *ops*, which the
    *clients* register/append clients share (rounded up to a whole
    number each).
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"mutation must be one of {MUTATIONS}")
    if clients < 1:
        raise ValueError("verify needs >= 1 client")
    overrides: dict = {}
    tenants = [
        TenantSpec(
            name="verify",
            shape="registers",
            clients=clients,
            write_ratio=0.65,
            # Small enough that keys see real concurrency, large enough
            # that per-key histories stay tractable for the checker.
            universe=max(4, ops // 8),
            hot_keys=max(2, clients),
        )
    ]
    if backend == "udp":
        # Concurrent clients can overflow loopback UDP socket buffers;
        # at the harness default of 2 strikes a burst of drops falsely
        # suspects a healthy owner and fails reads over to a replica
        # that never saw the writes — real (and detected!) weak
        # behaviour, but not the scenario under test.
        overrides["failures_before_dead"] = 8
    if hot_cache:
        overrides.update(
            hot_key_cache_size=256,
            # TTL well inside the bound: a served value is at most
            # TTL + replication-lag old.
            hot_key_cache_ttl_s=min(0.1, staleness_bound / 2),
            hot_key_threshold=4,
            hot_read_spread=True,
        )
        tenants.append(
            TenantSpec(
                name="hot", shape="zipf", clients=1, write_ratio=0.1, universe=4
            )
        )
        replicas = max(replicas, 2)
    if mutation == "ack-unreplicated":
        # The bug only surfaces once the secondary serves reads, so the
        # scenario needs a replica chain and the mid-run kill.
        overrides["test_skip_secondary_sync"] = True
        replicas = max(replicas, 1)
        chaos = True
    elif mutation == "stale-tail":
        # Needs an async tail (chain position 2); repair would
        # re-replicate and mask the frozen tail, so chaos stays off.
        overrides["test_freeze_tail_replicas"] = True
        replicas = max(replicas, 2)
        chaos = False
    preset, messages = _fault_messages(plan)
    name = "kill-repair-linearizable" if chaos else "linearizable"
    if mutation != "none":
        name = f"mutation-{mutation}"
    return Scenario(
        name=name,
        description=(
            "Concurrent register and append clients ride through a node "
            "kill and its repair; the recorded history must be linearizable."
            if chaos
            else "Concurrent register and append clients on a healthy "
            "cluster; the recorded history must be linearizable."
        ),
        backends=(backend,)
        + tuple(b for b in ("local", "sim", "tcp", "sharded") if b != backend),
        seed=seed,
        tags=("fast", "consistency"),
        topology=TopologySpec(
            nodes=max(nodes, 3 if chaos else 1, replicas + 1),
            replicas=replicas,
            shards=shards or TopologySpec.shards,
            config=overrides,
        ),
        workload=WorkloadSpec(
            ops_per_client=max(1, -(-ops // clients)), tenants=tuple(tenants)
        ),
        faults=FaultsSpec(
            plan=preset,
            events=(
                (FaultEvent("kill", 0.35), FaultEvent("repair", 0.6)) if chaos else ()
            ),
            messages=messages,
        ),
        checks=ChecksSpec(
            # Only the hot tenant's key-derived values feed the ack ledger.
            durability=hot_cache,
            linearizability=True,
            staleness_bound=staleness_bound,
        ),
    )


def run_verify(
    backend: str = "local", *, history_path: str | None = None, **kwargs: Any
) -> Verdict:
    """Run :func:`verify_scenario` (same keyword arguments);
    ``history_path`` streams the recorded history to a JSONL artifact."""
    from .runner import run_scenario

    return run_scenario(
        verify_scenario(backend, **kwargs), history_path=history_path
    )
