"""The scenario schema contract: canonical round-trips and actionable
rejection of malformed configs.

Two properties carry the tentpole's weight:

1. **Round-trip identity** — every library file is byte-identical to
   ``Scenario.from_json(file).to_json()``, so the serializer is the
   single source of formatting truth and diffs stay reviewable.
2. **Validation-first** — malformed configs raise
   :class:`~repro.scenario.schema.ScenarioError` with a path-qualified,
   suggestion-bearing message, never a traceback from deep inside the
   runner.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.protocol import OpCode
from repro.faults.plan import FaultKind
from repro.scenario.library import library_names, load_scenario
from repro.scenario.schema import (
    BACKENDS,
    FAULT_ACTIONS,
    GATE_OPS,
    LATENCY_STATS,
    MESSAGE_TARGETS,
    NAMED_PLANS,
    REPORT_METRICS,
    SHAPES,
    ChecksSpec,
    FaultEvent,
    FaultsSpec,
    GateSpec,
    MessageFault,
    Scenario,
    ScenarioError,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
)

LIBRARY_DIR = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "repro"
    / "scenario"
    / "library"
)


def minimal(**overrides) -> dict:
    data = {"name": "t", "description": "test scenario"}
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


def test_library_has_at_least_ten_scenarios():
    assert len(library_names()) >= 10


@pytest.mark.parametrize("name", library_names())
def test_library_roundtrip_identity(name):
    """disk == from_json(disk).to_json() == from_dict(to_dict()).to_json()."""
    text = (LIBRARY_DIR / f"{name}.json").read_text()
    scenario = Scenario.from_json(text)
    assert scenario.name == name
    assert scenario.to_json() == text
    again = Scenario.from_dict(json.loads(scenario.to_json()))
    assert again.to_json() == text
    assert again == scenario


@pytest.mark.parametrize("name", library_names())
def test_library_scenarios_validate(name):
    scenario = load_scenario(name)
    scenario.validate()  # idempotent on an already-validated object
    assert scenario.backends
    assert scenario.workload.total_ops > 0


def test_fast_smoke_subset_exists():
    """PR-time CI runs the fast-tagged trio; keep it populated."""
    fast = [n for n in library_names() if "fast" in load_scenario(n).tags]
    assert len(fast) >= 3, fast


def test_defaults_fill_in():
    scenario = Scenario.from_dict(minimal())
    assert scenario.backends == ("local",)
    assert scenario.topology.nodes == 4
    assert scenario.workload.total_clients == 2
    assert scenario.checks.durability
    assert scenario.faults.events == ()


def test_load_scenario_by_path(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(Scenario.from_dict(minimal(name="custom")).to_json())
    assert load_scenario(str(path)).name == "custom"


def test_load_scenario_unknown_name_suggests():
    with pytest.raises(ScenarioError, match="steady-state"):
        load_scenario("steady-stat")


# ---------------------------------------------------------------------------
# Rejections: every error is a ScenarioError with a useful path + message
# ---------------------------------------------------------------------------


def test_unknown_backend_rejected_with_suggestion():
    with pytest.raises(ScenarioError, match=r"backends.*'tpc'.*did you mean 'tcp'"):
        Scenario.from_dict(minimal(backends=["tpc"]))


def test_unknown_top_level_field_rejected_with_suggestion():
    with pytest.raises(ScenarioError, match="did you mean 'gates'"):
        Scenario.from_dict(minimal(gatez=[]))


def test_negative_duration_rejected():
    with pytest.raises(ScenarioError, match=r"delay_s.*>= 0"):
        Scenario.from_dict(
            minimal(
                faults={
                    "messages": [{"kind": "delay", "delay_s": -0.5}],
                }
            )
        )


def test_delay_without_duration_rejected():
    with pytest.raises(ScenarioError, match="delay_s"):
        Scenario.from_dict(
            minimal(faults={"messages": [{"kind": "delay"}]})
        )


def test_gate_on_unknown_metric_rejected():
    with pytest.raises(ScenarioError, match=r"gates\[0\].*ops\.acked_ratio"):
        Scenario.from_dict(
            minimal(gates=[{"metric": "ops.akced_ratio", "op": ">", "value": 0}])
        )


def test_gate_bad_operator_rejected():
    with pytest.raises(ScenarioError, match="op"):
        Scenario.from_dict(
            minimal(gates=[{"metric": "ops.acked", "op": "~", "value": 0}])
        )


def test_bad_probability_rejected():
    with pytest.raises(ScenarioError, match=r"probability"):
        Scenario.from_dict(
            minimal(faults={"messages": [{"kind": "drop", "probability": 1.5}]})
        )


def test_repair_before_kill_rejected():
    with pytest.raises(ScenarioError, match="repair"):
        Scenario.from_dict(
            minimal(faults={"events": [{"action": "repair", "at": 0.5}]})
        )


def test_unordered_events_rejected():
    with pytest.raises(ScenarioError, match="ordered"):
        Scenario.from_dict(
            minimal(
                topology={"nodes": 5},
                faults={
                    "events": [
                        {"action": "kill", "at": 0.6},
                        {"action": "kill", "at": 0.2},
                    ]
                },
            )
        )


def test_kill_needs_enough_nodes():
    with pytest.raises(ScenarioError, match="3 nodes"):
        Scenario.from_dict(
            minimal(
                topology={"nodes": 2, "replicas": 1},
                faults={"events": [{"action": "kill", "at": 0.5}]},
            )
        )


def test_too_many_kills_rejected():
    with pytest.raises(ScenarioError, match="survivors"):
        Scenario.from_dict(
            minimal(
                topology={"nodes": 4, "replicas": 1},
                faults={
                    "events": [
                        {"action": "kill", "at": 0.2},
                        {"action": "kill", "at": 0.4},
                        {"action": "kill", "at": 0.6},
                    ]
                },
            )
        )


def test_kill_with_durability_needs_replicas():
    with pytest.raises(ScenarioError, match="replicas"):
        Scenario.from_dict(
            minimal(
                topology={"nodes": 4, "replicas": 0},
                faults={"events": [{"action": "kill", "at": 0.5}]},
            )
        )


def test_kill_shard_requires_sharded_backend():
    with pytest.raises(ScenarioError, match="sharded"):
        Scenario.from_dict(
            minimal(
                backends=["local"],
                faults={"events": [{"action": "kill_shard", "at": 0.5}]},
            )
        )


def test_lossy_plan_with_convergence_rejected():
    with pytest.raises(ScenarioError, match="at-least-once"):
        Scenario.from_dict(
            minimal(
                faults={"messages": [{"kind": "drop", "probability": 0.1}]},
                checks={"durability": True, "convergence": True},
            )
        )


def test_unknown_config_override_rejected_with_suggestion():
    with pytest.raises(ScenarioError, match="persistence_dir"):
        Scenario.from_dict(
            minimal(topology={"config": {"persistence": "wal"}})
        )


def test_topology_owned_config_key_rejected():
    with pytest.raises(ScenarioError, match="topology.partitions"):
        Scenario.from_dict(
            minimal(topology={"config": {"num_partitions": 32}})
        )


def test_unknown_tenant_shape_rejected():
    with pytest.raises(ScenarioError, match=r"shape.*zipf"):
        Scenario.from_dict(
            minimal(
                workload={"tenants": [{"name": "a", "shape": "zipff"}]}
            )
        )


REGISTERS = {"tenants": [{"name": "reg", "shape": "registers"}]}


def test_registers_with_linearizability_round_trips():
    scenario = Scenario.from_dict(
        minimal(
            workload=REGISTERS,
            checks={"linearizability": True, "staleness_bound": 0.5},
        )
    )
    assert scenario.checks.linearizability
    assert scenario.checks.staleness_bound == 0.5
    assert scenario.workload.tenants[0].shape == "registers"
    again = Scenario.from_dict(json.loads(scenario.to_json()))
    assert again == scenario
    assert again.to_json() == scenario.to_json()


def test_registers_without_linearizability_rejected():
    with pytest.raises(ScenarioError, match="linearizability") as excinfo:
        Scenario.from_dict(minimal(workload=REGISTERS))
    assert excinfo.value.path == "scenario.workload.tenants[0].shape"


@pytest.mark.parametrize("bound", [0, -0.25])
def test_non_positive_staleness_bound_rejected(bound):
    with pytest.raises(ScenarioError, match="staleness_bound") as excinfo:
        Scenario.from_dict(
            minimal(checks={"linearizability": True, "staleness_bound": bound})
        )
    assert excinfo.value.path == "scenario.checks.staleness_bound"


def test_staleness_bound_must_be_a_number():
    with pytest.raises(ScenarioError, match="expected a number"):
        Scenario.from_dict(minimal(checks={"staleness_bound": True}))


def test_misspelt_check_rejected_with_suggestion():
    with pytest.raises(ScenarioError, match=r"did you mean 'linearizability'"):
        Scenario.from_dict(minimal(checks={"linearisability": True}))


def test_replicas_must_fit_nodes():
    with pytest.raises(ScenarioError, match="replica"):
        Scenario.from_dict(minimal(topology={"nodes": 2, "replicas": 2}))


def test_invalid_json_rejected():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        Scenario.from_json("{nope")


def test_scenario_error_is_value_error():
    """Callers that catch ValueError keep working."""
    with pytest.raises(ValueError):
        Scenario.from_dict(minimal(backends=["tpc"]))


def test_run_scenario_rejects_undeclared_backend():
    from repro.scenario.runner import run_scenario

    scenario = Scenario.from_dict(minimal(backends=["local"]))
    with pytest.raises(ScenarioError, match="does not support"):
        run_scenario(scenario, backend="tcp")


# ---------------------------------------------------------------------------
# The codec: one from_dict / to_dict pair driven by the field declarations
# ---------------------------------------------------------------------------


def test_only_scenario_defines_the_codec_and_as_thin_wrappers():
    import dataclasses
    import inspect

    from repro.scenario import schema

    specs = [
        obj
        for obj in vars(schema).values()
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
    ]
    assert len(specs) == 9
    for spec in specs:
        if spec is not Scenario:
            assert "from_dict" not in vars(spec), spec.__name__
            assert "to_dict" not in vars(spec), spec.__name__
    for method in (Scenario.from_dict, Scenario.to_dict):
        body = inspect.getsource(method).strip().splitlines()
        assert len(body) <= 5, body


def test_misspelt_message_target_rejected_by_validate():
    scenario = Scenario(
        name="t",
        description="test scenario",
        faults=FaultsSpec(messages=(MessageFault(kind="drop", target="vicitm"),)),
    )
    with pytest.raises(ScenarioError, match="did you mean 'victim'") as excinfo:
        scenario.validate()
    assert excinfo.value.path == "scenario.faults.messages[0].target"


def test_validate_checks_declared_types():
    scenario = Scenario(name="t", description="", topology=TopologySpec(nodes="4"))
    with pytest.raises(ScenarioError, match="expected an integer") as excinfo:
        scenario.validate()
    assert excinfo.value.path == "scenario.topology.nodes"


def test_required_field_error_names_the_field():
    with pytest.raises(ScenarioError, match="required") as excinfo:
        Scenario.from_dict(minimal(faults={"events": [{"action": "kill"}]}))
    assert excinfo.value.path == "scenario.faults.events[0].at"


def test_empty_backends_rejected():
    with pytest.raises(ScenarioError, match="backend") as excinfo:
        Scenario.from_dict(minimal(backends=[]))
    assert excinfo.value.path == "scenario.backends"


# ---------------------------------------------------------------------------
# Property: every scenario that validates survives to_json -> from_json
# ---------------------------------------------------------------------------

_IDENT = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
_FRACTION = st.floats(0.0, 1.0, allow_nan=False)
_CONFIG_OVERRIDES = st.dictionaries(
    st.sampled_from(["request_timeout", "max_retries", "wal_fsync", "persistence_dir"]),
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), _FRACTION, st.text(max_size=4)),
    max_size=3,
)


@st.composite
def _tenant(draw, name):
    return TenantSpec(
        name=name,
        shape=draw(st.sampled_from(SHAPES)),
        clients=draw(st.integers(1, 8)),
        write_ratio=draw(_FRACTION),
        zipf_alpha=draw(st.floats(0.01, 3.0)),
        universe=draw(st.integers(1, 1000)),
        hot_keys=draw(st.integers(1, 16)),
        value_bytes=draw(st.integers(1, 65536)),
    )


@st.composite
def _events(draw, nodes, sharded):
    actions = list(FAULT_ACTIONS) if sharded else ["kill", "repair"]
    ats = sorted(draw(st.lists(_FRACTION, max_size=4)))
    events, kills, pending = [], 0, 0
    for at in ats:
        action = draw(st.sampled_from(actions))
        if action == "kill" and kills >= nodes - 2:
            continue
        if action == "repair" and pending == 0:
            continue
        kills += action == "kill"
        pending += {"kill": 1, "repair": -1}.get(action, 0)
        events.append(FaultEvent(action, at, draw(st.integers(-1, 5))))
    return tuple(events)


@st.composite
def _message(draw):
    kind = draw(st.sampled_from(FaultKind.MESSAGE_KINDS))
    slow = kind in ("delay", "stall")
    return MessageFault(
        kind=kind,
        probability=draw(_FRACTION),
        target=draw(st.sampled_from(MESSAGE_TARGETS)),
        op=draw(st.none() | st.sampled_from([o.name for o in OpCode])),
        after=draw(st.integers(0, 100)),
        count=draw(st.none() | st.integers(1, 10)),
        delay_s=draw(st.floats(0.001, 2.0) if slow else st.floats(0.0, 2.0)),
    )


_METRICS = st.one_of(
    st.sampled_from(REPORT_METRICS),
    _IDENT.map(lambda name: f"counter:{name}"),
    st.tuples(_IDENT, st.sampled_from(LATENCY_STATS)).map(
        lambda hs: f"latency:{hs[0]}:{hs[1]}"
    ),
)
_GATES = st.builds(
    GateSpec,
    metric=_METRICS,
    op=st.sampled_from(GATE_OPS),
    value=st.floats(-1e6, 1e6),
)


@st.composite
def _scenarios(draw):
    sharded = draw(st.booleans())
    backends = ("sharded",) if sharded else tuple(
        draw(st.lists(st.sampled_from(BACKENDS[:4]), min_size=1, max_size=3, unique=True))
    )
    nodes = draw(st.integers(4, 8))
    names = draw(st.lists(_IDENT, min_size=1, max_size=3, unique=True))
    messages = tuple(draw(st.lists(_message(), max_size=3)))
    plan = draw(st.none() | st.sampled_from(NAMED_PLANS))
    faults = FaultsSpec(plan=plan, events=draw(_events(nodes, sharded)), messages=messages)
    quiet = not faults.lossy
    return Scenario(
        name=draw(_IDENT),
        description=draw(st.text(max_size=20)),
        backends=backends,
        seed=draw(st.integers(0, 2**63)),
        tags=tuple(draw(st.lists(st.text(max_size=6), max_size=3))),
        topology=TopologySpec(
            nodes=nodes,
            replicas=draw(st.integers(1, nodes - 1)),
            shards=draw(st.integers(2, 4)),
            partitions=draw(st.integers(1, 128)),
            config=draw(_CONFIG_OVERRIDES),
        ),
        workload=WorkloadSpec(
            ops_per_client=draw(st.integers(1, 500)),
            tenants=tuple(draw(_tenant(name)) for name in names),
        ),
        faults=faults,
        checks=ChecksSpec(
            durability=draw(st.booleans()),
            divergence=quiet and draw(st.booleans()),
            replication=draw(st.booleans()),
            convergence=quiet and draw(st.booleans()),
            linearizability=draw(st.booleans()),
            staleness_bound=draw(st.floats(0.001, 10.0)),
        ),
        gates=tuple(draw(st.lists(_GATES, max_size=3))),
    )


@settings(max_examples=150, deadline=None)
@given(scenario=_scenarios())
@example(
    scenario=Scenario(
        name="misspelt-target",
        description="a rule aimed at a victim, misspelt",
        faults=FaultsSpec(messages=(MessageFault(kind="drop", target="vicitm"),)),
    )
)
@example(scenario=Scenario(name="t", description="", checks=ChecksSpec(staleness_bound=True)))
def test_property_every_valid_scenario_round_trips(scenario):
    """A draw that ``validate()`` rejects is skipped; the two examples
    are such draws, which an earlier ``validate()`` let through to a
    ``to_json()`` that ``from_json`` rejected."""
    try:
        scenario.validate()
    except ScenarioError:
        return
    assert Scenario.from_json(scenario.to_json()) == scenario
