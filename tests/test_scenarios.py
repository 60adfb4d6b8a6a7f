"""The named-scenario regression suite.

Parametrizes over every scenario in the library: the fast-tagged trio
runs in tier-1 on every PR; the rest carry ``@pytest.mark.slow`` and run
in the nightly tier (and CI's ``scenarios`` job runs the full library on
local + tcp with verdict artifacts).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.net.shard import fork_supported
from repro.faults import FaultPlan
from repro.scenario import Scenario, run_scenario
from repro.scenario.frontends import chaos_scenario, verify_scenario
from repro.scenario.library import library_names, load_scenario


def _library_params() -> list:
    params = []
    for name in library_names():
        scenario = load_scenario(name)
        marks = []
        if "fast" not in scenario.tags:
            marks.append(pytest.mark.slow)
        if scenario.default_backend == "sharded":
            marks.append(
                pytest.mark.skipif(
                    not fork_supported(),
                    reason="sharded backend needs the fork start method",
                )
            )
        params.append(pytest.param(name, marks=tuple(marks)))
    return params


@pytest.mark.parametrize("name", _library_params())
def test_library_scenario_passes(name):
    """Every library scenario holds its own checks and gates on its
    default backend, and its verdict serializes to JSON."""
    scenario = load_scenario(name)
    verdict = run_scenario(scenario)
    assert verdict.ok, "\n".join(verdict.summary_lines())
    assert verdict.ops_attempted == scenario.workload.total_ops
    document = json.loads(json.dumps(verdict.to_dict()))
    assert document["scenario"] == name
    assert document["ok"] is True
    assert {c["name"] for c in document["checks"]} == {
        "durability",
        "divergence",
        "replication",
        "convergence",
        "linearizability",
    }


@pytest.mark.slow
@pytest.mark.parametrize(
    "name",
    [n for n in library_names() if "tcp" in load_scenario(n).backends],
)
def test_library_scenario_passes_on_tcp(name):
    verdict = run_scenario(load_scenario(name), backend="tcp")
    assert verdict.ok, "\n".join(verdict.summary_lines())


@pytest.mark.parametrize(
    "name",
    [n for n in library_names() if "sim" in load_scenario(n).backends],
)
def test_library_scenario_passes_on_sim(name):
    verdict = run_scenario(load_scenario(name), backend="sim")
    assert verdict.ok, "\n".join(verdict.summary_lines())


def test_runner_folds_runtime_failure_into_verdict():
    """A gate that cannot hold produces a failing verdict, not an
    exception — CI can always upload the JSON."""
    scenario = Scenario.from_dict(
        {
            "name": "impossible",
            "description": "acked ratio above 1 is unsatisfiable",
            "workload": {"ops_per_client": 5},
            "gates": [
                {"metric": "ops.acked_ratio", "op": ">", "value": 1.0},
            ],
        }
    )
    verdict = run_scenario(scenario)
    assert not verdict.ok
    assert verdict.error is None
    assert [g.ok for g in verdict.gates] == [False]


def test_ops_override_scales_workload():
    scenario = load_scenario("steady-state")
    verdict = run_scenario(scenario, ops_per_client=5)
    assert verdict.ops_attempted == 5 * scenario.workload.total_clients
    assert verdict.ok, "\n".join(verdict.summary_lines())


# ---------------------------------------------------------------------------
# `repro chaos` / `repro verify` as synthesised scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        chaos_scenario(),
        chaos_scenario(
            "sim",
            nodes=6,
            detector="count",
            plan=FaultPlan.message_chaos(
                5, drop=0.05, delay=0.05, delay_seconds=0.001
            ),
        ),
        chaos_scenario("local", plan="overload", config={"max_retries": 4}),
        verify_scenario(),
        verify_scenario("udp", hot_cache=True, plan=FaultPlan.flapping(3)),
        verify_scenario("sharded", shards=4, clients=3, mutation="stale-tail"),
        verify_scenario("sim", chaos=False, mutation="ack-unreplicated"),
    ],
    ids=lambda s: f"{s.name}-{s.default_backend}",
)
def test_synthesised_documents_round_trip(scenario):
    """What the two front-ends hand the runner is an ordinary scenario
    document: valid, and unchanged by a trip through its own JSON."""
    scenario.validate()
    again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert again == scenario
    assert again.to_dict() == scenario.to_dict()


def test_default_verify_document_is_the_library_scenario():
    library = load_scenario("kill-repair-linearizable")
    assert verify_scenario().to_dict() == library.to_dict()


def test_fault_plan_objects_become_message_rules():
    flapping = verify_scenario(plan=FaultPlan.flapping(3)).faults
    assert [(m.kind, m.target, m.after, m.count) for m in flapping.messages] == [
        ("drop", "victim", k * 40, 8) for k in range(6)
    ]
    assert verify_scenario(plan="flapping").faults.plan == "flapping"
    # Message chaos makes mutations at-least-once: the schema lets
    # durability and replication be judged, which `chaos` keeps on (it
    # is `--durability-only` that narrows the exit code).  The stall-only
    # overload preset keeps all four.
    def store_checks(scenario):
        c = scenario.checks
        return c.durability, c.divergence, c.replication, c.convergence

    lossy = chaos_scenario(plan=FaultPlan.message_chaos(1, drop=0.1))
    assert store_checks(lossy) == (True, False, True, False)
    assert store_checks(chaos_scenario(plan="flapping")) == (True, False, True, False)
    assert store_checks(chaos_scenario(plan="overload")) == (True,) * 4
    with pytest.raises(ValueError, match="cannot express"):
        chaos_scenario(plan=FaultPlan.message_chaos(1, drop=0.1, target="n1:1"))


def test_front_end_ops_budget():
    """`ops` is the whole run's budget, rounded up to a whole number per
    client; chaos splits it between its INSERT and its APPEND writer."""
    chaos = chaos_scenario(ops=121)
    assert [(t.shape, t.clients) for t in chaos.workload.tenants] == [
        ("uniform", 1), ("append", 1),
    ]
    assert chaos.workload.total_ops == 122
    assert verify_scenario(ops=10, clients=4).workload.total_ops == 12
    assert verify_scenario(ops=300, clients=3).workload.total_ops == 300
    with pytest.raises(ValueError, match=">= 1 client"):
        verify_scenario(clients=0)


def test_fault_window_metrics_are_gateable():
    """Failover latency, repair time and the before/during/after
    throughput cut are ordinary verdict metrics."""
    scenario = Scenario.from_dict(
        {
            **chaos_scenario("sim", ops=100, seed=5).to_dict(),
            "gates": [
                {"metric": "fault.failover_latency_s", "op": "<", "value": 0.5},
                {"metric": "fault.repair_time_s", "op": ">", "value": 0},
                {"metric": "ops.throughput_during_per_s", "op": ">", "value": 0},
            ],
        }
    )
    verdict = run_scenario(scenario)
    assert verdict.ok, "\n".join(verdict.summary_lines())
    assert [g.ok for g in verdict.gates] == [True, True, True]
    assert verdict.to_dict()["faults"]["victims"] == verdict.victims == ["n1"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in library_names():
        assert name in out


def test_cli_scenario_validate_all(capsys):
    assert main(["scenario", "validate", "--all"]) == 0
    assert "steady-state: OK" in capsys.readouterr().out


def test_cli_scenario_run_writes_verdict_json(tmp_path, capsys):
    json_path = tmp_path / "verdict.json"
    json_dir = tmp_path / "verdicts"
    code = main(
        [
            "scenario",
            "run",
            "steady-state",
            "--backend",
            "local",
            "--ops",
            "10",
            "--json",
            str(json_path),
            "--json-dir",
            str(json_dir),
        ]
    )
    assert code == 0
    document = json.loads(json_path.read_text())
    assert document["scenario"] == "steady-state"
    assert document["ok"] is True
    per_run = json.loads((json_dir / "steady-state-local.json").read_text())
    assert per_run == document
    assert "verdict: PASS" in capsys.readouterr().out


def test_cli_scenario_run_failing_gate_exits_1(tmp_path, capsys):
    path = tmp_path / "impossible.json"
    path.write_text(
        Scenario.from_dict(
            {
                "name": "impossible",
                "description": "unsatisfiable gate",
                "workload": {"ops_per_client": 5},
                "gates": [
                    {"metric": "ops.acked_ratio", "op": ">", "value": 1.0},
                ],
            }
        ).to_json()
    )
    assert main(["scenario", "run", str(path)]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_cli_scenario_unknown_name_exits_2(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scenario_run_without_names_exits_2(capsys):
    assert main(["scenario", "run"]) == 2
    assert "scenario list" in capsys.readouterr().err


def test_cli_scenario_run_all_with_backend_runs_the_declaring_ones(tmp_path, capsys):
    declaring = [n for n in library_names() if "sim" in load_scenario(n).backends]
    json_dir = tmp_path / "verdicts"
    argv = ["scenario", "run", "--all", "--backend", "sim", "--json-dir", str(json_dir)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(declaring) == 7
    assert f"skipped {len(library_names()) - 7} scenario(s) not declaring 'sim'" in out
    assert "7/7 scenario(s) passed" in out
    assert sorted(p.name for p in json_dir.iterdir()) == sorted(
        f"{name}-sim.json" for name in declaring
    )
