"""Acceptance tests for the chaos harness (ISSUE: fault-injection PR).

A fixed seed on a >=4-node cluster with replication: kill one node
mid-workload, verify zero acked writes are lost, failover happens within
``failures_before_dead`` timeouts, and the manager repair restores the
full replication level — on both the live in-process backend and the
DES.  The same seed must yield the same fault sequence."""

import time

import pytest

from repro.cli import main
from repro.faults import FaultKind, FaultPlan, FaultRule, run_chaos
from repro.sim import MicroBenchmarkWorkload, SimSpec, SimulatedCluster


def lost_writes(verdict):
    return verdict.check("durability").violations


def only_the_victim_marked_dead(verdict):
    """Each of the two writers meets at most the one dead node (the count
    is summed over clients); nobody suspects a healthy one."""
    return 1 <= verdict.metrics["client.nodes_marked_dead"] <= verdict.clients


class TestLocalBackend:
    def test_kill_and_repair_keeps_invariants(self):
        r = run_chaos("local", nodes=4, replicas=1, ops=120, seed=7)
        assert r.ok, r.summary_lines()
        assert {c.name: c.status for c in r.checks} == {
            "durability": "pass",
            "divergence": "pass",
            "replication": "pass",
            "convergence": "pass",
            "linearizability": "skipped",
        }
        # The client detected the death within the configured budget...
        assert only_the_victim_marked_dead(r)
        # failures_before_dead timeouts were burned
        assert r.metrics["client.retries"] >= 2
        # ...and rode over to the replica instead of failing the ops.
        assert r.metrics["client.failovers"] >= 1
        assert r.ops_acked > 0
        assert len(r.victims) == 1
        assert r.metrics["fault.repair_time_s"] > 0
        assert r.metrics["fault.failover_latency_s"] > 0

    def test_no_client_runs_past_a_kill_before_it_is_done(self, monkeypatch):
        # The client enacting the kill loses the CPU (here: sleeps) just
        # before it acts.  The clients crossing the kill's point meanwhile
        # wait for it, so at most one more op per client settles before
        # the node is down, and the failure window keeps its ops.
        from repro.api import LocalCluster
        from repro.scenario import runner
        from repro.scenario.frontends import chaos_scenario

        settled: list[None] = []
        done_at_kill: list[int] = []
        settle, kill_node = runner._Tally.settle, LocalCluster.kill_node
        due = runner._FaultSchedule.due

        def counting_settle(tally, *args):
            settle(tally, *args)
            settled.append(None)

        def slow_due(schedule, done):
            for action, target in due(schedule, done):
                if action == "kill":
                    time.sleep(0.005)
                yield action, target

        def recording_kill_node(cluster, node_id):
            done_at_kill.append(len(settled))
            return kill_node(cluster, node_id)

        monkeypatch.setattr(runner._Tally, "settle", counting_settle)
        monkeypatch.setattr(runner._FaultSchedule, "due", slow_due)
        monkeypatch.setattr(LocalCluster, "kill_node", recording_kill_node)
        scenario = chaos_scenario("local", nodes=4, replicas=1, ops=120, seed=7)
        kill = scenario.faults.events[0]
        point = kill.at * scenario.workload.total_ops
        r = runner.run_scenario(scenario)
        (done,) = done_at_kill
        assert point <= done <= point + r.clients, (point, done)
        assert r.ok, r.summary_lines()
        assert only_the_victim_marked_dead(r)
        assert r.metrics["client.failovers"] >= 1

    def test_five_nodes_two_replicas(self):
        r = run_chaos("local", nodes=5, replicas=2, ops=120, seed=21)
        assert r.ok
        assert only_the_victim_marked_dead(r)

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ValueError, match=">= 3 nodes"):
            run_chaos("local", nodes=2)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_chaos("carrier-pigeon")


class TestSocketBackend:
    def test_tcp_kill_and_repair_keeps_invariants(self):
        r = run_chaos("tcp", nodes=4, replicas=1, ops=80, seed=13)
        assert r.ok, r.summary_lines()
        assert only_the_victim_marked_dead(r)
        assert r.metrics["client.failovers"] >= 1
        assert r.ops_acked > 0


class TestSimBackend:
    def test_kill_and_repair_keeps_invariants(self):
        r = run_chaos("sim", nodes=4, replicas=1, ops=120, seed=7)
        assert r.ok, r.summary_lines()
        assert only_the_victim_marked_dead(r)
        assert r.metrics["client.failovers"] >= 1

    def test_six_nodes_two_replicas(self):
        r = run_chaos("sim", nodes=6, replicas=2, ops=100, seed=3)
        assert r.ok
        assert only_the_victim_marked_dead(r)

    def test_same_seed_same_run(self):
        a = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=5)
        b = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=5)
        assert a.fault_digest == b.fault_digest
        assert a.ops_acked == b.ops_acked
        assert a.metrics["fault.failover_latency_s"] > 0
        for metric in ("fault.failover_latency_s", "ops.throughput_before_per_s"):
            assert a.metrics[metric] == b.metrics[metric]


class TestDeterministicMessageChaos:
    """Message-level faults (drops/delays) on top of the kill.

    Dropped acks make mutations at-least-once (a retried APPEND can apply
    twice), so these runs assert only the durability half of the
    invariant — no *acked* write may be lost."""

    def _plan(self, seed):
        return FaultPlan.message_chaos(
            seed, drop=0.05, delay=0.05, delay_seconds=0.001
        )

    def test_same_seed_same_fault_sequence(self):
        a = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=5, plan=self._plan(5))
        b = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=5, plan=self._plan(5))
        assert a.injected_faults > 1  # message faults beyond the kill
        assert a.fault_digest == b.fault_digest
        assert a.ops_acked == b.ops_acked
        assert lost_writes(a) == [] and lost_writes(b) == []

    def test_different_seed_different_fault_sequence(self):
        a = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=5, plan=self._plan(5))
        b = run_chaos("sim", nodes=4, replicas=1, ops=100, seed=6, plan=self._plan(6))
        assert a.fault_digest != b.fault_digest
        assert lost_writes(a) == [] and lost_writes(b) == []

    def test_local_backend_survives_message_chaos(self):
        r = run_chaos(
            "local", nodes=4, replicas=1, ops=100, seed=9, plan=self._plan(9)
        )
        assert lost_writes(r) == []


class TestScheduledCrashInSweep:
    def test_des_sweep_completes_under_churn(self):
        """A plain simulated benchmark sweep (the scale-model path) keeps
        running when a scheduled CRASH rule kills a node mid-run."""
        plan = FaultPlan(
            0, [FaultRule(FaultKind.CRASH, target="n2", at_time=0.004)]
        )
        spec = SimSpec(num_nodes=8, real_core=True, seed=1, faults=plan)
        cluster = SimulatedCluster(spec)
        result = cluster.run_workload(MicroBenchmarkWorkload(ops_per_client=4))
        assert cluster.dead_instances  # the crash actually fired
        assert plan.trace_keys() == [("crash", "n2", None, 0, -1)]
        # Ops on the dead node's partitions time out, the rest complete.
        assert 0 < result.ops < spec.num_instances * 12


class TestCLI:
    def test_chaos_command_exits_zero(self, capsys):
        code = main(
            ["chaos", "--nodes", "4", "--replicas", "1", "--ops", "60",
             "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check durability: PASS" in out
        assert "check replication: PASS" in out
        assert "verdict: PASS" in out
        assert "failover latency" in out

    def test_chaos_command_sim_backend(self, capsys):
        code = main(
            ["chaos", "--backend", "sim", "--nodes", "4", "--ops", "60",
             "--seed", "2"]
        )
        assert code == 0
        assert "backend=sim" in capsys.readouterr().out

    def test_durability_only_gate_under_message_faults(self, capsys):
        # Message drops make convergence best-effort; with the flag the
        # exit code reflects only the acked-durability invariant.
        code = main(
            ["chaos", "--backend", "sim", "--nodes", "4", "--ops", "60",
             "--seed", "5", "--drop", "0.05", "--delay", "0.05",
             "--durability-only"]
        )
        assert code == 0
        capsys.readouterr()
