"""End-to-end verification runs: record -> crash -> recover -> check.

Tier-1 covers the local backend and the DES simulator (fast,
deterministic); the real-socket TCP run is in the slow tier.
"""

import pytest

from repro.cli import main
from repro.verify import (
    check_history,
    final_values_from_history,
    load_history,
    run_verify,
)


def history_check(verdict):
    """The checker's full report behind the linearizability check."""
    return verdict.check("linearizability").report


class TestLocalBackend:
    def test_chaos_run_linearizable(self):
        verdict = run_verify("local", ops=160, seed=3, chaos=True)
        assert verdict.ok
        assert history_check(verdict).ok
        assert verdict.metrics["history.events"] >= verdict.ops_acked > 0
        assert verdict.victims  # a node really was killed and repaired
        assert verdict.metrics["fault.repair_time_s"] > 0
        assert "LINEARIZABLE" in "\n".join(verdict.summary_lines())

    def test_replicated_run_with_staleness_probes(self):
        verdict = run_verify(
            "local", ops=140, seed=5, replicas=2, chaos=True,
            staleness_bound=0.25,
        )
        assert verdict.ok
        probes = verdict.metrics["history.tail_probes"]
        assert probes > 0
        assert history_check(verdict).stale_reads_checked == probes

    def test_history_artifact_recheckable_offline(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        verdict = run_verify(
            "local", ops=150, seed=9, chaos=True, history_path=path
        )
        assert verdict.ok
        events = load_history(path)
        assert len(events) == verdict.metrics["history.events"]
        # The saved artifact is self-contained: final values recovered
        # from its own read-back events, retries relax exactly-once.
        offline = check_history(
            events,
            final_values=final_values_from_history(events),
            strict_append_once=False,
        )
        assert offline.ok

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_verify("carrier-pigeon", ops=10)
        with pytest.raises(ValueError):
            run_verify("local", ops=10, mutation="made-up")


class TestSimBackend:
    def test_chaos_run_linearizable(self):
        verdict = run_verify("sim", ops=160, seed=5, chaos=True)
        assert verdict.ok
        assert verdict.metrics["history.events"] > 0
        assert verdict.victims

    def test_same_seed_same_history(self):
        a = run_verify("sim", ops=120, seed=21, chaos=True)
        b = run_verify("sim", ops=120, seed=21, chaos=True)
        assert a.ok and b.ok
        assert (a.metrics["history.events"], a.ops_acked, a.ops_failed) == (
            b.metrics["history.events"], b.ops_acked, b.ops_failed,
        )

    def test_repair_racing_live_writes(self):
        """The seed that pinned repair's export → unlock → push race:
        clients keep writing while the repair runs, and `verify-reg-0018`
        used to end on a value two later acked inserts had replaced.
        Repair now holds the freeze until every receiver has installed
        the snapshot (`ManagerCore.transfer_partition`)."""
        verdict = run_verify("sim", ops=800, clients=8, seed=145)
        assert verdict.ok, verdict.check("linearizability").violations

    @pytest.mark.xfail(
        strict=True,
        reason="known-open: at-least-once retry of a non-idempotent op, "
        "not a transfer bug (ROADMAP item 1) — a REMOVE of "
        "`verify-reg-0035` that exhausted its retries across the kill was "
        "applied both before and after a concurrent INSERT",
    )
    def test_retried_remove_applied_twice(self):
        """The one seed of 100–299 the single transfer path leaves red
        (see `TestSimSweeps`); deterministic on the DES."""
        verdict = run_verify("sim", ops=800, clients=8, seed=179)
        assert verdict.ok, verdict.check("linearizability").violations

    def test_clients_run_on_the_simulated_clock(self, monkeypatch):
        """Breaker cooldowns and op deadlines of DES clients are measured
        in simulated seconds.  With the wall clock frozen, a flapping
        victim must still be re-probed (OPEN -> HALF_OPEN needs the
        cooldown to elapse on *some* clock), and two same-seed runs must
        agree on how often clients failed over — on the wall clock both
        depend on how long the host spends inside the DES."""
        import time

        from repro.core.client import ZHTClientCore
        from repro.faults import FaultPlan

        monkeypatch.setattr(time, "time", lambda: 1_000.0)
        # The core binds its default clock at definition time.
        monkeypatch.setitem(
            ZHTClientCore.__init__.__kwdefaults__, "clock", time.time
        )

        def run():
            verdict = run_verify("sim", ops=240, seed=11, plan=FaultPlan.flapping(11))
            return {
                name: verdict.metrics[f"client.{name}"]
                for name in ("reprobes", "failovers")
            }

        first, second = run(), run()
        assert first["reprobes"] >= 1
        assert first == second


@pytest.mark.slow
class TestSimSweeps:
    """Seed families that had red seeds while repair carried its own
    copy loop (export, unlock, then push); one DES run is ~0.2 s."""

    @staticmethod
    def failing(seeds, **kwargs):
        return [s for s in seeds if not run_verify("sim", seed=s, **kwargs).ok]

    def test_two_replicas_family(self):
        # 15 of these 200 seeds broke the staleness bound or lost a write.
        assert self.failing(range(200), ops=400, clients=4, replicas=2) == []

    def test_eight_clients_family(self):
        # Seed 145 failed too; 179 is pinned on its own above.
        seeds = [s for s in range(100, 300) if s != 179]
        assert self.failing(seeds, ops=800, clients=8) == []


@pytest.mark.slow
class TestSocketBackend:
    def test_tcp_chaos_run_linearizable(self):
        verdict = run_verify("tcp", ops=300, seed=7, chaos=True)
        assert verdict.ok
        assert verdict.metrics["history.events"] > 0


class TestCLI:
    def test_verify_command_local(self, capsys):
        assert main(
            ["verify", "--backend", "local", "--ops", "120", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: LINEARIZABLE" in out

    def test_verify_command_offline_check(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        assert main(
            ["verify", "--backend", "sim", "--ops", "120", "--seed", "4",
             "--history", path]
        ) == 0
        capsys.readouterr()
        assert main(["verify", "--check", path]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "verdict: LINEARIZABLE" in out

    def test_verify_command_reports_mutation_violation(self, capsys):
        code = main(
            ["verify", "--backend", "local", "--ops", "160", "--seed", "3",
             "--mutation", "ack-unreplicated"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: VIOLATION" in out

    def test_verify_command_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["verify", "--backend", "carrier-pigeon"])
