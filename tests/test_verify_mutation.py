"""Mutation self-test: the checker must catch deliberately broken
replication.

Two seeded bugs (ZHTConfig test-only flags, wired through
``run_verify(mutation=...)``):

* ``ack-unreplicated`` — the primary acks writes without synchronously
  updating the strong secondary; once the primary dies and the
  secondary serves reads, acknowledged writes vanish.
* ``stale-tail`` — replicas at chain position >= 2 ack replica updates
  without applying them, so async-replica reads fall behind every
  staleness bound.

A verifier that cannot flag these proves nothing; these tests are the
subsystem's own acceptance gate.
"""

import pytest

from repro.verify import run_verify


def history_check(verdict):
    """The checker's full report behind the linearizability check."""
    return verdict.check("linearizability").report


class TestAckUnreplicated:
    @pytest.mark.parametrize("backend", ["local", "sim"])
    def test_flagged_with_a_minimal_witness(self, backend):
        verdict = run_verify(
            backend, ops=200, seed=3, mutation="ack-unreplicated"
        )
        assert not verdict.ok
        result = verdict.check("linearizability")
        assert result.status == "fail"
        check = result.report
        assert check.violations
        first = check.first_violation()
        # The minimal witness is small and actually explains the bug:
        # an acknowledged write plus a read that missed it.
        assert first.minimal
        assert len(first.minimal) <= 12
        # ...and it survives into the machine-readable verdict.
        assert len(result.to_dict()["witness"]) == len(first.minimal)
        assert "verdict: VIOLATION" in "\n".join(verdict.summary_lines())

    def test_correct_config_passes_identical_run(self):
        # The control: same workload, same faults, bug flag off.
        assert run_verify("local", ops=200, seed=3, mutation="none").ok

    def test_correct_config_passes_identical_run_on_sim(self):
        assert run_verify("sim", ops=200, seed=3, mutation="none").ok


class TestStaleTail:
    def test_flagged_on_local_backend(self):
        verdict = run_verify(
            "local", ops=160, seed=5, replicas=2, mutation="stale-tail",
            staleness_bound=0.25,
        )
        assert not verdict.ok
        violations = [
            v
            for key_report in history_check(verdict).violations
            for v in key_report.violations
        ]
        assert any("staleness bound" in v for v in violations)

    def test_correct_replicated_config_passes_identical_probes(self):
        verdict = run_verify(
            "local", ops=160, seed=5, replicas=2, mutation="none",
            chaos=False, staleness_bound=0.25,
        )
        assert verdict.ok
        assert verdict.metrics["history.tail_probes"] > 0


@pytest.mark.slow
class TestMutationOverSockets:
    def test_ack_unreplicated_flagged_on_tcp(self):
        verdict = run_verify(
            "tcp", ops=240, seed=3, mutation="ack-unreplicated"
        )
        assert not verdict.ok
        assert history_check(verdict).violations
