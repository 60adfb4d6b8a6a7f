"""Failure recovery: failover latency, throughput dip, re-replication.

The paper's fault-tolerance design (§III.H) promises that a node failure
costs the client a bounded number of timeouts before it fails over to a
replica, and that a manager restores the replication level afterwards.
This benchmark measures that end to end with the chaos scenario
(``run_chaos``; the numbers are verdict metrics): a node is killed
mid-workload, the client rides through timeouts/backoff to the
replica, a manager repairs, and the invariants (no acked write lost,
replication restored) are verified on every row.

Columns per cluster size:

* failover ms — worst successful-op latency between kill and repair
  (the op that burned the timeout chain before failing over);
* dip % — throughput drop during the failure window vs steady state;
* repair ms — wall time of ``repair_after_failure`` (time to
  re-replicate the dead node's partitions);
* invariants — OK iff zero acked writes lost and replication restored.
"""

from _util import fmt, print_table, scales

from repro.faults import run_chaos

SCALES = scales(small=(4, 6), paper=(4, 8, 16))
OPS = 160

#: ZHTConfig overrides on top of the harness-standard config: the
#: production breaker cooldowns, so a node declared dead stays out of
#: rotation for the rest of the run instead of being re-probed.
CONFIG = {"breaker_cooldown_s": 0.5, "breaker_cooldown_max_s": 8.0}


def _run(nodes: int, replicas: int):
    return run_chaos(
        "local",
        nodes=nodes,
        replicas=replicas,
        ops=OPS,
        seed=nodes * 31 + replicas,
        config=CONFIG,
    )


def generate_series():
    rows = []
    for n in SCALES:
        r = _run(n, 1)
        before = r.metrics["ops.throughput_before_per_s"]
        during = r.metrics["ops.throughput_during_per_s"]
        dip = (1 - during / before) * 100 if before else 0.0
        rows.append(
            (
                n,
                fmt(r.metrics["fault.failover_latency_s"] * 1e3, 1),
                f"{dip:.0f}%",
                fmt(r.metrics["fault.repair_time_s"] * 1e3, 1),
                f"{r.ops_acked}/{r.ops_attempted}",
                "OK" if r.ok else "VIOLATED",
            )
        )
    return rows


def test_fault_recovery(benchmark):
    rows = generate_series()
    print_table(
        "Failure recovery: kill one node mid-workload (replication=1)",
        ["nodes", "failover ms", "dip", "repair ms", "acked", "invariants"],
        rows,
        note="failover bound: failures_before_dead=2 timeouts + backoff",
    )
    for row in rows:
        # The invariant column is the benchmark's correctness gate.
        assert row[-1] == "OK", row
        # Failover must complete within the configured timeout budget:
        # 2 detection timeouts with backoff plus scheduling slack.
        assert float(row[1]) < 500.0, row
    benchmark(lambda: _run(4, 1))
