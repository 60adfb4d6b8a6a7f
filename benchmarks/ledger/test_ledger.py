"""Self-checks of the ledger benchmark (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Every test that runs the benchmark does so through its command line, in
a subprocess, the way the acceptance driver does.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    MANIFEST = json.load(_f)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    script = os.path.join("benchmarks", "ledger", "run.py")
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the manifest -----------------------------------------------------------------


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16 and 1 <= len(MANIFEST["per_layer"]) <= 128
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s with set-up.
    assert (4 + 22 * len(WORKLOADS)) * (MANIFEST["run_seconds"] + 12) < 3420


# -- every workload, both modes, through the command line ----------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload: str, trace: int):
    t0 = time.monotonic()
    done = run("--workload", workload, "--seed", "7", "--smoke", "--trace", str(trace))
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
    assert not os.path.exists(os.path.join(HERE, ".work")), "work directory left behind"


def test_same_seed_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    streams = []
    for _ in range(2):
        wl = workloads.WORKLOADS["tcp-point"](11, 0.5, True, "unused", None)
        wl.generate()
        streams.append((wl.initial, wl.streams))
    assert streams[0] == streams[1]
    other = workloads.WORKLOADS["tcp-point"](12, 0.5, True, "unused", None)
    other.generate()
    assert other.streams != streams[0][1]


# -- correctness that can fail -----------------------------------------------------------


def test_one_corrupted_reply_fails_the_run():
    done = run("--workload", "tcp-point", "--seed", "7", "--smoke", "--selftest-corrupt", "5")
    assert done.returncode == 1, done.stdout + done.stderr
    result = result_of(done)
    assert result["correct"] is False and result["failed"] >= 1
    assert "reply differs from the model" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    done = run("--workload", "tcp-point", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert done.returncode not in (0, 1)
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# -- the arithmetic ------------------------------------------------------------------------


def test_cuts_and_good_cut_ignore_a_disturbed_stretch():
    # 12 cuts of 0.25 s, 100 calls each at 400 us ... except four cuts in
    # the middle where a neighbour doubles every call's time.
    seg = harness.Segment()
    seg.marks.append((0.0, 0.0))
    now = 0.0
    for cut in range(12):
        slow = 4 <= cut < 8
        calls = 50 if slow else 100
        for i in range(calls):
            now += 0.25 / calls
            seg.lat.append(0.005 if slow else 0.0025)
            seg.kind.append(harness.READ if i % 2 else harness.WRITE)
            seg.ends.append(now)
            seg.counts.append(1)
        seg.marks.append((now, now * 0.5))
    cuts = harness.cuts_of(seg)
    assert len(cuts) == 12 and cuts[0].ops == 100 and cuts[5].ops == 50
    rates = [cut.ops / cut.wall_s for cut in cuts]
    assert harness.good_cut(rates, "higher") == pytest.approx(400.0)
    assert harness.good_cut([harness.percentile(cut.lat, 50) for cut in cuts]) == pytest.approx(0.0025)
    assert statistics.median(rates) == pytest.approx(400.0)  # 8 of 12 clean: a median holds too...
    assert harness.good_cut([400.0] * 4 + [200.0] * 8, "higher") == 400.0  # ...but not at 4 of 12
    assert seg.ops / now == pytest.approx(1000 / 3.0)  # what ops / wall would say
    assert cuts[0].cpu_s == pytest.approx(0.125)


def test_percentile_is_nearest_rank():
    ordered = [float(i) for i in range(1, 101)]
    assert harness.percentile(ordered, 50) == 50.0
    assert harness.percentile(ordered, 99) == 99.0
    assert harness.percentile([], 99) == 0.0


def test_self_time_subtracts_direct_children_only():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import Summary

    spans = [
        (1, 0, 1, "api.op", 0.0, 10.0),
        (2, 1, 1, "net.tcp.roundtrip", 1.0, 9.0),
        (3, 2, 1, "core.server.handle", 2.0, 5.0),
        (4, 3, 1, "novoht.put", 3.0, 4.0),
    ]
    summary = Summary(spans)
    assert summary.self_time["api.op"] == pytest.approx(2.0)
    assert summary.self_time["net.tcp.roundtrip"] == pytest.approx(5.0)
    assert summary.self_time["core.server.handle"] == pytest.approx(2.0)
    assert summary.mean_us("novoht.put") == pytest.approx(1e6)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10)["verdict"] == "unchanged"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.10)["verdict"] == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "lower", 0.10)["verdict"] == "improved"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.10)["verdict"] == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)["verdict"] == "unresolved"
