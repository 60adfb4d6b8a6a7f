#!/usr/bin/env python3
"""Compare two ledger result files (``run.py --out``), metric by metric.

    python3 benchmarks/ledger/compare.py base.json new.json

One row per workload x end-to-end metric: the base median, the new
median, their ratio (always given with its base), the bound from
BENCHMARK.json, both sides' run-to-run spread, and a verdict:

* ``regressed``  - the new median is worse than the base median by more
  than the bound (a share of the base median);
* ``unresolved`` - a side's spread (inter-quartile distance / median) is
  wider than the bound, so the runs cannot tell a regression from noise
  (``setup_s`` is exempt, as in the acceptance driver: a set-up is a
  second or less and is measured three times a run, not forty);
* ``improved``   - the new median is better by more than the base side's
  own inter-quartile distance;
* ``unchanged``  - everything else.

Exit code 1 if any row is ``regressed`` or ``unresolved``, or either
file recorded a failed operation.  Two sets of runs of one commit must
therefore print neither.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: list[float], new: list[float], better: str, bound: float, gate_spread: bool = True
) -> dict:
    b1, _, b3 = quartiles(base)
    n1, _, n3 = quartiles(new)
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_mid - base_mid)  # > 0: the new side is worse
    base_spread = (b3 - b1) / base_mid if base_mid else 0.0
    new_spread = (n3 - n1) / new_mid if new_mid else 0.0
    if worse_by > bound * abs(base_mid):
        word = "regressed"
    elif gate_spread and max(base_spread, new_spread) > bound:
        word = "unresolved"
    elif worse_by < 0 and -worse_by > b3 - b1:
        word = "improved"
    else:
        word = "unchanged"
    return {
        "base": base_mid,
        "new": new_mid,
        "ratio": new_mid / base_mid if base_mid else float("nan"),
        "base_spread": base_spread,
        "new_spread": new_spread,
        "verdict": word,
    }


def compare(base: dict, new: dict, manifest: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = base["runs"].get(workload, {}).get(name)
            b = new["runs"].get(workload, {}).get(name)
            if not a or not b:
                continue
            row = verdict(a, b, metric["better"], metric["bound"], gate_spread=name != "setup_s")
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"],
                       runs=(len(a), len(b)))
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    with open(MANIFEST) as f:
        manifest = json.load(f)
    rows = compare(base, new, manifest)
    print(f"base: {argv[0]}  ({base['host'].get('git_sha')}, {base.get('failed', 0)} failed ops)")
    print(f"new:  {argv[1]}  ({new['host'].get('git_sha')}, {new.get('failed', 0)} failed ops)")
    header = (f"{'workload':18s} {'metric':14s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
              f"{'bound':>6s} {'spread b/n':>13s}  verdict")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:14s} {row['base']:12.3f} {row['new']:12.3f} "
              f"{row['ratio']:9.3f} {row['bound']:6.2f} "
              f"{row['base_spread']:6.3f}/{row['new_spread']:<6.3f}  {row['verdict']}"
              f"  [{row['unit']}, n={row['runs'][0]}/{row['runs'][1]}]")
    bad = [row for row in rows if row["verdict"] in ("regressed", "unresolved")]
    failed_ops = base.get("failed", 0) + new.get("failed", 0)
    print(f"{len(rows)} rows: " + ", ".join(
        f"{sum(row['verdict'] == word for row in rows)} {word}"
        for word in ("improved", "unchanged", "regressed", "unresolved")
    ) + f"; {failed_ops} failed ops")
    return 1 if bad or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
