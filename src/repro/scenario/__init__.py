"""Declarative scenario engine: one validated config → cluster +
traffic + faults + verdict.

A :class:`~repro.scenario.schema.Scenario` is a single, self-contained,
validated contract describing an adverse-conditions experiment:

* **topology** — node/replica/shard/partition counts plus raw
  :class:`~repro.core.config.ZHTConfig` overrides;
* **workload** — a traffic profile (uniform / zipf / append /
  mixed-tenant) built on :mod:`repro.workload`'s generators;
* **faults**  — node-level events (kill / repair / kill-shard at
  workload-progress fractions) and message-level fault rules compiled
  into a deterministic :class:`~repro.faults.plan.FaultPlan`;
* **checks**  — which of the invariant checkers from
  :mod:`repro.faults.invariants` must hold afterwards;
* **gates**   — numeric thresholds over run metrics and the
  :mod:`repro.obs` registry.

:func:`~repro.scenario.runner.run_scenario` executes any scenario
against any backend (local / tcp / udp / sim / sharded) and returns a
machine-readable :class:`~repro.scenario.runner.Verdict`.  The named
scenarios under :mod:`repro.scenario.library` are the repo's growing,
CI-enforced regression asset (``python -m repro scenario list``).
"""

from __future__ import annotations

__all__ = [
    "Scenario",
    "ScenarioError",
    "Verdict",
    "run_scenario",
    "load_library",
    "load_scenario",
]

_LAZY = {
    "Scenario": ("repro.scenario.schema", "Scenario"),
    "ScenarioError": ("repro.scenario.schema", "ScenarioError"),
    "Verdict": ("repro.scenario.runner", "Verdict"),
    "run_scenario": ("repro.scenario.runner", "run_scenario"),
    "load_library": ("repro.scenario.library", "load_library"),
    "load_scenario": ("repro.scenario.library", "load_scenario"),
}


def __getattr__(name: str) -> object:
    # Lazy re-exports keep package import light and cycle-free: the
    # runner imports repro.faults and repro.verify, whose __init__s
    # import repro.scenario.frontends.
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
