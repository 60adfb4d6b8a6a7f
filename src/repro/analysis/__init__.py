"""repro.analysis — repo-aware static analysis for the ZHT reproduction.

The dynamic verifier (:mod:`repro.verify`) can only *sample* schedules;
this package proves whole classes of bugs absent before runtime with
repo-aware checkers built on a shared interprocedural engine (per-file
AST cache, project-wide call graph with provenance, reusable taint /
reachability fixpoints — DESIGN.md §17):

* **blocking-under-lock** (``BLOCK001``) — socket I/O, ``os.fsync``,
  ``time.sleep`` and friends reached (transitively, through resolvable
  calls) while a lock is held.
* **protocol-exhaustiveness** (``PROTO00x``) — every :class:`OpCode`
  member has a construction site, a server dispatch handler, and an
  explicit MUTATING/NON_MUTATING membership decision.
* **event-loop** (``LOOP00x``) — blocking calls transitively reachable
  from event-loop entry points (``# lint: event-loop`` / ``async def``),
  with a ``# holds-executor:`` escape hatch, plus loop-acquired locks
  that other code holds across blocking calls.
* **fork-safety** (``FORK00x``) — processes spawned under locks or next
  to live threads, fork children acquiring inherited module-level
  locks, and fork children that never close inherited sockets.
* **resource-lifetime** (``RES00x``) — must-close analysis: resources
  that are never closed, exception paths that escape before close, and
  temp files left behind on error paths.

That every :class:`ZHTConfig` field is read somewhere is a plain test
(``tests/test_config.py``), not a checker.

Run with ``python -m repro lint``; see DESIGN.md §11 for the annotation
conventions and the suppression policy.
"""

from __future__ import annotations

from .engine import (
    CHECKERS,
    Finding,
    LintConfig,
    LintReport,
    Project,
    run_lint,
)

# Importing the checker modules registers them in CHECKERS.
from . import (  # noqa: E402,F401
    blocking,
    eventloop,
    forksafety,
    protocol_check,
    resourcecheck,
)

__all__ = [
    "CHECKERS",
    "Finding",
    "LintConfig",
    "LintReport",
    "Project",
    "run_lint",
]
