"""Consistency verification: history capture + linearizability checking.

The paper's consistency claims (§III.J) — strongly consistent
primary/secondary, bounded-lag asynchronous tails — are *checked*, not
assumed, by this package:

* :mod:`~repro.verify.history` records every client operation as a
  timestamped invocation/response interval (negligible overhead when
  off; ``ZHT_HISTORY=path`` attaches a process-global JSONL recorder);
* :mod:`~repro.verify.checker` validates recorded histories — per-key
  Wing&Gong linearizability for insert/lookup/remove, multiset
  containment for concurrent appends, bounded staleness for async
  replica reads — and shrinks violations to a minimal sub-history;

The ``python -m repro verify`` record → crash → recover → check loop
(:func:`run_verify`) is a synthesised scenario with
``checks.linearizability`` on, executed by :mod:`repro.scenario.runner`;
its ``mutation`` modes are deliberately broken replication that prove
the checker actually detects violations.
"""

from ..scenario.frontends import MUTATIONS, run_verify
from .checker import (
    UNKNOWN_FINAL,
    CheckReport,
    KeyReport,
    check_append_key,
    check_history,
    final_values_from_history,
    tokenize_fragments,
)
from .history import (
    STATUS_FAIL,
    STATUS_NOTFOUND,
    STATUS_OK,
    HistoryEvent,
    HistoryRecorder,
    load_history,
    recorder_from_env,
    save_history,
)

__all__ = [
    "MUTATIONS",
    "CheckReport",
    "HistoryEvent",
    "HistoryRecorder",
    "KeyReport",
    "STATUS_FAIL",
    "STATUS_NOTFOUND",
    "STATUS_OK",
    "UNKNOWN_FINAL",
    "check_append_key",
    "check_history",
    "final_values_from_history",
    "load_history",
    "recorder_from_env",
    "run_verify",
    "save_history",
    "tokenize_fragments",
]
