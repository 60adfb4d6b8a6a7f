"""History-based consistency checker.

Verifies the paper's §III.J consistency model against a recorded
operation history (see :mod:`repro.verify.history`):

* **Per-key linearizability** for ``insert``/``lookup``/``remove`` —
  a Wing & Gong-style search for a valid linearization of each key's
  interval history against a register model.  ZHT keys are independent
  (a mutation touches exactly one key's store entry), so the global
  check partitions into per-key checks, which is what makes it
  tractable: the search is exponential in per-key *concurrency*, not in
  history length.
* **Append multiset containment** for concurrent ``append`` — the
  paper's lock-free concurrent-modification primitive promises that
  every acknowledged fragment lands in the value exactly once, in
  *some* order, with no interleaving corruption.  Order-freedom makes a
  full linearization search both intractable (n! append orders produce
  n! distinct states, defeating memoization) and unnecessary: the
  checker instead verifies the final value tokenizes into the acked
  fragments and that every mid-run read is a plausible prefix.
* **Bounded staleness** for reads served by asynchronous replicas
  (chain position >= 2): the returned value must have been current at
  some instant no more than ``staleness_bound`` seconds before the
  read's invocation.  Reads served by the primary or the
  strongly-consistent secondary participate in the linearizability
  check instead.

Operations that returned no response (``status == "fail"``: timeout,
exhausted retries) *may or may not* have taken effect; the checker
treats them as optional operations whose effect can linearize at any
point after their invocation — the standard "info op" treatment
(Knossos/Porcupine do the same).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs import REGISTRY
from .history import (
    STATUS_FAIL,
    STATUS_NOTFOUND,
    STATUS_OK,
    HistoryEvent,
)

_INF = float("inf")

#: Register-model operations (participate in the linearization search).
REGISTER_OPS = frozenset({"insert", "lookup", "remove"})


@dataclass
class KeyReport:
    """Verdict for one key's sub-history."""

    key: bytes
    model: str  #: "register" | "append"
    ok: bool
    violations: list[str] = field(default_factory=list)
    #: Minimal violating sub-history (greedy-shrunk): removing any one
    #: event from this list makes the remaining history linearizable.
    minimal: list[HistoryEvent] = field(default_factory=list)
    #: DFS states explored (register model).
    states: int = 0
    #: The search hit its node budget before deciding; not a violation.
    inconclusive: bool = False

    def describe(self) -> list[str]:
        lines = [f"key {self.key!r} [{self.model}]: " + "; ".join(self.violations)]
        for ev in self.minimal:
            lines.append(
                f"    {ev.client_id} {ev.op}({ev.key!r}"
                + (f", {ev.value!r}" if ev.value else "")
                + f") -> {ev.status}"
                + (f" {ev.result!r}" if ev.result else "")
                + f"  @[{ev.t_call:.6f}, {ev.t_return:.6f}]"
                + (f" replica={ev.replica_index}" if ev.replica_index else "")
            )
        return lines


@dataclass
class CheckReport:
    """Verdict for a whole history."""

    ok: bool = True
    events_total: int = 0
    keys_checked: int = 0
    register_keys: int = 0
    append_keys: int = 0
    stale_reads_checked: int = 0
    failed_ops: int = 0
    states_explored: int = 0
    elapsed_s: float = 0.0
    #: Per-key reports that found violations.
    violations: list[KeyReport] = field(default_factory=list)
    #: Keys whose search exhausted its budget (reported, not failed).
    inconclusive_keys: list[bytes] = field(default_factory=list)

    def first_violation(self) -> KeyReport | None:
        return self.violations[0] if self.violations else None

    def summary_lines(self) -> list[str]:
        lines = [
            f"history: {self.events_total} events over {self.keys_checked} "
            f"keys ({self.register_keys} register, {self.append_keys} "
            f"append), {self.failed_ops} indefinite ops",
            f"checker: {self.states_explored} states explored, "
            f"{self.stale_reads_checked} bounded-staleness reads, "
            f"{self.elapsed_s:.3f}s",
        ]
        if self.inconclusive_keys:
            lines.append(
                f"inconclusive (budget exhausted): "
                f"{len(self.inconclusive_keys)} key(s)"
            )
        if self.ok:
            lines.append("verdict: LINEARIZABLE (no violations)")
        else:
            lines.append(f"verdict: VIOLATION ({len(self.violations)} key(s))")
            for report in self.violations:
                lines.extend("  " + l for l in report.describe())
        return lines


# ---------------------------------------------------------------------------
# Register model
# ---------------------------------------------------------------------------


def _step(state: bytes | None, ev: HistoryEvent):
    """Apply *ev* to register *state*.

    Returns ``(consistent, new_state)``: whether the event's recorded
    outcome is consistent with linearizing it at this point, and the
    state afterwards.  Indefinite events have no recorded outcome, so
    they are always consistent — choosing one simply applies its effect.
    """
    op = ev.op
    if op == "insert":
        return (not ev.definite or ev.status == STATUS_OK, ev.value)
    if op == "append":
        return (not ev.definite or ev.status == STATUS_OK, (state or b"") + ev.value)
    if op == "remove":
        if state is None:
            return (not ev.definite or ev.status == STATUS_NOTFOUND, None)
        return (not ev.definite or ev.status == STATUS_OK, None)
    if op == "lookup":
        if state is None:
            ok = ev.status == STATUS_NOTFOUND
        else:
            ok = ev.status == STATUS_OK and ev.result == state
        return (ok, state)
    return (False, state)


def _linearize_register(
    events: list[HistoryEvent], budget: int
) -> tuple[bool, int, bool]:
    """Search for a valid linearization of one key's register history.

    Wing & Gong's algorithm: repeatedly pick a *minimal* operation (one
    whose invocation precedes no other pending operation's response),
    apply it to the model, and recurse; memoize on
    ``(remaining-set, state)`` so permutations of concurrent commuting
    prefixes are explored once.

    Indefinite ops (status ``fail``) use response time +inf — their
    effect may land arbitrarily late — and are optional: the search
    succeeds when every *definite* operation has been linearized.

    Returns ``(linearizable, states_explored, budget_exhausted)``.
    """
    # Indefinite lookups constrain nothing (no outcome to validate, no
    # effect on state): drop them up front.
    events = [e for e in events if e.definite or e.op != "lookup"]
    n = len(events)
    if n == 0:
        return True, 0, False
    eff_ret = [e.t_return if e.definite else _INF for e in events]
    definite_mask = 0
    for i, e in enumerate(events):
        if e.definite:
            definite_mask |= 1 << i
    all_mask = (1 << n) - 1

    visited: set[tuple[int, bytes | None]] = set()
    states = 0
    exhausted = False

    def dfs(remaining: int, state: bytes | None) -> bool:
        nonlocal states, exhausted
        if not (remaining & definite_mask):
            return True
        key = (remaining, state)
        if key in visited:
            return False
        visited.add(key)
        states += 1
        if states > budget:
            exhausted = True
            return False
        # The earliest response among pending definite ops bounds which
        # ops may linearize next: nothing invoked after it can precede it.
        min_ret = _INF
        rem = remaining & definite_mask
        while rem:
            i = (rem & -rem).bit_length() - 1
            if eff_ret[i] < min_ret:
                min_ret = eff_ret[i]
            rem &= rem - 1
        rem = remaining
        while rem:
            i = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            ev = events[i]
            if ev.t_call > min_ret:
                continue
            consistent, new_state = _step(state, ev)
            if not consistent:
                continue
            if dfs(remaining & ~(1 << i), new_state):
                return True
            if exhausted:
                return False
        return False

    ok = dfs(all_mask, None)
    return ok, states, exhausted


def _shrink_register(
    events: list[HistoryEvent], budget: int, max_len: int = 64
) -> list[HistoryEvent]:
    """Greedy ddmin-style shrink of a non-linearizable sub-history:
    drop every event whose removal keeps the history non-linearizable.
    The result is 1-minimal — putting back any single dropped event is
    unnecessary, and removing any kept event makes it pass."""
    if len(events) > max_len:
        events = events[-max_len:]
        ok, _, _ = _linearize_register(events, budget)
        if ok:  # the tail alone passes; shrinking needs the full set
            return events
    kept = list(events)
    # Try dropping reads before writes: a greedy shrink that removes a
    # write first can leave an orphaned read ("value never written") as
    # the core, which is minimal but hides the actual conflict.  Reads
    # first converges on write + contradicting-read cores instead.
    for drop_ops in ({"lookup"}, {"insert", "remove", "append"}):
        i = 0
        while i < len(kept):
            if kept[i].op not in drop_ops:
                i += 1
                continue
            candidate = kept[:i] + kept[i + 1 :]
            ok, _, exhausted = _linearize_register(candidate, budget)
            if not ok and not exhausted:
                kept = candidate
            else:
                i += 1
    return kept


# ---------------------------------------------------------------------------
# Append model
# ---------------------------------------------------------------------------


def tokenize_fragments(
    value: bytes, fragments: list[bytes], *, node_budget: int = 100_000
) -> list[bytes] | None:
    """Split *value* into a sequence drawn from *fragments*, or ``None``.

    Backtracking parse (fragments may be ambiguous prefixes of each
    other); each fragment may be used any number of times — the caller
    applies count constraints to the returned sequence.
    """
    frags = sorted(set(f for f in fragments if f), key=len, reverse=True)
    dead: set[int] = set()
    nodes = 0

    def parse(pos: int, acc: list[bytes]) -> list[bytes] | None:
        nonlocal nodes
        if pos == len(value):
            return list(acc)
        if pos in dead:
            return None
        nodes += 1
        if nodes > node_budget:
            return None
        for frag in frags:
            if value.startswith(frag, pos):
                acc.append(frag)
                out = parse(pos + len(frag), acc)
                if out is not None:
                    return out
                acc.pop()
        dead.add(pos)
        return None

    return parse(0, [])


#: Sentinel for "the post-quiesce value was not observed" — offline
#: re-checks of a saved history where no read-back can be issued.  The
#: containment checks are skipped; the read-ordering checks still run.
UNKNOWN_FINAL = object()


def check_append_key(
    key: bytes,
    events: list[HistoryEvent],
    final_value,
    *,
    strict_once: bool = True,
) -> KeyReport:
    """Verify one append-only key.

    *final_value* is the value read back after quiesce (``None`` if the
    key was absent, :data:`UNKNOWN_FINAL` if no read-back is available).
    ``strict_once=False`` relaxes "exactly once" to "at least once" for
    acked fragments — required when client retries are possible (a
    timed-out append whose first attempt actually applied is re-sent,
    legitimately landing the fragment twice under ZHT's at-least-once
    mutation semantics).
    """
    report = KeyReport(key, "append", True)
    appends = [e for e in events if e.op == "append"]
    acked = [e for e in appends if e.status == STATUS_OK]
    failed = [e for e in appends if e.status == STATUS_FAIL]
    reads = [e for e in events if e.op == "lookup" and e.definite]
    unknown_final = final_value is UNKNOWN_FINAL

    known = [e.value for e in appends]
    if not unknown_final:
        if final_value is None:
            if acked:
                report.ok = False
                report.violations.append(
                    f"{len(acked)} acked append(s) but key absent after "
                    f"quiesce"
                )
                report.minimal = acked[:4]
            return report

        tokens = tokenize_fragments(final_value, known)
        if tokens is None:
            report.ok = False
            report.violations.append(
                f"final value is not a concatenation of appended fragments "
                f"(interleaving corruption): {final_value!r}"
            )
            report.minimal = appends[:8]
            return report
        counts: dict[bytes, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for e in acked:
            got = counts.get(e.value, 0)
            want = "exactly once" if strict_once else "at least once"
            if got == 0 or (strict_once and got != 1):
                report.ok = False
                report.violations.append(
                    f"acked fragment {e.value!r} appears {got}x in final "
                    f"value, want {want}"
                )
                report.minimal.append(e)
        # Anything in the final value that is not an acked or indefinite
        # fragment would have been caught by tokenize (unknown bytes);
        # here catch over-application of *acked* fragments in strict mode
        # only — indefinite fragments may legitimately appear 0..N times.
        acked_values = {e.value for e in acked}
        failed_values = {e.value for e in failed}
        for token, got in counts.items():
            if token not in acked_values and token not in failed_values:
                report.ok = False
                report.violations.append(
                    f"final value contains fragment {token!r} that no "
                    f"append in the history produced"
                )
    else:
        # No final value: reads must still be totally prefix-ordered
        # (append-only values grow monotonically, so any two observed
        # values must be prefixes of one another).
        by_len = sorted(
            (r.result for r in reads if r.status == STATUS_OK), key=len
        )
        for shorter, longer in zip(by_len, by_len[1:]):
            if not longer.startswith(shorter):
                report.ok = False
                report.violations.append(
                    f"reads {shorter!r} and {longer!r} are not "
                    f"prefix-ordered (fragments reordered between reads)"
                )

    # Mid-run reads: append-only values grow monotonically, so in any
    # linearization every read is a prefix of the final value; it must
    # contain every fragment acked before the read was invoked and no
    # fragment invoked after the read returned.
    for r in reads:
        got = r.result if r.status == STATUS_OK else b""
        if not unknown_final and not final_value.startswith(got):
            report.ok = False
            report.violations.append(
                f"read {got!r} is not a prefix of the final value "
                f"(fragments reordered after being observed)"
            )
            report.minimal.append(r)
            continue
        for e in acked:
            if e.t_return < r.t_call and e.value not in got:
                report.ok = False
                report.violations.append(
                    f"read at t={r.t_call:.6f} misses fragment {e.value!r} "
                    f"acked at t={e.t_return:.6f} (lost/stale append)"
                )
                report.minimal.extend([e, r])
        for e in appends:
            if e.t_call > r.t_return and e.value and e.value in got:
                report.ok = False
                report.violations.append(
                    f"read returned fragment {e.value!r} before its append "
                    f"was invoked (time travel)"
                )
                report.minimal.extend([r, e])
    # One lost update produces a violation per (read, fragment) pair;
    # keep the report readable by deduplicating the witness events and
    # capping the violation list.
    if len(report.violations) > 6:
        dropped = len(report.violations) - 6
        report.violations = report.violations[:6]
        report.violations.append(f"... and {dropped} more violation(s)")
    seen: set[int] = set()
    report.minimal = [
        e for e in report.minimal if not (e.seq in seen or seen.add(e.seq))
    ][:12]
    return report


# ---------------------------------------------------------------------------
# Bounded staleness
# ---------------------------------------------------------------------------


def _check_stale_reads(
    strong: list[HistoryEvent],
    stale_reads: list[HistoryEvent],
    bound: float,
) -> list[str]:
    """Check async-replica reads of one key against *bound* seconds.

    A write's value is *possibly current* from its invocation until the
    response time of the earliest write forced to linearize after it
    (one invoked after the first write's response).  A stale read is
    admissible iff its returned value was possibly current at some
    instant in ``[t_call - bound, t_return]``.
    """
    writes = [
        e
        for e in strong
        if e.op in ("insert", "remove") and e.status != STATUS_NOTFOUND
    ]
    definite_writes = [e for e in writes if e.definite]

    def retire_time(w: HistoryEvent) -> float:
        if not w.definite:
            return _INF  # effect may land arbitrarily late
        later = [x.t_return for x in definite_writes if x.t_call >= w.t_return]
        return min(later, default=_INF)

    #: (value-or-None-for-absent, install_time, latest-possible retire).
    versions: list[tuple[bytes | None, float, float]] = [
        (None, -_INF, min((w.t_return for w in definite_writes), default=_INF))
    ]
    for w in writes:
        value = w.value if w.op == "insert" else None
        versions.append((value, w.t_call, retire_time(w)))

    violations = []
    for r in stale_reads:
        want = r.result if r.status == STATUS_OK else None
        window_lo = r.t_call - bound
        admissible = any(
            value == want and install <= r.t_return and window_lo < retire
            for value, install, retire in versions
        )
        if not admissible:
            lags = [
                r.t_call - retire
                for value, _install, retire in versions
                if value == want and retire < _INF
            ]
            lag = f" (lag >= {min(lags):.6f}s)" if lags else ""
            shown = "absent" if want is None else repr(want)
            violations.append(
                f"stale read at t={r.t_call:.6f} on replica "
                f"{r.replica_index} returned {shown}, not current within "
                f"the {bound}s staleness bound{lag}"
            )
    return violations


def _check_stale_append_reads(
    strong: list[HistoryEvent],
    stale_reads: list[HistoryEvent],
    bound: float,
    final_value,
) -> list[str]:
    """Bounded staleness for append-only keys.

    Register staleness is version-based; append-only values instead grow
    monotonically, and replication applies fragments in the primary's
    serialization order.  A replica read lagging by at most *bound*
    seconds may therefore miss *recent* fragments, but it must

    * contain every fragment acked more than *bound* seconds before the
      read was invoked (anything older has had the whole bound to reach
      the replica);
    * not contain a fragment whose append had not even been invoked by
      the time the read returned (staleness cannot show the future);
    * still be a prefix of the final value when one is known — a lagged
      replica is *behind* the primary, never differently ordered.
    """
    appends = [e for e in strong if e.op == "append"]
    acked = [e for e in appends if e.status == STATUS_OK]
    violations = []
    for r in stale_reads:
        got = r.result if r.status == STATUS_OK else b""
        if (
            isinstance(final_value, bytes)
            and got
            and not final_value.startswith(got)
        ):
            violations.append(
                f"stale read at t={r.t_call:.6f} on replica "
                f"{r.replica_index} returned {got!r}, not a prefix of the "
                f"final value (fragments reordered on the replica)"
            )
            continue
        for e in acked:
            if e.t_return < r.t_call - bound and e.value not in got:
                violations.append(
                    f"stale read at t={r.t_call:.6f} on replica "
                    f"{r.replica_index} misses fragment {e.value!r} acked "
                    f"at t={e.t_return:.6f}, beyond the {bound}s staleness "
                    f"bound (lag >= {r.t_call - e.t_return:.6f}s)"
                )
        for e in appends:
            if e.t_call > r.t_return and e.value and e.value in got:
                violations.append(
                    f"stale read at t={r.t_call:.6f} returned fragment "
                    f"{e.value!r} before its append was invoked "
                    f"(time travel)"
                )
    return violations


# ---------------------------------------------------------------------------
# Whole-history check
# ---------------------------------------------------------------------------


def final_values_from_history(
    events: list[HistoryEvent],
) -> dict[bytes, bytes | None]:
    """Recover post-run values from the history's own read-back events.

    The runner records its final strong read-back like any other
    operation, so a saved JSONL artifact is self-contained: for each key
    the latest definite primary/secondary lookup that started *after*
    every mutation of that key settled is its quiesced final value.
    Keys with no such lookup are omitted (their append checks fall back
    to :data:`UNKNOWN_FINAL`).
    """
    last_mutation: dict[bytes, float] = {}
    latest: dict[bytes, HistoryEvent] = {}
    for e in events:
        if e.op != "lookup":
            last_mutation[e.key] = max(
                last_mutation.get(e.key, -_INF), e.t_return
            )
        elif e.definite and e.replica_index < 2:
            cur = latest.get(e.key)
            if cur is None or e.t_call > cur.t_call:
                latest[e.key] = e
    return {
        key: (e.result if e.status == STATUS_OK else None)
        for key, e in latest.items()
        if e.t_call > last_mutation.get(key, -_INF)
    }


def check_history(
    events: list[HistoryEvent],
    *,
    final_values: dict[bytes, bytes | None] | None = None,
    staleness_bound: float | None = None,
    strict_append_once: bool = True,
    dfs_budget: int = 200_000,
) -> CheckReport:
    """Check a recorded history; returns a :class:`CheckReport`.

    *final_values* supplies each append-mode key's post-quiesce value
    (the runner's final strong read-back).  *staleness_bound* enables
    the bounded-staleness check for reads recorded with
    ``replica_index >= 2``; without it such reads are skipped entirely
    (they carry no strong-consistency guarantee to check).
    """
    t0 = time.perf_counter()
    report = CheckReport(events_total=len(events))
    final_values = final_values or {}

    by_key: dict[bytes, list[HistoryEvent]] = {}
    for ev in events:
        by_key.setdefault(ev.key, []).append(ev)
    report.keys_checked = len(by_key)
    report.failed_ops = sum(1 for e in events if not e.definite)

    for key in sorted(by_key):
        key_events = sorted(by_key[key], key=lambda e: (e.t_call, e.seq))
        # Async-replica reads are checked for bounded staleness, not
        # linearizability; primary/secondary events are the strong set.
        stale_reads = [
            e
            for e in key_events
            if e.op == "lookup" and e.replica_index >= 2 and e.definite
        ]
        stale_seqs = {e.seq for e in stale_reads}
        strong = [e for e in key_events if e.seq not in stale_seqs]

        ops = {e.op for e in strong}
        append_key = "append" in ops and not (ops - {"append", "lookup"})
        if append_key:
            report.append_keys += 1
            key_report = check_append_key(
                key,
                strong,
                final_values.get(key, UNKNOWN_FINAL),
                strict_once=strict_append_once,
            )
        else:
            report.register_keys += 1
            ok, states, exhausted = _linearize_register(strong, dfs_budget)
            report.states_explored += states
            key_report = KeyReport(key, "register", ok, states=states)
            if exhausted:
                key_report.ok = True
                key_report.inconclusive = True
                report.inconclusive_keys.append(key)
            elif not ok:
                key_report.violations.append(
                    "no valid linearization of this key's history"
                )
                key_report.minimal = _shrink_register(
                    [e for e in strong if e.definite or e.op != "lookup"],
                    dfs_budget,
                )

        if staleness_bound is not None and stale_reads:
            report.stale_reads_checked += len(stale_reads)
            if append_key:
                stale_violations = _check_stale_append_reads(
                    strong,
                    stale_reads,
                    staleness_bound,
                    final_values.get(key, UNKNOWN_FINAL),
                )
            else:
                stale_violations = _check_stale_reads(
                    strong, stale_reads, staleness_bound
                )
            if stale_violations:
                key_report.ok = False
                key_report.violations.extend(stale_violations)
                key_report.minimal.extend(stale_reads[:4])

        if not key_report.ok:
            report.violations.append(key_report)

    report.ok = not report.violations
    report.elapsed_s = time.perf_counter() - t0
    REGISTRY.counter("verify.events_checked").inc(len(events))
    REGISTRY.counter("verify.keys_checked").inc(report.keys_checked)
    REGISTRY.counter("verify.states_explored").inc(report.states_explored)
    REGISTRY.counter("verify.violations").inc(len(report.violations))
    return report
