"""Linearizability / append / bounded-staleness checker unit tests.

Histories here are hand-built so each test pins one property of the
checker: what must pass, what must be flagged, and what the minimal
violating sub-history looks like.
"""

import itertools

from repro.scenario.traffic import synthesize_history
from repro.verify import (
    STATUS_FAIL,
    STATUS_NOTFOUND,
    STATUS_OK,
    UNKNOWN_FINAL,
    HistoryEvent,
    check_append_key,
    check_history,
    final_values_from_history,
    tokenize_fragments,
)

_seq = itertools.count(1)


def ev(client, op, key, t0, t1, status=STATUS_OK, value=b"", result=b"",
       replica=0):
    return HistoryEvent(
        client_id=client, op=op, key=key, value=value, t_call=t0, t_return=t1,
        status=status, result=result, replica_index=replica, seq=next(_seq),
    )


class TestRegisterModel:
    def test_sequential_history_passes(self):
        h = [
            ev("a", "insert", b"k", 0, 1, value=b"v1"),
            ev("a", "lookup", b"k", 2, 3, result=b"v1"),
            ev("a", "remove", b"k", 4, 5),
            ev("a", "lookup", b"k", 6, 7, STATUS_NOTFOUND),
            ev("a", "remove", b"k", 8, 9, STATUS_NOTFOUND),
        ]
        report = check_history(h)
        assert report.ok and report.register_keys == 1

    def test_concurrent_reads_may_split_around_write(self):
        # Two overlapping reads straddling a concurrent overwrite: one
        # sees the old value, one the new — fine, the write linearizes
        # between them.
        h = [
            ev("a", "insert", b"k", 0, 1, value=b"v1"),
            ev("b", "insert", b"k", 2, 6, value=b"v2"),
            ev("c", "lookup", b"k", 3, 5, result=b"v1"),
            ev("d", "lookup", b"k", 3, 5, result=b"v2"),
        ]
        assert check_history(h).ok

    def test_stale_read_after_overwrite_flagged(self):
        h = [
            ev("a", "insert", b"k", 0, 1, value=b"v1"),
            ev("a", "insert", b"k", 2, 3, value=b"v2"),
            ev("b", "lookup", b"k", 4, 5, result=b"v1"),
        ]
        report = check_history(h)
        assert not report.ok
        key_report = report.first_violation()
        assert key_report.model == "register"
        assert "no valid linearization" in key_report.violations[0]
        assert key_report.minimal  # shrunk witness included
        assert any(e.op == "lookup" for e in key_report.minimal)

    def test_minimal_core_is_write_plus_contradicting_read(self):
        # Value disappears without a remove: the shrunk core keeps both
        # the acked insert and the impossible notfound read.
        h = [
            ev("a", "insert", b"k", 0, 1, value=b"v1"),
            ev("b", "lookup", b"k", 2, 3, STATUS_NOTFOUND),
        ]
        report = check_history(h)
        assert not report.ok
        minimal = report.first_violation().minimal
        assert sorted(e.op for e in minimal) == ["insert", "lookup"]

    def test_indefinite_write_may_or_may_not_apply(self):
        # A timed-out insert is free to linearize (or not) — both
        # subsequent read outcomes are legal.
        for seen in (b"v1", b"v2"):
            h = [
                ev("a", "insert", b"k", 0, 1, value=b"v1"),
                ev("b", "insert", b"k", 2, 3, STATUS_FAIL, value=b"v2"),
                ev("c", "lookup", b"k", 10, 11, result=seen),
            ]
            assert check_history(h).ok, seen

    def test_indefinite_write_cannot_apply_before_invocation(self):
        # ...but it cannot take effect before it was invoked.
        h = [
            ev("a", "insert", b"k", 0, 1, value=b"v1"),
            ev("c", "lookup", b"k", 2, 3, result=b"v2"),
            ev("b", "insert", b"k", 4, 5, STATUS_FAIL, value=b"v2"),
        ]
        assert not check_history(h).ok

    def test_value_never_written_flagged(self):
        h = [ev("a", "lookup", b"k", 0, 1, result=b"ghost")]
        assert not check_history(h).ok

    def test_budget_exhaustion_is_inconclusive_not_violation(self):
        # Heavy same-interval concurrency with a tiny budget: the DFS
        # gives up; the key is reported inconclusive, not failed.
        h = [
            ev(f"c{i}", "insert", b"k", 0, 1, value=f"v{i}".encode())
            for i in range(12)
        ]
        h.append(ev("r", "lookup", b"k", 0, 1, result=b"v3"))
        report = check_history(h, dfs_budget=5)
        assert report.ok
        assert report.inconclusive_keys == [b"k"]

    def test_keys_checked_independently(self):
        h = [
            ev("a", "insert", b"k1", 0, 1, value=b"x"),
            ev("a", "insert", b"k2", 2, 3, value=b"y"),
            ev("b", "lookup", b"k2", 4, 5, STATUS_NOTFOUND),  # violation
            ev("b", "lookup", b"k1", 6, 7, result=b"x"),  # fine
        ]
        report = check_history(h)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0].key == b"k2"
        assert "VIOLATION" in "\n".join(report.summary_lines())


class TestAppendModel:
    def test_tokenize_handles_ambiguous_prefixes(self):
        frags = [b"ab", b"abab", b"b"]
        assert tokenize_fragments(b"ababb", frags) in (
            [b"abab", b"b"], [b"ab", b"ab", b"b"],
        )
        assert tokenize_fragments(b"abx", frags) is None

    def test_any_permutation_of_acked_fragments_passes(self):
        frags = [b"|a;", b"|b;", b"|c;"]
        events = [
            ev(f"c{i}", "append", b"k", i, i + 1, value=f)
            for i, f in enumerate(frags)
        ]
        for perm in itertools.permutations(frags):
            assert check_append_key(b"k", events, b"".join(perm)).ok

    def test_lost_acked_fragment_flagged(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("b", "append", b"k", 2, 3, value=b"|b;"),
        ]
        report = check_append_key(b"k", events, b"|a;")
        assert not report.ok
        assert "appears 0x" in report.violations[0]

    def test_interleaving_corruption_flagged(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|aa;"),
            ev("b", "append", b"k", 0, 1, value=b"|bb;"),
        ]
        # Bytes interleaved mid-fragment — not a concatenation.
        report = check_append_key(b"k", events, b"|a|bb;a;")
        assert not report.ok
        assert "interleaving corruption" in report.violations[0]

    def test_acked_but_absent_key_flagged(self):
        events = [ev("a", "append", b"k", 0, 1, value=b"|a;")]
        report = check_append_key(b"k", events, None)
        assert not report.ok
        assert "absent after" in report.violations[0]

    def test_duplicate_needs_at_least_once_relaxation(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("b", "append", b"k", 2, 3, value=b"|b;"),
        ]
        doubled = b"|a;|b;|a;"
        assert not check_append_key(b"k", events, doubled).ok
        assert check_append_key(b"k", events, doubled, strict_once=False).ok

    def test_indefinite_fragment_may_land_zero_or_more_times(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("b", "append", b"k", 2, 3, STATUS_FAIL, value=b"|b;"),
        ]
        for final in (b"|a;", b"|a;|b;", b"|b;|a;|b;"):
            assert check_append_key(b"k", events, final).ok, final

    def test_read_missing_previously_acked_fragment_flagged(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("r", "lookup", b"k", 2, 3, STATUS_NOTFOUND),
        ]
        report = check_append_key(b"k", events, b"|a;")
        assert not report.ok
        assert "misses fragment" in report.violations[0]

    def test_time_travel_read_flagged(self):
        events = [
            ev("r", "lookup", b"k", 0, 1, result=b"|a;"),
            ev("a", "append", b"k", 2, 3, value=b"|a;"),
        ]
        report = check_append_key(b"k", events, b"|a;")
        assert not report.ok
        assert "time travel" in report.violations[0]

    def test_violation_list_capped_and_minimal_deduped(self):
        events = [ev("a", "append", b"k", 0, 1, value=b"|a;")]
        events += [
            ev("r", "lookup", b"k", 2 + i, 3 + i, STATUS_NOTFOUND)
            for i in range(10)
        ]
        report = check_append_key(b"k", events, b"|a;")
        assert not report.ok
        assert len(report.violations) == 7
        assert "more violation(s)" in report.violations[-1]
        seqs = [e.seq for e in report.minimal]
        assert len(seqs) == len(set(seqs)) and len(seqs) <= 12

    def test_unknown_final_checks_read_prefix_ordering(self):
        events = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("b", "append", b"k", 2, 3, value=b"|b;"),
            ev("r", "lookup", b"k", 1.2, 1.4, result=b"|a;"),
            ev("r", "lookup", b"k", 6, 7, result=b"|a;|b;"),
        ]
        assert check_append_key(b"k", events, UNKNOWN_FINAL).ok
        # Reordered fragments between reads: not prefix-ordered.
        bad = events[:2] + [
            ev("r", "lookup", b"k", 1.2, 1.4, result=b"|a;"),
            ev("r", "lookup", b"k", 6, 7, result=b"|b;|a;"),
        ]
        report = check_append_key(b"k", bad, UNKNOWN_FINAL)
        assert not report.ok
        assert "prefix-ordered" in report.violations[0]

    def test_check_history_dispatches_append_model(self):
        h = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("b", "append", b"k", 0, 1, value=b"|b;"),
            ev("r", "lookup", b"k", 2, 3, result=b"|b;|a;"),
        ]
        report = check_history(h, final_values={b"k": b"|b;|a;"})
        assert report.ok and report.append_keys == 1 and not report.register_keys


class TestPrefixAnomaly:
    """A read that is not a prefix of the final value names why."""

    FRAGMENTS = [b"|a;", b"|b;", b"|c;", b"|d;"]

    def _violation(self, read):
        events = [
            ev(f"c{i}", "append", b"k", i, i + 0.5, value=f)
            for i, f in enumerate(self.FRAGMENTS)
        ]
        events.append(ev("r", "lookup", b"k", 10, 11, result=read))
        report = check_append_key(b"k", events, b"".join(self.FRAGMENTS))
        assert not report.ok
        assert "not a prefix of the final value" in report.violations[0]
        return report.violations[0]

    def test_a_run_past_the_start_is_a_missing_prefix(self):
        assert "missing prefix: the first 1 of 4 fragments" in self._violation(b"|b;|c;")

    def test_a_gap_inside_the_read_is_missing_fragments(self):
        assert "(missing fragments)" in self._violation(b"|a;|c;")

    def test_another_order_is_a_reordering(self):
        assert "(fragments reordered)" in self._violation(b"|b;|a;")

    def test_a_fragment_read_twice_is_a_duplicate(self):
        assert "duplicated fragment b'|a;'" in self._violation(b"|a;|a;")


class TestFinalValuesFromHistory:
    def test_recovers_quiesced_read_back(self):
        h = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("a", "insert", b"r", 0, 1, value=b"v"),
            ev("reader", "lookup", b"k", 5, 6, result=b"|a;"),
            ev("reader", "lookup", b"r", 5, 6, result=b"v"),
            ev("reader", "lookup", b"gone", 5, 6, STATUS_NOTFOUND),
        ]
        finals = final_values_from_history(h)
        assert finals == {b"k": b"|a;", b"r": b"v", b"gone": None}

    def test_reads_concurrent_with_mutations_not_trusted(self):
        h = [
            ev("r", "lookup", b"k", 2, 3, result=b"|a;"),
            ev("a", "append", b"k", 0, 5, value=b"|b;"),  # settles later
        ]
        assert b"k" not in final_values_from_history(h)

    def test_async_replica_reads_not_trusted(self):
        h = [
            ev("a", "append", b"k", 0, 1, value=b"|a;"),
            ev("r", "lookup", b"k", 5, 6, result=b"|a;", replica=2),
        ]
        assert b"k" not in final_values_from_history(h)

    def test_offline_recheck_of_saved_history_passes(self):
        # A checker round trip with no live cluster: history + recovered
        # finals must agree.
        events, finals = synthesize_history(3, 400)
        recovered_report = check_history(
            events, final_values=final_values_from_history(events),
            strict_append_once=False,
        )
        assert recovered_report.ok
        assert check_history(events, final_values=finals).ok


class TestBoundedStaleness:
    def _history(self, stale_result, bound_probe_at=1.3):
        return [
            ev("a", "insert", b"k", 0.0, 0.1, value=b"v1"),
            ev("a", "insert", b"k", 1.0, 1.1, value=b"v2"),
            ev("p", "lookup", b"k", bound_probe_at, bound_probe_at + 0.01,
               result=stale_result, replica=2),
        ]

    def test_recent_version_within_bound_passes(self):
        # v1 retired at t=1.1; probe at 1.3 with bound 0.5 reaches back
        # to 0.8 < 1.1 — admissible.
        report = check_history(self._history(b"v1"), staleness_bound=0.5)
        assert report.ok and report.stale_reads_checked == 1

    def test_version_older_than_bound_flagged(self):
        report = check_history(self._history(b"v1"), staleness_bound=0.05)
        assert not report.ok
        violation = report.first_violation().violations[0]
        assert "staleness bound" in violation and "lag" in violation

    def test_current_value_always_passes(self):
        assert check_history(self._history(b"v2"), staleness_bound=0.05).ok

    def test_never_written_value_flagged(self):
        assert not check_history(
            self._history(b"ghost"), staleness_bound=10.0
        ).ok

    def test_without_bound_stale_reads_skipped(self):
        report = check_history(self._history(b"ghost"))
        assert report.ok and report.stale_reads_checked == 0


class TestSynthesizedHistories:
    def test_synthesized_history_is_linearizable(self):
        events, finals = synthesize_history(11, 1500, clients=6)
        report = check_history(events, final_values=finals)
        assert report.ok
        assert not report.inconclusive_keys
        assert report.events_total == 1500
        assert report.append_keys and report.register_keys

    def test_corrupting_synthesized_history_is_caught(self):
        events, finals = synthesize_history(11, 300, clients=4)
        ok_lookup = next(
            i for i, e in enumerate(events)
            if e.op == "lookup" and e.status == STATUS_OK
            and b"-reg-" in e.key
        )
        e = events[ok_lookup]
        events[ok_lookup] = HistoryEvent(
            e.client_id, e.op, e.key, e.value, e.t_call, e.t_return,
            e.status, result=e.result + b"-corrupt", seq=e.seq,
        )
        assert not check_history(events, final_values=finals).ok


class TestBoundedStalenessAppend:
    """Append keys have their own staleness model: a lagged replica may
    miss recent fragments but must hold everything older than the bound,
    in primary order, and never fragments from the future."""

    def _base(self):
        return [
            ev("a", "append", b"k", 0.0, 0.1, value=b"|f1;"),
            ev("a", "append", b"k", 1.0, 1.1, value=b"|f2;"),
            ev("a", "append", b"k", 2.0, 2.1, value=b"|f3;"),
        ]

    def _finals(self):
        return {b"k": b"|f1;|f2;|f3;"}

    def test_lag_within_bound_passes(self):
        # Probe at t=1.3 missing f2 (acked 1.1): lag 0.2 < bound 0.5.
        h = self._base() + [
            ev("p", "lookup", b"k", 1.3, 1.31, result=b"|f1;", replica=2),
        ]
        report = check_history(
            h, final_values=self._finals(), staleness_bound=0.5
        )
        assert report.ok and report.stale_reads_checked == 1

    def test_missing_old_fragment_flagged(self):
        # Probe at t=2.5 still missing f1 (acked 0.1): lag 2.4 > 0.5.
        h = self._base() + [
            ev("p", "lookup", b"k", 2.5, 2.51, result=b"|f2;", replica=2),
        ]
        report = check_history(
            h, final_values={b"k": b"|f2;|f1;|f3;"}, staleness_bound=0.5
        )
        assert not report.ok
        violation = report.first_violation().violations[0]
        assert "staleness bound" in violation and "lag" in violation

    def test_current_value_always_passes(self):
        h = self._base() + [
            ev("p", "lookup", b"k", 2.5, 2.51,
               result=b"|f1;|f2;|f3;", replica=2),
        ]
        assert check_history(
            h, final_values=self._finals(), staleness_bound=0.01
        ).ok

    def test_future_fragment_flagged(self):
        # Probe returns f3 before its append was even invoked.
        h = self._base() + [
            ev("p", "lookup", b"k", 1.3, 1.31,
               result=b"|f1;|f2;|f3;", replica=2),
        ]
        report = check_history(
            h, final_values=self._finals(), staleness_bound=10.0
        )
        assert not report.ok
        assert "time travel" in report.first_violation().violations[0]

    def test_reordered_fragments_flagged(self):
        # Replica state must be a prefix of the primary's final value.
        h = self._base() + [
            ev("p", "lookup", b"k", 2.5, 2.51,
               result=b"|f2;|f1;", replica=2),
        ]
        report = check_history(
            h, final_values=self._finals(), staleness_bound=10.0
        )
        assert not report.ok
        assert "prefix" in report.first_violation().violations[0]

    def test_without_bound_skipped(self):
        h = self._base() + [
            ev("p", "lookup", b"k", 2.5, 2.51, result=b"ghost", replica=2),
        ]
        assert check_history(h, final_values=self._finals()).ok

    def test_stale_append_reads_do_not_break_strong_checks(self):
        # The lagged replica probes must not leak into the strong append
        # model (which would call a merely-stale read a lost update).
        h = self._base() + [
            ev("p", "lookup", b"k", 1.3, 1.31, result=b"|f1;", replica=2),
            ev("a", "lookup", b"k", 2.5, 2.6, result=b"|f1;|f2;|f3;"),
        ]
        report = check_history(
            h, final_values=self._finals(), staleness_bound=0.5
        )
        assert report.ok and report.append_keys == 1
