"""Fixture tests for the repo-aware lint suite (repro.analysis).

Each checker gets a known-bad snippet proving it fires and a known-good
snippet proving it stays quiet; the meta-test at the bottom asserts the
real tree lints clean (zero unsuppressed findings, no stale
suppressions) — the same invariant CI's ``repro lint --json`` gate
enforces.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintConfig, run_lint
from repro.analysis.engine import LintConfigError, Suppression

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, source, checker=None, config=None, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source), encoding="utf-8")
    cfg = config or LintConfig(roots=["."])
    checkers = [checker] if checker else None
    return run_lint(tmp_path, checkers=checkers, config=cfg)


def codes(report):
    return sorted({f.code for f in report.active})


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------


BLOCK_SNIPPET = """
    import threading
    import time

    class Store:
        def __init__(self):
            self._lock = threading.Lock()

        def good(self):
            with self._lock:
                pass
            time.sleep(0.1)

        def bad(self):
            with self._lock:
                time.sleep(0.1)
"""


def test_block001_holds_lock_annotation(tmp_path):
    # A `# holds-lock:` def runs under its lock for the whole body; a
    # `# lint: single-threaded` def is never judged.
    report = lint_snippet(
        tmp_path,
        """
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def _evict(self):  # holds-lock: _lock
                time.sleep(0.1)

            def _setup(self):  # lint: single-threaded
                with self._lock:
                    time.sleep(0.1)
        """,
        "blocking-under-lock",
    )
    (finding,) = report.active
    assert finding.code == "BLOCK001"
    assert finding.symbol == "Store._evict"
    assert "Store._lock" in finding.message


def test_lock_property_alias_resolves(tmp_path):
    # `with self.store.lock:` (a property aliasing _lock) holds
    # Store._lock — the NoVoHT.lock idiom.
    report = lint_snippet(
        tmp_path,
        """
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.RLock()

            @property
            def lock(self):
                return self._lock

        class User:
            store: "Store"

            def stalls(self):
                with self.store.lock:
                    time.sleep(0.1)
        """,
        "blocking-under-lock",
    )
    (finding,) = report.active
    assert finding.symbol == "User.stalls"
    assert "while holding Store._lock" in finding.message


def test_block001_direct_and_transitive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os
        import threading
        import time

        class W:
            def __init__(self):
                self._lock = threading.Lock()

            def direct(self):
                with self._lock:
                    time.sleep(0.1)

            def _flush(self):
                os.fsync(1)

            def transitive(self):
                with self._lock:
                    self._flush()

            def fine(self):
                time.sleep(0.1)
                with self._lock:
                    pass
        """,
        "blocking-under-lock",
    )
    assert codes(report) == ["BLOCK001"]
    symbols = sorted(f.symbol for f in report.active)
    assert symbols == ["W.direct", "W.transitive"]


def test_block001_condition_wait_idiom_allowed(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        class Seq:
            def __init__(self):
                self._cond = threading.Condition()

            def ok(self):
                with self._cond:
                    self._cond.wait()

            def bad(self, event):
                with self._cond:
                    event.wait()
        """,
        "blocking-under-lock",
    )
    assert [f.symbol for f in report.active] == ["Seq.bad"]


def test_block001_file_write_under_lock(tmp_path):
    """Full-file writers (flush / os.replace / shutil.copyfileobj) taint
    their callers: a checkpoint-style helper called under a lock is a
    finding even though the helper itself never touches the lock —
    exactly the NoVoHT.checkpoint() stall shape this PR fixes."""
    report = lint_snippet(
        tmp_path,
        """
        import os
        import shutil
        import threading

        def write_snapshot(path, pairs):
            with open(path, "wb") as f:
                f.write(b"x")
                f.flush()
            os.replace(path, path + ".done")

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def checkpoint_bad(self):
                with self._lock:
                    write_snapshot("ckpt", [])

            def splice_bad(self, src, out):
                with self._lock:
                    shutil.copyfileobj(src, out)

            def checkpoint_good(self):
                with self._lock:
                    pairs = []
                write_snapshot("ckpt", pairs)
        """,
        "blocking-under-lock",
    )
    assert codes(report) == ["BLOCK001"]
    symbols = sorted(f.symbol for f in report.active)
    assert symbols == ["Store.checkpoint_bad", "Store.splice_bad"]
    messages = {f.symbol: f.message for f in report.active}
    assert "write_snapshot" in messages["Store.checkpoint_bad"]


def test_block001_inline_suppression(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os
        import threading

        class W:
            def __init__(self):
                self._lock = threading.Lock()

            def flush(self):
                with self._lock:
                    os.fsync(1)  # zht-lint: ignore[BLOCK001] group commit
        """,
        "blocking-under-lock",
    )
    assert report.active == []
    (finding,) = report.suppressed
    assert finding.suppressed_by == "inline: group commit"


# ---------------------------------------------------------------------------
# protocol-exhaustiveness
# ---------------------------------------------------------------------------


PROTO_SNIPPET = """
    class OpCode:
        INSERT = 1
        LOOKUP = 2
        ORPHAN = 3
        DOUBLE = 4

    MUTATING_OPS = frozenset({OpCode.INSERT, OpCode.DOUBLE})
    NON_MUTATING_OPS = frozenset({OpCode.LOOKUP, OpCode.DOUBLE})

    def make_insert():
        return (OpCode.INSERT, OpCode.LOOKUP, OpCode.DOUBLE)

    class Server:
        def _dispatch(self, op):
            if op == OpCode.INSERT:
                return 1
            if op == OpCode.LOOKUP:
                return 2
            if op == OpCode.DOUBLE:
                return 4
            return None
"""


def test_proto_orphan_and_double_membership(tmp_path):
    report = lint_snippet(tmp_path, PROTO_SNIPPET, "protocol-exhaustiveness")
    by_code = {}
    for f in report.active:
        by_code.setdefault(f.code, set()).add(f.symbol)
    # ORPHAN: no dispatch, no construction, no membership decision.
    assert by_code["PROTO001"] == {"OpCode.ORPHAN"}
    assert by_code["PROTO002"] == {"OpCode.ORPHAN"}
    assert by_code["PROTO003"] == {"OpCode.ORPHAN"}
    # DOUBLE: listed in both sets.
    assert by_code["PROTO004"] == {"OpCode.DOUBLE"}


def test_proto_quiet_when_exhaustive(tmp_path):
    clean = (
        PROTO_SNIPPET.replace("        ORPHAN = 3\n", "")
        .replace("        DOUBLE = 4\n", "")
        .replace("{OpCode.INSERT, OpCode.DOUBLE}", "{OpCode.INSERT}")
        .replace("{OpCode.LOOKUP, OpCode.DOUBLE}", "{OpCode.LOOKUP}")
        .replace(", OpCode.DOUBLE)", ")")
        .replace(
            "            if op == OpCode.DOUBLE:\n                return 4\n",
            "",
        )
    )
    report = lint_snippet(tmp_path, clean, "protocol-exhaustiveness")
    assert report.active == []


# ---------------------------------------------------------------------------
# engine: suppression policy
# ---------------------------------------------------------------------------


def test_suppression_file_requires_reason(tmp_path):
    (tmp_path / ".zhtlint.toml").write_text(
        '[[suppress]]\ncode = "BLOCK001"\n', encoding="utf-8"
    )
    try:
        LintConfig.load(tmp_path)
    except LintConfigError as exc:
        assert "reason" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("missing reason must be rejected")


def test_suppression_matches_symbol_glob(tmp_path):
    config = LintConfig(
        roots=["."],
        suppressions=[
            Suppression(
                code="BLOCK001", symbol="Store.*", reason="test fixture"
            )
        ],
    )
    report = lint_snippet(tmp_path, BLOCK_SNIPPET, "blocking-under-lock", config)
    assert report.active == []
    (finding,) = report.suppressed
    assert finding.suppressed_by == "test fixture"
    assert report.unused_suppressions == []


def test_unused_suppressions_reported_on_full_run(tmp_path):
    config = LintConfig(
        roots=["."],
        suppressions=[
            Suppression(code="BLOCK001", symbol="Nothing.*", reason="stale")
        ],
    )
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    report = run_lint(tmp_path, config=config)
    assert [s.reason for s in report.unused_suppressions] == ["stale"]


def test_stale_inline_suppression_reported_on_full_run(tmp_path):
    # The tree's only inline suppression names a finding that is not
    # there: a full run reports it, a one-checker run cannot judge it.
    source = """
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def fine(self):
                with self._lock:
                    pass
                time.sleep(0.1)  # zht-lint: ignore[BLOCK001] sleeps under the lock
    """
    report = lint_snippet(tmp_path, source)
    assert report.ok
    (stale,) = report.unused_suppressions
    assert stale.describe() == "BLOCK001 @ mod.py:12"
    assert stale.reason == "sleeps under the lock"
    report = lint_snippet(tmp_path, source, "blocking-under-lock")
    assert report.unused_suppressions == []


def test_json_report_shape(tmp_path):
    report = lint_snippet(tmp_path, BLOCK_SNIPPET, "blocking-under-lock")
    data = __import__("json").loads(report.to_json())
    assert data["ok"] is False
    assert data["counts"]["active"] == 1
    (finding,) = data["findings"]
    assert finding["code"] == "BLOCK001"
    assert finding["path"] == "mod.py"


# ---------------------------------------------------------------------------
# meta: the repository itself lints clean
# ---------------------------------------------------------------------------


def test_repo_lints_clean():
    report = run_lint(REPO_ROOT)
    assert not report.errors, report.errors
    assert report.active == [], "\n".join(f.render() for f in report.active)
    assert report.unused_suppressions == [], [
        s.describe() for s in report.unused_suppressions
    ]
    # The baseline is doing real work: the intentional cases are
    # suppressed with justifications, not invisible.
    assert len(report.suppressed) >= 10
    assert all(f.suppressed_by for f in report.suppressed)


# ---------------------------------------------------------------------------
# event-loop (LOOP001/LOOP002)
# ---------------------------------------------------------------------------


LOOP_BAD = """
    import time

    def loop():  # lint: event-loop
        tick()

    def tick():
        time.sleep(0.1)
"""

LOOP_GOOD = """
    import time

    def loop():  # lint: event-loop
        schedule()
        pool.submit(flush)

    def schedule():  # holds-executor: body runs on the pool in production
        time.sleep(0.1)

    def flush():
        time.sleep(0.1)
"""


def test_loop001_transitive_blocking_from_entry(tmp_path):
    report = lint_snippet(tmp_path, LOOP_BAD, "event-loop")
    assert codes(report) == ["LOOP001"]
    (finding,) = report.active
    assert finding.symbol == "tick"
    assert "loop -> tick" in finding.message


def test_loop001_quiet_with_escape_hatches(tmp_path):
    # holds-executor severs reachability; a callable passed as an
    # argument (pool.submit(flush)) never creates a call edge at all.
    report = lint_snippet(tmp_path, LOOP_GOOD, "event-loop")
    assert report.active == [], [f.render() for f in report.active]


def test_loop001_async_def_is_an_entry(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        async def handler():
            time.sleep(0.1)
        """,
        "event-loop",
    )
    assert codes(report) == ["LOOP001"]


LOOP_CONVOY_BAD = """
    import threading
    import time

    class Server:
        def __init__(self):
            self._lock = threading.Lock()

        def loop(self):  # lint: event-loop
            with self._lock:
                self.pending = 0

        def writer(self):
            with self._lock:
                time.sleep(0.5)
"""


def test_loop002_convoy_via_shared_lock(tmp_path):
    report = lint_snippet(tmp_path, LOOP_CONVOY_BAD, "event-loop")
    assert codes(report) == ["LOOP002"]
    (finding,) = report.active
    assert finding.symbol == "Server.loop"
    assert "writer" in finding.message


def test_loop002_quiet_when_holder_does_not_block(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        class Server:
            def __init__(self):
                self._lock = threading.Lock()

            def loop(self):  # lint: event-loop
                with self._lock:
                    self.pending = 0

            def writer(self):
                with self._lock:
                    self.pending = 1
        """,
        "event-loop",
    )
    assert report.active == [], [f.render() for f in report.active]


# ---------------------------------------------------------------------------
# fork-safety (FORK001-FORK004)
# ---------------------------------------------------------------------------


def test_fork001_fork_under_held_lock(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os
        import threading

        _lock = threading.Lock()

        def respawn():
            with _lock:
                os.fork()
        """,
        "fork-safety",
    )
    assert codes(report) == ["FORK001"]


def test_fork001_quiet_when_fork_outside_lock(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os
        import threading

        _lock = threading.Lock()

        def respawn():
            with _lock:
                pending = True
            if pending:
                os.fork()
        """,
        "fork-safety",
    )
    assert report.active == [], [f.render() for f in report.active]


def test_fork002_threads_and_fork_in_same_scope(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading
        from multiprocessing import Process

        class Node:
            def start(self):
                self.t = threading.Thread(target=self.pump)
                self.t.start()
                self.p = Process(target=self.child)
                self.p.start()

            def pump(self):
                pass

            def child(self):
                pass
        """,
        "fork-safety",
    )
    assert "FORK002" in codes(report)


def test_fork003_module_lock_shared_with_child(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading
        from multiprocessing import Process

        _registry_lock = threading.Lock()

        def parent_side():
            with _registry_lock:
                pass

        def child_main():
            with _registry_lock:
                pass

        def spawn():
            Process(target=child_main).start()
        """,
        "fork-safety",
    )
    assert "FORK003" in codes(report)
    finding = next(f for f in report.active if f.code == "FORK003")
    assert finding.symbol == "child_main"


def test_fork004_child_keeps_inherited_sockets(tmp_path):
    bad = """
        import socket
        from multiprocessing import Process

        def listen():
            s = socket.socket()
            s.listen(1)
            return s

        def child_main():
            pass

        def spawn():
            Process(target=child_main).start()
    """
    report = lint_snippet(tmp_path, bad, "fork-safety")
    assert "FORK004" in codes(report)

    good = bad.replace(
        "def child_main():\n            pass",
        "def child_main():\n            cleanup()",
    ) + """
        def cleanup():
            for s in inherited():
                s.close()
    """
    report = lint_snippet(tmp_path, good, "fork-safety")
    assert report.active == [], [f.render() for f in report.active]


# ---------------------------------------------------------------------------
# resource-lifetime (RES001-RES003)
# ---------------------------------------------------------------------------


def test_res001_never_closed(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import socket

        def probe(address):
            s = socket.socket()
            s.connect(address)
        """,
        "resource-lifetime",
    )
    assert codes(report) == ["RES001"]


def test_res001_quiet_with_statement(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import socket

        def probe(address):
            with socket.socket() as s:
                s.connect(address)
        """,
        "resource-lifetime",
    )
    assert report.active == [], [f.render() for f in report.active]


def test_res002_exception_escapes_before_close(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def dump(path, data):
            f = open(path, "wb")
            f.write(data)
            f.close()
        """,
        "resource-lifetime",
    )
    assert codes(report) == ["RES002"]
    (finding,) = report.active
    assert "write" in finding.message


def test_res002_quiet_with_try_finally(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def dump(path, data):
            f = open(path, "wb")
            try:
                f.write(data)
            finally:
                f.close()
        """,
        "resource-lifetime",
    )
    assert report.active == [], [f.render() for f in report.active]


def test_res003_temp_file_left_behind_on_error(tmp_path):
    bad = """
        import os

        def commit(path, data):
            tmp = path + ".tmp"
            try:
                with open(tmp, "wb") as f:
                    f.write(data)
                os.replace(tmp, path)
            except OSError as exc:
                raise RuntimeError("commit failed") from exc
    """
    report = lint_snippet(tmp_path, bad, "resource-lifetime")
    assert codes(report) == ["RES003"]

    good = bad.replace(
        'raise RuntimeError("commit failed") from exc',
        'os.unlink(tmp)\n                raise RuntimeError("commit failed") from exc',
    )
    report = lint_snippet(tmp_path, good, "resource-lifetime")
    assert report.active == [], [f.render() for f in report.active]


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------


def test_timings_per_checker_in_report(tmp_path):
    import json

    report = lint_snippet(tmp_path, BLOCK_SNIPPET)
    data = json.loads(report.to_json())
    from repro.analysis import CHECKERS

    assert set(data["timings"]) == set(CHECKERS)
    assert all(t >= 0 for t in data["timings"].values())
    assert data["total_seconds"] >= 0


# ---------------------------------------------------------------------------
# The CLI gate: `repro lint` exit codes, as CI runs it
# ---------------------------------------------------------------------------


def _lint_tree(tmp_path, source, toml='[options]\nroots = ["."]\n'):
    (tmp_path / ".zhtlint.toml").write_text(toml, encoding="utf-8")
    (tmp_path / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    from repro.cli import main

    return main(["lint", "--root", str(tmp_path), "--max-seconds", "30"])


def test_cli_lint_exits_0_on_a_clean_tree(tmp_path, capsys):
    assert _lint_tree(tmp_path, "def f(x):\n    return x + 1\n") == 0
    assert "lint: OK — 0 finding(s), 0 suppressed" in capsys.readouterr().out


def test_cli_lint_exits_1_and_prints_an_unsuppressed_finding(tmp_path, capsys):
    assert _lint_tree(tmp_path, BLOCK_SNIPPET) == 1
    captured = capsys.readouterr()
    assert "mod.py:" in captured.out and "BLOCK001" in captured.out
    assert "lint: FAIL — 1 finding(s)" in captured.err


def test_cli_lint_exits_2_on_a_suppression_without_a_reason(tmp_path, capsys):
    toml = '[options]\nroots = ["."]\n\n[[suppress]]\ncode = "BLOCK001"\npath = "mod.py"\n'
    assert _lint_tree(tmp_path, BLOCK_SNIPPET, toml) == 2
    assert "has no reason" in capsys.readouterr().err
