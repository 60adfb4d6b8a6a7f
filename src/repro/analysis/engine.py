"""Lint engine: interprocedural core, suppression policy, reports.

The engine owns everything the checkers share, computed **once** per
lint run (DESIGN.md §17):

* file walking + a per-file AST cache (:class:`Project` — every source
  file is parsed exactly once, all checkers reuse the same
  :class:`~.astutil.ModuleInfo` objects);
* per-function lock/call facts (:func:`collect_lock_facts`, cached on
  the Project) — one body walk records call sites and lock
  acquisitions with the held-lock set at each point;
* the project-wide :class:`CallGraph` — call edges resolved through
  class hierarchies and ``self.``-attribute dispatch, with source
  provenance on every edge — plus the generic fixpoints every
  interprocedural checker needs: :meth:`CallGraph.propagate` (taint a
  summary up the graph with a human-readable "via" chain),
  :meth:`CallGraph.propagate_sets` (set union, e.g. the functions that
  transitively close what a fork child inherited), and
  :meth:`CallGraph.reachable_from` (forward reachability with witness
  paths, e.g. "what runs on the event loop");
* the blocking-call vocabulary (:func:`blocking_call_description`)
  shared by the BLOCK and LOOP checkers;
* the reporting pipeline: suppressions, JSON output, per-checker
  timings.

Suppression policy (DESIGN.md §11): every finding on the tree is either
**fixed** or **suppressed with a one-line justification**.  Two ways to
suppress, both requiring a reason:

* inline, at the offending line::

      os.fsync(fd)  # zht-lint: ignore[BLOCK001] group commit under the lock

* in the committed file ``.zhtlint.toml``::

      [[suppress]]
      code = "BLOCK001"
      path = "src/repro/novoht/novoht.py"
      symbol = "NoVoHT.*"            # fnmatch over the enclosing scope
      reason = "WAL fsync must stay inside the store lock (group commit)"

``.zhtlint.toml`` may also carry ``[options] roots = [...]``.

A suppression without a reason is a configuration error (exit 2), and
suppressions that matched nothing, inline or in the file, are reported
on a full run so neither can silently rot.  Every unsuppressed finding
fails the run.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
import time
import tomllib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .astutil import (
    FunctionInfo,
    LockId,
    ModuleInfo,
    ProjectIndex,
    TypeResolver,
    _called_name,
    iter_functions,
    parse_module,
)

#: Default directories (relative to the repo root) the engine scans.
DEFAULT_ROOTS = ("src/repro",)

_INLINE_RE = re.compile(r"zht-lint:\s*ignore\[([A-Z0-9,\s]+)\]\s*(.*)")


# ---------------------------------------------------------------------------
# Blocking-call vocabulary (shared by blocking-under-lock and event-loop)
# ---------------------------------------------------------------------------

#: Methods that are blocking wherever they appear.
SOCKET_METHODS = frozenset(
    {
        "sendall",
        "sendto",
        "recv",
        "recvfrom",
        "recv_into",
        "accept",
        "connect",
        "create_connection",
    }
)

_SUBPROCESS_CALLS = frozenset({"run", "call", "check_call", "check_output"})


def blocking_call_description(call: ast.Call) -> str | None:
    """A description when *call* is intrinsically blocking, else None.

    ``.wait()`` is handled separately (held-condition exemption).

    Deliberately name-based on *distinctive* methods only: bare ``send``
    / ``get`` / ``put`` / ``join`` are not matched (generator
    ``.send()``, ``dict.get()``, ``str.join()`` would drown the signal);
    socket traffic in this tree goes through
    ``sendall``/``sendto``/``recv``/``recvfrom``.

    File I/O is covered by ``.flush()``, ``os.replace``/``os.rename``
    and ``shutil.copyfileobj`` — the moves where buffered writes hit the
    OS.  Bare ``.write()`` is deliberately not matched (too generic to
    stay name-based), but any full-file writer worth flagging flushes or
    renames before it matters, and the transitive pass then carries the
    taint to whoever calls it under a lock (``checkpoint`` →
    ``write_checkpoint`` → ``f.flush()``).
    """
    chain = _called_name(call)
    if not chain:
        return None
    last = chain[-1]
    if last in SOCKET_METHODS:
        return f"socket .{last}()"
    if last == "fsync" and (len(chain) == 1 or chain[-2] == "os"):
        return "os.fsync()"
    if last == "sleep" and len(chain) >= 2 and chain[-2] == "time":
        return "time.sleep()"
    if last == "flush":
        return "file .flush()"
    if last in ("replace", "rename") and len(chain) >= 2 and chain[-2] == "os":
        return f"os.{last}()"
    if last == "copyfileobj" and len(chain) >= 2 and chain[-2] == "shutil":
        return "shutil.copyfileobj()"
    if last in _SUBPROCESS_CALLS and len(chain) >= 2 and chain[-2] == "subprocess":
        return f"subprocess.{last}()"
    if last == "communicate":
        return ".communicate()"
    return None


def is_wait_call(call: ast.Call) -> bool:
    chain = _called_name(call)
    return bool(chain) and chain[-1] == "wait"


# ---------------------------------------------------------------------------
# Per-function facts (one body walk, cached project-wide)
# ---------------------------------------------------------------------------


@dataclass
class FunctionLockFacts:
    """What one function does with locks and calls, from a single walk."""

    fn: FunctionInfo
    resolver: TypeResolver
    #: every call expression with the locks held at the call site.
    calls: list[tuple[ast.Call, tuple[LockId, ...]]] = field(
        default_factory=list
    )
    #: lock acquisitions: (lock, held-before, with-item expression).
    acquisitions: list[tuple[LockId, tuple[LockId, ...], ast.expr]] = field(
        default_factory=list
    )


def collect_lock_facts(
    index: ProjectIndex, fn: FunctionInfo
) -> FunctionLockFacts:
    """Walk *fn*'s body tracking ``with <lock>:`` scopes.

    Nested function/class definitions are skipped: their bodies run
    later, under whatever locks their eventual caller holds.
    """
    resolver = TypeResolver(index, fn)
    facts = FunctionLockFacts(fn=fn, resolver=resolver)
    base: list[LockId] = []
    if fn.cls is not None:
        for name in fn.holds_locks:
            lock = fn.cls.lock_id(name)
            if lock is not None:
                base.append(lock)

    def walk_expr(expr: ast.AST, held: tuple[LockId, ...]) -> None:
        if isinstance(expr, ast.Lambda):
            return  # runs later, under the caller's locks
        if isinstance(expr, ast.Call):
            facts.calls.append((expr, held))
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                walk_expr(child, held)
            else:  # keyword / comprehension / slice wrappers
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        walk_expr(sub, held)

    def walk_stmt(stmt: ast.stmt, held: tuple[LockId, ...]) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in stmt.items:
                walk_expr(item.context_expr, tuple(inner))
                lock = resolver.lock_identity(item.context_expr)
                if lock is not None:
                    facts.acquisitions.append(
                        (lock, tuple(inner), item.context_expr)
                    )
                    inner.append(lock)
            walk_body(stmt.body, tuple(inner))
            return
        for _name, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for entry in value:
                    if isinstance(entry, ast.stmt):
                        walk_stmt(entry, held)
                    elif isinstance(entry, ast.expr):
                        walk_expr(entry, held)
                    elif isinstance(entry, ast.excepthandler):
                        walk_body(entry.body, held)
            elif isinstance(value, ast.expr):
                walk_expr(value, held)

    def walk_body(stmts: list[ast.stmt], held: tuple[LockId, ...]) -> None:
        for stmt in stmts:
            walk_stmt(stmt, held)

    walk_body(fn.node.body, tuple(base))
    return facts


# ---------------------------------------------------------------------------
# Call graph with provenance + generic interprocedural fixpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with where it happens."""

    caller: str  #: qualname
    callee: str  #: qualname
    path: str  #: repo-relative path of the call site
    line: int


class CallGraph:
    """Project-wide call graph over resolvable calls.

    Edges carry :class:`CallSite` provenance so findings can point at
    the exact call that creates a reachability or taint edge.  The graph
    is deliberately *under*-approximate — unresolvable calls (dynamic
    dispatch through untyped values, callables passed as arguments,
    e.g. ``pool.submit(fn)``) simply have no edge.  That is what makes
    a ``ThreadPoolExecutor.submit`` hand-off a natural boundary for the
    event-loop checker.
    """

    def __init__(self) -> None:
        #: caller qualname -> outgoing call sites (in body order).
        self.edges: dict[str, list[CallSite]] = {}

    @classmethod
    def build(cls, all_facts: dict[str, FunctionLockFacts]) -> "CallGraph":
        graph = cls()
        for name, facts in all_facts.items():
            sites = graph.edges.setdefault(name, [])
            for call, _held in facts.calls:
                for callee in facts.resolver.resolve_call(call):
                    site = CallSite(
                        caller=name,
                        callee=callee.qualname,
                        path=facts.fn.module.relpath,
                        line=call.lineno,
                    )
                    sites.append(site)
        return graph

    def propagate(
        self, seeds: dict[str, str], stop: frozenset[str] = frozenset()
    ) -> dict[str, str]:
        """Taint-summary fixpoint with human-readable "via" chains.

        *seeds* maps functions with a direct property (e.g. "calls
        os.fsync()") to its description.  The result maps every function
        that can reach a seeded one to ``"<desc> via <callee>"`` chains.
        Functions in *stop* neither gain nor forward summaries (escape
        hatches like ``# holds-executor:``).
        """
        summary = {
            name: desc for name, desc in seeds.items() if name not in stop
        }
        changed = True
        while changed:
            changed = False
            for caller, sites in self.edges.items():
                if caller in summary or caller in stop:
                    continue
                for site in sites:
                    inner = summary.get(site.callee)
                    if inner is not None:
                        summary[caller] = f"{inner} via {site.callee}"
                        changed = True
                        break
        return summary

    def propagate_sets(
        self, seeds: dict[str, set], stop: frozenset[str] = frozenset()
    ) -> dict[str, set]:
        """Set-union fixpoint: everything each function may do, through
        resolvable calls (e.g. the set of locks it may acquire)."""
        result: dict[str, set] = {
            name: set(values)
            for name, values in seeds.items()
            if name not in stop
        }
        changed = True
        while changed:
            changed = False
            for caller, sites in self.edges.items():
                if caller in stop:
                    continue
                mine = result.setdefault(caller, set())
                before = len(mine)
                for site in sites:
                    if site.callee in stop:
                        continue
                    mine |= result.get(site.callee, set())
                if len(mine) != before:
                    changed = True
        return result

    def reachable_from(
        self,
        entries: Iterable[str],
        stop: frozenset[str] = frozenset(),
    ) -> dict[str, tuple[str, ...]]:
        """Forward reachability with witness paths.

        Returns ``{qualname: (entry, ..., qualname)}`` for every
        function reachable from *entries* (including the entries
        themselves), following resolvable call edges but never entering
        functions in *stop*.  BFS, so witness paths are shortest.
        """
        paths: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for entry in entries:
            if entry in stop or entry in paths:
                continue
            paths[entry] = (entry,)
            queue.append(entry)
        while queue:
            current = queue.popleft()
            for site in self.edges.get(current, []):
                if site.callee in stop or site.callee in paths:
                    continue
                paths[site.callee] = paths[current] + (site.callee,)
                queue.append(site.callee)
        return paths


def render_witness(path: tuple[str, ...]) -> str:
    """``(a, b, c)`` → ``"a -> b -> c"`` for finding messages."""
    return " -> ".join(path)


# ---------------------------------------------------------------------------
# Findings, suppressions, config
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    """One checker hit."""

    checker: str
    code: str
    path: str  #: repo-relative path
    line: int
    symbol: str  #: enclosing "Class.method" / "function" / ""
    message: str
    suppressed_by: str | None = None  #: reason, when suppressed

    def as_dict(self) -> dict:
        return {
            "checker": self.checker,
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "suppressed_by": self.suppressed_by,
        }

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.code} {self.message}{where}"


@dataclass
class Suppression:
    code: str
    reason: str
    path: str | None = None
    symbol: str | None = None
    line: int | None = None
    used: int = 0

    def matches(self, finding: Finding) -> bool:
        if self.code not in (finding.code, "*"):
            return False
        if self.path is not None and not (
            finding.path == self.path or finding.path.endswith("/" + self.path)
        ):
            return False
        if self.line is not None and finding.line != self.line:
            return False
        if self.symbol is not None and not fnmatch.fnmatch(
            finding.symbol, self.symbol
        ):
            return False
        return True

    def describe(self) -> str:
        scope = self.path or "*"
        if self.symbol:
            scope += f"::{self.symbol}"
        if self.line:
            scope += f":{self.line}"
        return f"{self.code} @ {scope}"


class LintConfigError(Exception):
    """Malformed .zhtlint.toml (missing reasons, unknown keys)."""


@dataclass
class LintConfig:
    roots: list[str] = field(default_factory=lambda: list(DEFAULT_ROOTS))
    suppressions: list[Suppression] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path) -> "LintConfig":
        config = cls()
        path = root / ".zhtlint.toml"
        if not path.exists():
            return config
        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError) as exc:
            raise LintConfigError(f"{path}: {exc}") from exc
        options = data.get("options", {})
        if "roots" in options:
            config.roots = list(options["roots"])
        for raw in data.get("suppress", []):
            reason = str(raw.get("reason", "")).strip()
            code = str(raw.get("code", "")).strip()
            if not code:
                raise LintConfigError(f"{path}: suppression without a code")
            if not reason:
                raise LintConfigError(
                    f"{path}: suppression for {code} has no reason — every "
                    "suppression must carry a one-line justification"
                )
            config.suppressions.append(
                Suppression(
                    code=code,
                    reason=reason,
                    path=raw.get("path"),
                    symbol=raw.get("symbol"),
                    line=raw.get("line"),
                )
            )
        return config


# ---------------------------------------------------------------------------
# Project: parsed once, interprocedural facts cached
# ---------------------------------------------------------------------------


@dataclass
class Project:
    """Everything a checker may need, parsed once.

    The expensive interprocedural structures — per-function lock/call
    facts and the call graph — are computed lazily on first use and
    cached, so all checkers in one ``run_lint`` share a single AST
    parse, a single facts walk, and a single graph build.
    """

    root: Path
    config: LintConfig
    modules: list[ModuleInfo]
    index: ProjectIndex
    _lock_facts: dict[str, FunctionLockFacts] | None = field(
        default=None, repr=False
    )
    _call_graph: CallGraph | None = field(default=None, repr=False)

    @classmethod
    def load(cls, root: Path, config: LintConfig | None = None) -> "Project":
        root = root.resolve()
        config = config or LintConfig.load(root)
        modules: list[ModuleInfo] = []
        for rel in config.roots:
            base = root / rel
            if base.is_file():
                candidates = [base]
            else:
                candidates = sorted(base.rglob("*.py"))
            for path in candidates:
                module = parse_module(path, str(path.relative_to(root)))
                if module is not None:
                    modules.append(module)
        return cls(
            root=root,
            config=config,
            modules=modules,
            index=ProjectIndex.build(modules),
        )

    def lock_facts(self) -> dict[str, FunctionLockFacts]:
        """qualname -> facts for every function, computed once."""
        if self._lock_facts is None:
            self._lock_facts = {
                fn.qualname: collect_lock_facts(self.index, fn)
                for fn in iter_functions(self.index)
            }
        return self._lock_facts

    def call_graph(self) -> CallGraph:
        if self._call_graph is None:
            self._call_graph = CallGraph.build(self.lock_facts())
        return self._call_graph


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    unused_suppressions: list[Suppression] = field(default_factory=list)
    #: checker name -> wall seconds (only checkers that ran).
    timings: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0

    @property
    def active(self) -> list[Finding]:
        """Findings that fail the run: the unsuppressed ones."""
        return [f for f in self.findings if f.suppressed_by is None]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed_by is not None]

    @property
    def ok(self) -> bool:
        return not self.active and not self.errors

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.as_dict() for f in self.findings],
            "errors": self.errors,
            "unused_suppressions": [
                s.describe() for s in self.unused_suppressions
            ],
            "timings": {
                name: round(seconds, 4)
                for name, seconds in sorted(self.timings.items())
            },
            "total_seconds": round(self.total_seconds, 4),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _inline_suppressions(
    modules: list[ModuleInfo],
) -> dict[tuple[str, int], Suppression]:
    """Every ``# zht-lint: ignore[...]`` comment, keyed by (path, line);
    ``code`` holds the comment's comma-separated codes."""
    found: dict[tuple[str, int], Suppression] = {}
    for module in modules:
        for line, comment in module.comments.items():
            match = _INLINE_RE.search(comment)
            if match is not None:
                codes = ",".join(c.strip() for c in match.group(1).split(","))
                found[module.relpath, line] = Suppression(
                    code=codes,
                    reason=match.group(2).strip(),
                    path=module.relpath,
                    line=line,
                )
    return found


def _apply_inline_suppressions(
    finding: Finding, inline: dict[tuple[str, int], Suppression]
) -> None:
    # Same line, or a standalone comment on the line directly above.
    for line in (finding.line, finding.line - 1):
        supp = inline.get((finding.path, line))
        if supp and supp.reason and finding.code in supp.code.split(","):
            supp.used += 1
            finding.suppressed_by = f"inline: {supp.reason}"
            return


def run_lint(
    root: Path | str,
    checkers: list[str] | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Run the checkers over *root*; returns the full report."""
    # The package __init__ imports the checker modules, which register
    # themselves in CHECKERS; guard against direct-module use in tests.
    from . import (  # noqa: F401
        blocking,
        eventloop,
        forksafety,
        protocol_check,
        resourcecheck,
    )

    started = time.perf_counter()
    root = Path(root)
    report = LintReport()
    try:
        project = Project.load(root, config)
    except LintConfigError as exc:
        report.errors.append(str(exc))
        return report

    inline = _inline_suppressions(project.modules)
    selected = checkers or list(CHECKERS)
    for name in selected:
        checker = CHECKERS.get(name)
        if checker is None:
            report.errors.append(f"unknown checker {name!r}")
            continue
        checker_started = time.perf_counter()
        for finding in checker(project):
            _apply_inline_suppressions(finding, inline)
            if finding.suppressed_by is None:
                for supp in project.config.suppressions:
                    if supp.matches(finding):
                        supp.used += 1
                        finding.suppressed_by = supp.reason
                        break
            report.findings.append(finding)
        report.timings[name] = time.perf_counter() - checker_started
    report.findings.sort(key=lambda f: (f.path, f.line, f.code))
    if checkers is None:
        # Staleness is only meaningful when every checker ran — a
        # subset run would flag other checkers' suppressions.
        report.unused_suppressions = [
            s
            for s in [*project.config.suppressions, *inline.values()]
            if not s.used
        ]
    report.total_seconds = time.perf_counter() - started
    return report


#: name -> checker callable ``(Project) -> list[Finding]``.  Populated by
#: the checker modules at import time via :func:`register`.
CHECKERS: dict[str, Callable[[Project], list[Finding]]] = {}


def register(name: str):
    """Register a checker under *name*."""

    def wrap(fn):
        CHECKERS[name] = fn
        return fn

    return wrap
