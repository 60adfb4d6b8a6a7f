"""Resource-lifetime checker (**RES001**–**RES003**): must-close analysis.

A ZHT node is a long-lived server: a socket or file handle leaked once
per reconnect/checkpoint is a fd-exhaustion outage, not a nuisance.
This checker tracks **fresh resources** — ``open()``, ``socket()``,
``create_connection()``, tempfiles, and any project helper that
*returns* one (computed as an interprocedural summary over the shared
call graph, so ``sock = self._tcp_listener(port)`` is a creation site
in the caller) — from creation to release:

* **RES001** — a resource bound to a local that is never closed and
  never handed off (returned, stored on an object/container, passed to
  a call, entered as a context manager, yielded).  Nothing can ever
  close it.
* **RES002** — a resource with a close/hand-off, but a call that can
  raise sits between creation and release with no ``try/finally`` (or
  except-handler) closing it: the exception path leaks the handle.
  The classic shape is ``sock = create_connection(...)`` followed by a
  ``setsockopt`` inside a ``try`` whose ``except OSError: return None``
  swallows the error without closing.
* **RES003** — a temp file written and promoted via
  ``os.replace``/``os.rename`` where an ``except`` handler re-raises or
  returns without unlinking it: every failed checkpoint/GC leaves a
  ``*.tmp`` corpse on disk.

Ownership transfer deliberately ends tracking (precision over recall):
a resource stored on ``self`` is the object's lifetime problem, already
covered by close()/stop() discipline, and a resource passed to a call
is presumed adopted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .astutil import _called_name
from .engine import Finding, FunctionLockFacts, Project, register


_CLOSE_METHODS = frozenset({"close", "cleanup"})
_TEMP_SUFFIXES = (".tmp", ".gc", ".part", ".new")
_RELEASE_FUNCS = frozenset({"replace", "rename", "remove", "unlink", "move"})


def _resource_ctor(call: ast.Call) -> str | None:
    """Kind when *call* directly creates a closeable resource."""
    chain = _called_name(call)
    if not chain:
        return None
    last = chain[-1]
    if last == "open" and (len(chain) == 1 or chain[-2] in ("io", "gzip")):
        return "file handle"
    if last == "socket" and (len(chain) == 1 or chain[-2] == "socket"):
        return "socket"
    if last == "create_connection":
        return "socket"
    if last in ("NamedTemporaryFile", "TemporaryFile"):
        return "temp file handle"
    if last == "TemporaryDirectory":
        return "temp dir"
    return None


def returns_resource_summary(project: Project) -> dict[str, str]:
    """qualname -> resource kind, for every function that returns a
    fresh resource it created (directly or via another such helper)."""
    all_facts = project.lock_facts()
    known: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for name, facts in all_facts.items():
            if name in known:
                continue
            kind = _direct_return_kind(facts, known)
            if kind is not None:
                known[name] = kind
                changed = True
    return known


def _call_kind(
    call: ast.Call, facts: FunctionLockFacts, known: dict[str, str]
) -> str | None:
    kind = _resource_ctor(call)
    if kind is not None:
        return kind
    for callee in facts.resolver.resolve_call(call):
        kind = known.get(callee.qualname)
        if kind is not None:
            return kind
    return None


def _direct_return_kind(
    facts: FunctionLockFacts, known: dict[str, str]
) -> str | None:
    assigned: dict[str, str] = {}
    for stmt in ast.walk(facts.fn.node):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            kind = _call_kind(stmt.value, facts, known)
            if kind is not None:
                assigned.setdefault(stmt.targets[0].id, kind)
    for stmt in ast.walk(facts.fn.node):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if isinstance(stmt.value, ast.Call):
                kind = _call_kind(stmt.value, facts, known)
                if kind is not None:
                    return kind
            if (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in assigned
            ):
                return assigned[stmt.value.id]
    return None


def _contains_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _is_close_call(node: ast.Call, name: str) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _CLOSE_METHODS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    )


@dataclass
class _Tracked:
    name: str
    kind: str
    line: int
    value: ast.Call  #: the creating call


def _body_range(stmts: list[ast.stmt]) -> tuple[int, int]:
    return stmts[0].lineno, stmts[-1].end_lineno or stmts[-1].lineno


@register("resource-lifetime")
def check(project: Project) -> list[Finding]:
    known = returns_resource_summary(project)
    findings: list[Finding] = []
    for name, facts in sorted(project.lock_facts().items()):
        findings.extend(_check_handles(facts, known))
        findings.extend(_check_temp_paths(facts))
    return findings


def _check_handles(
    facts: FunctionLockFacts, known: dict[str, str]
) -> list[Finding]:
    fn = facts.fn
    tracked: list[_Tracked] = []
    seen_names: set[str] = set()
    for stmt in ast.walk(fn.node):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            target = stmt.targets[0].id
            if target in seen_names:
                continue
            kind = _call_kind(stmt.value, facts, known)
            if kind is not None:
                seen_names.add(target)
                tracked.append(
                    _Tracked(
                        name=target,
                        kind=kind,
                        line=stmt.lineno,
                        value=stmt.value,
                    )
                )

    if not tracked:
        return []

    tries = [t for t in ast.walk(fn.node) if isinstance(t, ast.Try)]
    calls = [
        node for node in ast.walk(fn.node) if isinstance(node, ast.Call)
    ]

    findings: list[Finding] = []
    for res in tracked:
        close_lines: list[int] = []
        transfer_lines: list[int] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                if _is_close_call(node, res.name):
                    close_lines.append(node.lineno)
                    continue
                if node is res.value:
                    continue
                # The name escaping as an argument is a hand-off; the
                # name as the *receiver* (sock.bind(...)) is a use.
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    if _contains_name(arg, res.name):
                        transfer_lines.append(node.lineno)
                        break
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _contains_name(
                    node.value, res.name
                ):
                    transfer_lines.append(node.lineno)
            elif isinstance(node, ast.withitem):
                if _contains_name(node.context_expr, res.name):
                    transfer_lines.append(node.context_expr.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if (
                    value is not None
                    and value is not res.value
                    and _contains_name(value, res.name)
                ):
                    transfer_lines.append(node.lineno)

        if not close_lines and not transfer_lines:
            findings.append(
                Finding(
                    checker="resource-lifetime",
                    code="RES001",
                    path=fn.module.relpath,
                    line=res.line,
                    symbol=fn.qualname,
                    message=(
                        f"{res.kind} {res.name!r} is never closed or "
                        "handed off on any path"
                    ),
                )
            )
            continue

        release = min(close_lines + transfer_lines)

        # Regions where an exception cannot leak the resource: the body
        # of any try whose finally (or every except handler) closes it.
        safe_regions: list[tuple[int, int]] = []
        for t in tries:
            closes_in_final = any(
                isinstance(node, ast.Call) and _is_close_call(node, res.name)
                for stmt in t.finalbody
                for node in ast.walk(stmt)
            )
            closes_in_handlers = bool(t.handlers) and all(
                any(
                    isinstance(node, ast.Call)
                    and _is_close_call(node, res.name)
                    for stmt in handler.body
                    for node in ast.walk(stmt)
                )
                for handler in t.handlers
            )
            if closes_in_final or closes_in_handlers:
                safe_regions.append(_body_range(t.body))

        def protected(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in safe_regions)

        exposed = [
            node
            for node in calls
            if res.line < node.lineno < release
            and node is not res.value
            and not _is_close_call(node, res.name)
            and not protected(node.lineno)
        ]
        if not exposed:
            continue
        first = min(exposed, key=lambda node: node.lineno)
        chain = _called_name(first) or ["<call>"]
        findings.append(
            Finding(
                checker="resource-lifetime",
                code="RES002",
                path=fn.module.relpath,
                line=res.line,
                symbol=fn.qualname,
                message=(
                    f"{res.kind} {res.name!r} leaks if "
                    f"{'.'.join(chain)}() at line {first.lineno} raises "
                    "before the close/hand-off at line "
                    f"{release} — close it in a finally or an except"
                ),
            )
        )
    return findings


def _check_temp_paths(facts: FunctionLockFacts) -> list[Finding]:
    fn = facts.fn
    tmp_names: set[str] = set()
    for stmt in ast.walk(fn.node):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _is_temp_path_expr(stmt.value)
        ):
            tmp_names.add(stmt.targets[0].id)
    if not tmp_names:
        return []

    def _writes(name: str) -> list[int]:
        lines = []
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call) and _called_name(node)):
                continue
            chain = _called_name(node)
            if chain[-1] != "open" or not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Name) and first.id == name):
                continue
            mode = None
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                mode = node.args[1].value
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = kw.value.value
            if isinstance(mode, str) and any(c in mode for c in "wxa"):
                lines.append(node.lineno)
        return lines

    def _releases(stmts: list[ast.stmt], name: str) -> bool:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                chain = _called_name(node)
                if not chain or chain[-1] not in _RELEASE_FUNCS:
                    continue
                if any(_contains_name(arg, name) for arg in node.args):
                    return True
        return False

    findings: list[Finding] = []
    reported: set[tuple[str, int]] = set()
    for name in sorted(tmp_names):
        write_lines = _writes(name)
        if not write_lines:
            continue
        for t in (n for n in ast.walk(fn.node) if isinstance(n, ast.Try)):
            lo, hi = _body_range(t.body)
            if not any(lo <= line <= hi for line in write_lines):
                continue
            if _releases(t.finalbody, name):
                continue
            for handler in t.handlers:
                escapes = any(
                    isinstance(node, (ast.Raise, ast.Return))
                    for stmt in handler.body
                    for node in ast.walk(stmt)
                )
                if not escapes or _releases(handler.body, name):
                    continue
                key = (name, handler.lineno)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    Finding(
                        checker="resource-lifetime",
                        code="RES003",
                        path=fn.module.relpath,
                        line=handler.lineno,
                        symbol=fn.qualname,
                        message=(
                            f"error path leaves temp file {name!r} on "
                            "disk — remove it before raising/returning"
                        ),
                    )
                )
    return findings


def _is_temp_path_expr(expr: ast.expr | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        right = expr.right
        return (
            isinstance(right, ast.Constant)
            and isinstance(right.value, str)
            and right.value.endswith(_TEMP_SUFFIXES)
        )
    if isinstance(expr, ast.JoinedStr) and expr.values:
        last = expr.values[-1]
        return (
            isinstance(last, ast.Constant)
            and isinstance(last.value, str)
            and last.value.endswith(_TEMP_SUFFIXES)
        )
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value.endswith(_TEMP_SUFFIXES)
    return False
