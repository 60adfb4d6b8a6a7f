"""Lock-discipline checker.

* **LOCK001** — read/write of an attribute declared guarded (via a
  ``# guarded-by: <lock>`` annotation on its ``__init__`` assignment or
  the ``[guarded]`` registry) outside a ``with <lock>:`` scope.  A
  ``# holds-lock: <lock>`` annotation on a ``def`` line declares that
  callers hold the lock for the whole body.
* **LOCK002** — potential deadlock: a cycle in the cross-module
  lock-acquisition graph (edge A→B whenever B is acquired — directly or
  through a resolvable call chain — while A is held).
* **LOCK003** — a ``guarded-by`` declaration naming an attribute that is
  not a known lock of the class.
* **LOCK004** — re-acquisition of a non-reentrant ``threading.Lock``
  that is already held (directly nested, or through a call chain).

Lock identity is class-wide: every instance of ``NoVoHT._lock`` is one
node.  That conflation is deliberate — it is what lets the graph span
modules — and is why RLock/Condition self-edges are not reported.

The per-function facts and the call graph live on the shared engine
(:meth:`Project.lock_facts` / :meth:`Project.call_graph`) so the other
interprocedural checkers reuse the same single pass.
"""

from __future__ import annotations

from .astutil import LockId
from .engine import Finding, Project, register


def _held_str(held: tuple[LockId, ...]) -> str:
    return ", ".join(str(lock) for lock in held)


@register("lock-discipline")
def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    index = project.index

    # LOCK003: guarded-by declarations naming unknown locks.
    for cinfo in index.classes.values():
        for attr, guard in sorted(cinfo.guarded.items()):
            if cinfo.lock_id(guard) is None:
                findings.append(
                    Finding(
                        checker="lock-discipline",
                        code="LOCK003",
                        path=cinfo.module.relpath,
                        line=cinfo.node.lineno,
                        symbol=cinfo.name,
                        message=(
                            f"attribute {attr!r} declared guarded-by "
                            f"{guard!r}, which is not a lock of {cinfo.name}"
                        ),
                    )
                )

    all_facts = project.lock_facts()

    # LOCK001: guarded attribute touched without its lock.
    for facts in all_facts.values():
        fn = facts.fn
        if fn.single_threaded or fn.node.name == "__init__":
            continue
        for node, held in facts.accesses:
            for owner in facts.resolver.resolve(node.value):
                guard = owner.guarded.get(node.attr)
                if guard is None:
                    continue
                lock = owner.lock_id(guard)
                if lock is None or lock in held:
                    continue
                findings.append(
                    Finding(
                        checker="lock-discipline",
                        code="LOCK001",
                        path=fn.module.relpath,
                        line=node.lineno,
                        symbol=fn.qualname,
                        message=(
                            f"access to {owner.name}.{node.attr} "
                            f"(guarded by {lock}) without holding it"
                            + (
                                f" (held: {_held_str(held)})"
                                if held
                                else ""
                            )
                        ),
                    )
                )

    # LOCK004 + acquisition-graph edges.
    acquires = project.call_graph().propagate_sets(
        {
            name: {lock for lock, _held, _node in facts.acquisitions}
            for name, facts in all_facts.items()
        }
    )
    # edge (A, B) -> provenance (path, line, symbol); first wins.
    edges: dict[tuple[LockId, LockId], tuple[str, int, str]] = {}
    for facts in all_facts.values():
        fn = facts.fn
        if fn.single_threaded:
            continue
        for lock, held, node in facts.acquisitions:
            if lock in held and lock.kind == "lock":
                findings.append(
                    Finding(
                        checker="lock-discipline",
                        code="LOCK004",
                        path=fn.module.relpath,
                        line=node.lineno,
                        symbol=fn.qualname,
                        message=(
                            f"non-reentrant lock {lock} acquired while "
                            "already held (self-deadlock)"
                        ),
                    )
                )
            for prior in held:
                if prior != lock:
                    edges.setdefault(
                        (prior, lock),
                        (fn.module.relpath, node.lineno, fn.qualname),
                    )
        for call, held in facts.calls:
            if not held:
                continue
            for callee in facts.resolver.resolve_call(call):
                for lock in acquires.get(callee.qualname, set()):
                    if lock in held:
                        if lock.kind == "lock":
                            findings.append(
                                Finding(
                                    checker="lock-discipline",
                                    code="LOCK004",
                                    path=fn.module.relpath,
                                    line=call.lineno,
                                    symbol=fn.qualname,
                                    message=(
                                        f"call to {callee.qualname} may "
                                        f"re-acquire non-reentrant {lock} "
                                        "already held here"
                                    ),
                                )
                            )
                        continue
                    for prior in held:
                        if prior != lock:
                            edges.setdefault(
                                (prior, lock),
                                (
                                    fn.module.relpath,
                                    call.lineno,
                                    fn.qualname,
                                ),
                            )

    findings.extend(_deadlock_cycles(edges))
    return findings


def _deadlock_cycles(
    edges: dict[tuple[LockId, LockId], tuple[str, int, str]],
) -> list[Finding]:
    """LOCK002: strongly connected components of size ≥ 2 in the
    acquisition graph are potential lock-order inversions."""
    graph: dict[LockId, set[LockId]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    # Tarjan's SCC, iterative.
    indexes: dict[LockId, int] = {}
    lowlinks: dict[LockId, int] = {}
    on_stack: set[LockId] = set()
    stack: list[LockId] = []
    sccs: list[list[LockId]] = []
    counter = [0]

    def strongconnect(root: LockId) -> None:
        work = [(root, iter(sorted(graph[root], key=str)))]
        indexes[root] = lowlinks[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in indexes:
                    indexes[succ] = lowlinks[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ], key=str))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indexes[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indexes[node]:
                component: list[LockId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(component)

    for node in sorted(graph, key=str):
        if node not in indexes:
            strongconnect(node)

    findings: list[Finding] = []
    for component in sccs:
        members = sorted(component, key=str)
        involved = sorted(
            (
                (pair, where)
                for pair, where in edges.items()
                if pair[0] in component and pair[1] in component
            ),
            key=lambda item: (item[1][0], item[1][1]),
        )
        detail = "; ".join(
            f"{a} -> {b} at {path}:{line}"
            for (a, b), (path, line, _sym) in involved
        )
        path, line, symbol = involved[0][1]
        findings.append(
            Finding(
                checker="lock-discipline",
                code="LOCK002",
                path=path,
                line=line,
                symbol=symbol,
                message=(
                    "potential deadlock cycle between "
                    + ", ".join(str(m) for m in members)
                    + f" ({detail})"
                ),
            )
        )
    return findings
