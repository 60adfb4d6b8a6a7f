"""Fork-safety checker (**FORK001**–**FORK004**).

``ShardedNodeServer`` (PR 8) forks one worker process per shard.  A
``fork()`` duplicates the parent wholesale: every held lock stays held
in the child forever (its owner thread does not exist there), every
open fd is inherited, and none of the parent's other threads come
along.  PR 8 fixed one inherited-listener bug by hand; this checker
closes the class.

* **FORK001** — a process spawned (``os.fork``, ``multiprocessing``
  ``Process(...)``) while a lock is held, directly or through a
  resolvable call chain.  If any other thread is between acquire and
  release at fork time, the child's copy of the lock is locked forever.
* **FORK002** — a class that both starts threads and forks processes:
  a fork while those threads run duplicates their locks and in-flight
  state mid-operation (respawn paths are the classic offender).
* **FORK003** — a fork child entry (the ``target=`` of a ``Process``)
  that acquires a *module-level* lock also used by parent code: the
  child inherits the parent's lock object, so a parent thread holding
  it at fork time deadlocks the child at first acquire.
* **FORK004** — a fork in a module that owns sockets, whose child entry
  never closes *any* inherited fd: the child keeps every parent
  listener alive (ports never close, peers hang on half-open
  connections).  A child entry that closes foreign sockets at startup
  — the PR 8 fix — satisfies the check.

Spawn sites are the ``Process(...)`` construction (the ``start()`` that
actually forks is normally adjacent); ``os.fork``/``os.forkpty`` are
matched directly.
"""

from __future__ import annotations

import ast

from .astutil import _called_name
from .engine import Finding, FunctionLockFacts, Project, register


def _spawn_desc(call: ast.Call) -> str | None:
    chain = _called_name(call)
    if not chain:
        return None
    last = chain[-1]
    if last in ("fork", "forkpty") and len(chain) >= 2 and chain[-2] == "os":
        return f"os.{last}()"
    if last == "Process":
        return "Process(...)"
    return None


def _is_thread_ctor(call: ast.Call) -> bool:
    chain = _called_name(call)
    return bool(chain) and chain[-1] == "Thread"


def _is_socket_ctor(call: ast.Call) -> bool:
    chain = _called_name(call)
    if not chain:
        return False
    last = chain[-1]
    if last == "socket" and (len(chain) == 1 or chain[-2] == "socket"):
        return True
    return last in ("create_connection", "socketpair")


def _held_str(held) -> str:
    return ", ".join(str(lock) for lock in held)


def _child_entries(
    project: Project, facts: FunctionLockFacts, call: ast.Call
) -> list:
    """FunctionInfo candidates for the ``target=`` of a Process call."""
    for kw in call.keywords:
        if kw.arg != "target":
            continue
        target = kw.value
        if isinstance(target, ast.Name):
            fn = project.index.module_functions.get(target.id)
            return [fn] if fn is not None else []
        if isinstance(target, ast.Attribute):
            entries = []
            for owner in facts.resolver.resolve(target.value):
                method = owner.methods.get(target.attr)
                if method is not None:
                    entries.append(method)
            return entries
    return []


@register("fork-safety")
def check(project: Project) -> list[Finding]:
    all_facts = project.lock_facts()
    graph = project.call_graph()
    findings: list[Finding] = []

    # Seed: functions that spawn directly.
    spawn_seeds: dict[str, str] = {}
    for name, facts in all_facts.items():
        for call, _held in facts.calls:
            desc = _spawn_desc(call)
            if desc is not None:
                spawn_seeds.setdefault(name, desc)
                break
    spawns = graph.propagate(spawn_seeds)

    # FORK001: spawn while holding a lock (direct or via a call chain).
    for name, facts in sorted(all_facts.items()):
        fn = facts.fn
        if fn.single_threaded:
            continue
        for call, held in facts.calls:
            if not held:
                continue
            desc = _spawn_desc(call)
            if desc is not None:
                findings.append(
                    Finding(
                        checker="fork-safety",
                        code="FORK001",
                        path=fn.module.relpath,
                        line=call.lineno,
                        symbol=fn.qualname,
                        message=(
                            f"{desc} while holding {_held_str(held)} — "
                            "the child inherits the lock in its held "
                            "state if any other thread owns it at fork"
                        ),
                    )
                )
                continue
            for callee in facts.resolver.resolve_call(call):
                inner = spawns.get(callee.qualname)
                if inner is not None:
                    findings.append(
                        Finding(
                            checker="fork-safety",
                            code="FORK001",
                            path=fn.module.relpath,
                            line=call.lineno,
                            symbol=fn.qualname,
                            message=(
                                f"call to {callee.qualname} may spawn a "
                                f"process ({inner}) while holding "
                                f"{_held_str(held)}"
                            ),
                        )
                    )
                    break

    # FORK002: same class starts threads and forks processes.
    scope_threads: dict[str, tuple[str, int]] = {}
    scope_spawns: dict[str, list[tuple[FunctionLockFacts, ast.Call, str]]] = {}
    for name, facts in all_facts.items():
        scope = (
            facts.fn.cls.name
            if facts.fn.cls is not None
            else f"<{facts.fn.module.relpath}>"
        )
        for call, _held in facts.calls:
            if _is_thread_ctor(call):
                scope_threads.setdefault(
                    scope, (facts.fn.module.relpath, call.lineno)
                )
            desc = _spawn_desc(call)
            if desc is not None:
                scope_spawns.setdefault(scope, []).append(
                    (facts, call, desc)
                )
    for scope in sorted(scope_spawns):
        thread_site = scope_threads.get(scope)
        if thread_site is None:
            continue
        facts, call, desc = scope_spawns[scope][0]
        findings.append(
            Finding(
                checker="fork-safety",
                code="FORK002",
                path=facts.fn.module.relpath,
                line=call.lineno,
                symbol=facts.fn.qualname,
                message=(
                    f"{scope} forks processes ({desc}) and also starts "
                    f"threads (Thread at {thread_site[0]}:{thread_site[1]})"
                    " — a fork while those threads run duplicates their "
                    "locks and in-flight state"
                ),
            )
        )

    # FORK003 / FORK004 need the resolved child entry per spawn site.
    closes = graph.propagate_sets(
        {
            name: {"close"}
            for name, facts in all_facts.items()
            if any(
                (chain := _called_name(call)) and chain[-1] == "close"
                for call, _held in facts.calls
            )
        }
    )
    socket_modules = {
        facts.fn.module.relpath
        for facts in all_facts.values()
        if any(_is_socket_ctor(call) for call, _held in facts.calls)
    }
    reported3: set[tuple[str, str]] = set()
    reported4: set[str] = set()
    for name, facts in sorted(all_facts.items()):
        for call, _held in facts.calls:
            chain = _called_name(call)
            if not chain or chain[-1] != "Process":
                continue
            for entry in _child_entries(project, facts, call):
                child_reach = graph.reachable_from([entry.qualname])
                # FORK003: module-level locks acquired in the child.
                for child_name in child_reach:
                    child_facts = all_facts.get(child_name)
                    if child_facts is None:
                        continue
                    module_owner = f"<{child_facts.fn.module.relpath}>"
                    for lock, _h, node in child_facts.acquisitions:
                        if lock.owner != module_owner:
                            continue
                        shared = any(
                            lock in {a for a, _h2, _n in other.acquisitions}
                            for other_name, other in all_facts.items()
                            if other_name not in child_reach
                        )
                        if not shared:
                            continue
                        key = (entry.qualname, str(lock))
                        if key in reported3:
                            continue
                        reported3.add(key)
                        findings.append(
                            Finding(
                                checker="fork-safety",
                                code="FORK003",
                                path=child_facts.fn.module.relpath,
                                line=node.lineno,
                                symbol=child_facts.fn.qualname,
                                message=(
                                    f"fork child entry {entry.qualname} "
                                    f"acquires module-level lock {lock}, "
                                    "which parent code also uses — a "
                                    "parent thread holding it at fork "
                                    "deadlocks the child; reinitialize "
                                    "it post-fork"
                                ),
                            )
                        )
                # FORK004: socket-owning module, child closes nothing.
                if facts.fn.module.relpath in socket_modules:
                    if not closes.get(entry.qualname):
                        if entry.qualname not in reported4:
                            reported4.add(entry.qualname)
                            findings.append(
                                Finding(
                                    checker="fork-safety",
                                    code="FORK004",
                                    path=facts.fn.module.relpath,
                                    line=call.lineno,
                                    symbol=facts.fn.qualname,
                                    message=(
                                        "forked child entry "
                                        f"{entry.qualname} inherits the "
                                        "parent's open sockets but never "
                                        "closes any fd — close foreign "
                                        "listeners at child startup"
                                    ),
                                )
                            )
    return findings
