"""Blocking-under-lock checker (**BLOCK001**).

Flags calls that can block indefinitely — socket I/O, ``os.fsync``,
``time.sleep``, ``.wait()`` on events/conditions — made while a lock is
held, directly or through a resolvable call chain (``NoVoHT.put`` →
``WriteAheadLog.append`` → ``os.fsync``).

The blocking-call vocabulary (:func:`~.engine.blocking_call_description`)
and the transitive "may block, via ..." fixpoint
(:meth:`~.engine.CallGraph.propagate`) live on the shared engine; the
event-loop checker reuses both with a different notion of context
("runs on the loop" instead of "holds a lock").

``cond.wait()`` while *that same condition* is held is the normal
condition-variable idiom and is allowed; waiting on anything else while
holding a lock is flagged.

Intentional cases (the WAL fsync-under-lock group commit) are suppressed
in ``.zhtlint.toml`` with a justification rather than silently skipped.
"""

from __future__ import annotations

import ast

from .engine import (
    Finding,
    Project,
    blocking_call_description,
    is_wait_call,
    register,
)


def _held_str(held) -> str:
    return ", ".join(str(lock) for lock in held)


def blocking_summaries(project: Project) -> dict[str, str]:
    """qualname -> "what blocks, via whom" for every function that can
    block at all (any lock state).  Shared with the event-loop checker."""
    seeds: dict[str, str] = {}
    for name, facts in project.lock_facts().items():
        for call, _held in facts.calls:
            desc = blocking_call_description(call)
            if desc is None and is_wait_call(call):
                desc = ".wait()"
            if desc is not None:
                seeds.setdefault(name, desc)
                break
    return project.call_graph().propagate(seeds)


@register("blocking-under-lock")
def check(project: Project) -> list[Finding]:
    all_facts = project.lock_facts()
    blocks = blocking_summaries(project)

    findings: list[Finding] = []
    for facts in all_facts.values():
        fn = facts.fn
        if fn.single_threaded:
            continue
        for call, held in facts.calls:
            if not held:
                continue
            desc = blocking_call_description(call)
            if desc is not None:
                findings.append(
                    Finding(
                        checker="blocking-under-lock",
                        code="BLOCK001",
                        path=fn.module.relpath,
                        line=call.lineno,
                        symbol=fn.qualname,
                        message=(
                            f"blocking call {desc} while holding "
                            f"{_held_str(held)}"
                        ),
                    )
                )
                continue
            if is_wait_call(call) and isinstance(call.func, ast.Attribute):
                receiver = facts.resolver.lock_identity(call.func.value)
                if receiver is not None and receiver in held:
                    continue  # cond.wait() on the held condition: idiom
                findings.append(
                    Finding(
                        checker="blocking-under-lock",
                        code="BLOCK001",
                        path=fn.module.relpath,
                        line=call.lineno,
                        symbol=fn.qualname,
                        message=(
                            ".wait() on an object other than the held "
                            f"lock while holding {_held_str(held)}"
                        ),
                    )
                )
                continue
            for callee in facts.resolver.resolve_call(call):
                desc = blocks.get(callee.qualname)
                if desc is not None:
                    findings.append(
                        Finding(
                            checker="blocking-under-lock",
                            code="BLOCK001",
                            path=fn.module.relpath,
                            line=call.lineno,
                            symbol=fn.qualname,
                            message=(
                                f"call to {callee.qualname} may block "
                                f"({desc}) while holding {_held_str(held)}"
                            ),
                        )
                    )
                    break
    return findings
