"""Event-loop stall checker (**LOOP001**, **LOOP002**).

ZHT's throughput claim rests on the event-driven server: the selector
loop must never block, because every connection multiplexes onto it and
whole ops, replica updates included, run on the loop thread.  This
checker walks the shared call graph forward from every **event-loop
entry point** and flags anything that can stall the loop:

* **LOOP001** — a blocking call (socket I/O, ``os.fsync``,
  ``time.sleep``, file flush/rename, subprocess, ``.wait()``, bare
  ``lock.acquire()``) transitively reachable from an event-loop entry.
  The finding lands on the blocking call site itself, with the witness
  chain from the entry in the message, so the fix (or the justified
  suppression) sits next to the offending call.
* **LOOP002** — a lock acquired on the loop (``with lock:``) that some
  *non-loop* code path holds across a blocking call: the loop convoys
  behind a stalled holder even though the loop-side critical section is
  short.

Entry points are declared, not guessed:

* any function carrying a ``# lint: event-loop`` comment on (or in the
  comment block directly above) its ``def`` line
  (``EventDrivenTCPServer._loop`` is the canonical one — the epoll
  callbacks and the effect-loop stepping are then *found* by
  reachability, not annotated one by one);
* every ``async def`` coroutine, automatically.

The escape hatch is ``# holds-executor: <reason>`` at a ``def`` line:
the body is only ever *scheduled* from loop code (``pool.submit``) and
runs on a worker thread, so reachability stops there.  Callables passed
as arguments (``pool.submit(self._finish, conn, effects, command)``,
the TCP server's hand-off of a forward) never produce a call edge in
the first place, so the usual hand-off idiom needs no annotation at all.
"""

from __future__ import annotations

import ast

from .astutil import LockId, _called_name
from .engine import (
    Finding,
    Project,
    blocking_call_description,
    is_wait_call,
    register,
    render_witness,
)


def _lock_acquire_desc(facts, call: ast.Call) -> str | None:
    """``lock.acquire()`` with no bound — an unbounded lock wait."""
    chain = _called_name(call)
    if not chain or chain[-1] != "acquire":
        return None
    if call.args or call.keywords:
        return None  # acquire(False) / acquire(timeout=...) are bounded
    if not isinstance(call.func, ast.Attribute):
        return None
    lock = facts.resolver.lock_identity(call.func.value)
    if lock is None:
        return None
    return f"{lock}.acquire()"


@register("event-loop")
def check(project: Project) -> list[Finding]:
    all_facts = project.lock_facts()
    graph = project.call_graph()
    entries = sorted(
        name for name, facts in all_facts.items() if facts.fn.event_loop
    )
    stop = frozenset(
        name for name, facts in all_facts.items() if facts.fn.holds_executor
    )
    reach = graph.reachable_from(entries, stop=stop)

    findings: list[Finding] = []

    # LOOP001: blocking call sites in loop-reachable functions.
    for name in sorted(reach):
        facts = all_facts.get(name)
        if facts is None:
            continue
        fn = facts.fn
        witness = render_witness(reach[name])
        for call, _held in facts.calls:
            desc = blocking_call_description(call)
            if desc is None and is_wait_call(call):
                desc = ".wait()"
            if desc is None:
                desc = _lock_acquire_desc(facts, call)
            if desc is None:
                continue
            if facts.resolver.resolve_call(call):
                # The name matched the blocking vocabulary, but the call
                # resolves to a project function (e.g. a connection's
                # non-blocking ``flush()``); its body is walked by
                # reachability, so judge that, not the name.
                continue
            findings.append(
                Finding(
                    checker="event-loop",
                    code="LOOP001",
                    path=fn.module.relpath,
                    line=call.lineno,
                    symbol=fn.qualname,
                    message=(
                        f"blocking call {desc} runs on the event-loop "
                        f"thread (reachable: {witness})"
                    ),
                )
            )

    # LOOP002: loop-acquired locks held across blocking calls elsewhere.
    loop_locks: dict[LockId, tuple] = {}
    for name, path in reach.items():
        facts = all_facts.get(name)
        if facts is None:
            continue
        for lock, _held, node in facts.acquisitions:
            loop_locks.setdefault(lock, (facts.fn, node, path))
    reported: set[tuple[LockId, int]] = set()
    for name, facts in sorted(all_facts.items()):
        if name in reach or facts.fn.single_threaded:
            continue
        for call, held in facts.calls:
            if not held:
                continue
            desc = blocking_call_description(call)
            if desc is None:
                continue
            for lock in held:
                entry = loop_locks.get(lock)
                if entry is None:
                    continue
                loop_fn, node, path = entry
                key = (lock, node.lineno)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    Finding(
                        checker="event-loop",
                        code="LOOP002",
                        path=loop_fn.module.relpath,
                        line=node.lineno,
                        symbol=loop_fn.qualname,
                        message=(
                            f"lock {lock} is acquired on the event loop "
                            f"({render_witness(path)}) but "
                            f"{facts.fn.qualname} holds it across {desc} "
                            f"at {facts.fn.module.relpath}:{call.lineno} — "
                            "a stalled holder convoys the loop"
                        ),
                    )
                )
    return findings
