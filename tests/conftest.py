"""The loop guard: no test may block a server's event-loop thread.

A thread named exactly ``zht-tcp-<port>`` or ``zht-udp-<port>`` is the
loop of an ``EventDrivenTCPServer`` or a ``UDPServer`` (the transports
name them so).  Every other thread may block: the UDP effect worker
(``zht-udp-effects_0``) and the TCP effect pool exist to do so.

On a loop thread the guard records these calls, and the test in whose
run they happen fails when it ends:

* ``time.sleep``;
* ``threading.Condition.wait`` with no timeout or a non-zero one, which
  is also ``Event.wait``, ``Future.result`` and a blocking
  ``Queue.get``;
* ``recvfrom``, ``accept`` or ``connect`` on a socket that is not
  non-blocking.

The loop function's own frame may wait: that is the UDP loop's
``recvfrom`` poll.  So may the calls under ``_ALLOWED``, each for the
reason it gives.  ``socket.recv``/``send`` and ``os.fsync`` are not
wrapped: the first two are on the path every op takes (and
``test_hot_path_budget.py`` counts its bytecodes in this process), and a
partition install still fsyncs on the TCP loop (DESIGN.md §11).

The guard wraps the calls when this module is imported, before any test
module imports ``repro``, so a default argument bound to ``time.sleep``
binds the wrapper too.  A test that stalls a loop on purpose takes the
``real_sleep`` fixture.
"""

from __future__ import annotations

import functools
import re
import socket
import sys
import threading
import time
import traceback

import pytest

_LOOP_THREAD = re.compile(r"zht-(?:tcp|udp)-\d+")
_THREAD_RUN = threading.Thread.run.__code__

#: Waits a loop thread may make, by the function they happen under,
#: with the reason.
_ALLOWED = {
    threading.Thread.start.__code__: (
        "waits only until the new thread runs; ThreadPoolExecutor.submit "
        "starts its workers lazily, so a loop's first hand-offs to the "
        "effect worker or pool start them"
    ),
}

_violations: list[str] = []


def _report(call: str) -> None:
    caller = sys._getframe(2)
    if caller.f_back is not None and caller.f_back.f_code is _THREAD_RUN:
        return  # the loop function's own poll
    frame = caller
    while frame is not None:
        if frame.f_code in _ALLOWED:
            return
        frame = frame.f_back
    stack = "".join(traceback.format_stack(caller, limit=8))
    _violations.append(f"{call} on {threading.current_thread().name}:\n{stack}")


def _guard(real, call: str, blocks):
    @functools.wraps(real)
    def guarded(*args, **kwargs):
        if _LOOP_THREAD.fullmatch(threading.current_thread().name) and blocks(
            *args, **kwargs
        ):
            _report(call)
        return real(*args, **kwargs)

    return guarded


def _always(*_args, **_kwargs) -> bool:
    return True


def _waits(_cond, timeout=None) -> bool:
    return timeout is None or timeout > 0


def _blocking_socket(sock, *_args, **_kwargs) -> bool:
    return sock.gettimeout() != 0.0


_real_sleep = time.sleep
time.sleep = _guard(time.sleep, "time.sleep", _always)
threading.Condition.wait = _guard(threading.Condition.wait, "Condition.wait", _waits)
for _name in ("recvfrom", "accept", "connect"):
    setattr(
        socket.socket,
        _name,
        _guard(getattr(socket.socket, _name), f"socket.{_name}", _blocking_socket),
    )


def _take_violations() -> str:
    found = list(_violations)
    _violations.clear()
    shown = "\n".join(found[:3])
    more = f"\n... and {len(found) - 3} more" if len(found) > 3 else ""
    return f"{len(found)} blocking call(s) on an event-loop thread:\n{shown}{more}"


@pytest.fixture(autouse=True)
def _loop_guard():
    yield
    if _violations:
        pytest.fail(_take_violations(), pytrace=False)


@pytest.fixture
def real_sleep():
    """``time.sleep`` without the guard, for a test that stalls a loop
    on purpose."""
    return _real_sleep


def pytest_sessionfinish(session):
    # Left over by a module- or session-scoped fixture's teardown.
    if _violations:
        print("\n" + _take_violations(), file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
