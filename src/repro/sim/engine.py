"""Discrete-event simulation engine.

A small, fast SimPy-style kernel used to run ZHT deployments at scales a
single machine cannot host for real (the paper validated a PeerSim-based
simulator against ≤8K-node Blue Gene/P runs within 3% and used it for the
1M-node point of Figure 11 — we adopt the same methodology).

Model:

* **Processes** are Python generators driven by the engine.  A process
  may ``yield``:

  - an :class:`Event` — suspend until the event succeeds; the ``yield``
    evaluates to the event's value;
  - another :class:`Process` — suspend until that process returns; the
    ``yield`` evaluates to its return value;
  - the result of :meth:`Environment.timeout` — suspend for simulated
    seconds.

* :class:`Store` is an unbounded FIFO channel with blocking ``get``
  (message queues between simulated servers/clients).
* :class:`Resource` is a counted semaphore (CPU cores, disk channels).

The engine is deterministic: ties in time are broken by scheduling
sequence number.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable


class SimError(Exception):
    """Raised for illegal engine operations (double-succeed, etc.)."""


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "_value", "_ok", "triggered", "_waiters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._value: Any = None
        self._ok = True
        self.triggered = False
        self._waiters: list[Process] = []

    def _fire(self, value: Any, exc: BaseException | None) -> None:
        """Succeed with *value*, or fail with *exc* if set (a timeout's
        callback); each waiter wakes at zero delay, in the order it waited."""
        if self.triggered:
            raise SimError("event already triggered")
        self.triggered = True
        if exc is None:
            self._value = value
        else:
            self._value = exc
            self._ok = False
        waiters = self._waiters
        if waiters:
            env = self.env
            ready = env._ready
            for proc in waiters:
                env._seq = seq = env._seq + 1
                ready.append((seq, proc._resume, value, exc))
            waiters.clear()

    def succeed(self, value: Any = None) -> "Event":
        self._fire(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        self._fire(None, exc)
        return self

    @property
    def value(self) -> Any:
        return self._value

    def _wait(self, proc: "Process") -> None:
        if self.triggered:
            if self._ok:
                self.env._schedule(0.0, proc._resume, self._value, None)
            else:
                self.env._schedule(0.0, proc._resume, None, self._value)
        else:
            self._waiters.append(proc)


class Process:
    """A running generator, resumable by the engine."""

    __slots__ = ("env", "_gen", "done", "result", "_completion", "name")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        self.env = env
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = False
        self.result: Any = None
        self._completion = Event(env)

    # The completion event doubles as "yield process" support.
    def _wait(self, proc: "Process") -> None:
        self._completion._wait(proc)

    @property
    def triggered(self) -> bool:
        return self._completion.triggered

    def _resume(self, value: Any, exc: BaseException | None) -> None:
        try:
            if exc is not None:
                yielded = self._gen.throw(exc)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self._completion.succeed(stop.value)
            return
        except BaseException as err:
            self.done = True
            self._completion.fail(err)
            if not self._completion._waiters and not isinstance(
                err, GeneratorExit
            ):
                raise
            return
        if isinstance(yielded, (Event, Process)):
            yielded._wait(self)
        else:
            raise SimError(
                f"process {self.name!r} yielded {type(yielded).__name__}; "
                "yield an Event, a timeout, or a Process"
            )


class Environment:
    """The simulation clock and event queue: callbacks ``fn(value, exc)``
    run in ``(time, seq)`` order.  Zero-delay ones wait in a FIFO ready
    queue instead of the heap; a heap entry due at ``now`` runs before the
    ready queue's head only if its ``seq`` is smaller."""

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable, Any, Any]] = []
        self._ready: deque[tuple[int, Callable, Any, Any]] = deque()
        self._seq = 0
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable, value: Any, exc: Any) -> None:
        if delay < 0:
            raise SimError("cannot schedule into the past")
        self._seq += 1
        if delay:
            heapq.heappush(self._queue, (self.now + delay, self._seq, fn, value, exc))
        else:
            self._ready.append((self._seq, fn, value, exc))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds after *delay* simulated seconds."""
        evt = Event(self)
        self._schedule(delay, evt._fire, value, None)
        return evt

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start *gen* as a process at the current time."""
        proc = Process(self, gen, name)
        self._schedule(0.0, proc._resume, None, None)
        return proc

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Pop and execute exactly one scheduled callback."""
        queue, ready = self._queue, self._ready
        if ready and not (queue and queue[0][0] == self.now and queue[0][1] < ready[0][0]):
            _seq, fn, value, exc = ready.popleft()
        else:
            self.now, _seq, fn, value, exc = heapq.heappop(queue)
        self.events_processed += 1
        fn(value, exc)

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock passes *until*.

        Returns the final simulation time (short of *until* if the queue drained).
        """
        now = self.now
        if until is None:
            until = math.inf
        elif until < now:
            raise SimError(f"cannot run until {until}: the clock is at {now}")
        queue, ready = self._queue, self._ready
        heappop, popleft = heapq.heappop, ready.popleft
        count = 0
        try:
            while True:
                if ready:
                    if queue and queue[0][0] == now and queue[0][1] < ready[0][0]:
                        _time, _seq, fn, value, exc = heappop(queue)
                    else:
                        _seq, fn, value, exc = popleft()
                elif not queue:
                    break
                elif queue[0][0] > until:
                    self.now = until
                    break
                else:
                    now, _seq, fn, value, exc = heappop(queue)
                    self.now = now
                count += 1
                fn(value, exc)
        finally:
            self.events_processed += count
        return self.now

    def run_process(self, gen: Generator) -> Any:
        """Convenience: start *gen*, run to completion, return its result."""
        proc = self.process(gen)
        self.run()
        if not proc.done:
            raise SimError(f"process {proc.name!r} never completed (deadlock?)")
        return proc.result

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when every input event has succeeded."""
        events = list(events)
        gate = Event(self)
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining

        def make_waiter(i: int, evt: Event):
            def waiter():
                nonlocal remaining
                value = yield evt
                results[i] = value
                remaining -= 1
                if remaining == 0 and not gate.triggered:
                    gate.succeed(results)

            return waiter()

        for i, evt in enumerate(events):
            self.process(make_waiter(i, evt), name=f"all_of[{i}]")
        return gate


class Store:
    """Unbounded FIFO channel with blocking get."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft()._fire(item, None)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event yielding the next item (immediately if available)."""
        evt = Event(self.env)
        if self._items:
            evt._fire(self._items.popleft(), None)
        else:
            self._getters.append(evt)
        return evt

    def __len__(self) -> int:
        return len(self._items)


class Resource:
    """Counted resource (e.g. CPU cores shared by co-located instances)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        evt = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            if self.in_use <= 0:
                raise SimError("release without acquire")
            self.in_use -= 1
