"""Discrete-event simulation engine.

A small, fast SimPy-style kernel used to run ZHT deployments at scales a
single machine cannot host for real (the paper validated a PeerSim-based
simulator against ≤8K-node Blue Gene/P runs within 3% and used it for the
1M-node point of Figure 11 — we adopt the same methodology).

Model:

* **Processes** are Python generators driven by the engine.  A process
  may ``yield``:

  - a ``float`` — sleep that many simulated seconds.  No object is made:
    the sleeper's own wakeup is the heap entry.  Any other number (an
    ``int`` included) is a stray yield and raises :class:`SimError`;
  - a :class:`Store` (``yield store.get()``) — take its next item,
    waiting for a ``put`` if it is empty;
  - a :class:`Reply` — wait for its first answer or, when its
    ``timeout`` is set (a *timed wait*), for ``None`` once that many
    seconds pass unanswered;
  - an :class:`Event`, such as :meth:`Environment.timeout` — suspend
    until the event succeeds; the ``yield`` evaluates to its value;
  - another :class:`Process` — suspend until that process returns; the
    ``yield`` evaluates to its return value, or raises its error.

* :class:`Resource` is a counted semaphore (CPU cores, disk channels).

The engine is deterministic: callbacks run in ``(time, seq)`` order, seq
being the order they were scheduled in.  A wakeup that would run next
anyway runs at once instead of being queued, which leaves that order as
it was (DESIGN.md §17).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Iterable


class SimError(Exception):
    """Raised for illegal engine operations (double-succeed, etc.)."""


#: A :class:`Reply` nobody has answered yet.
_PENDING = object()


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
        if not self.triggered:
            self._waiters.append(proc)
        elif self._ok:
            proc._wake(self._value, None)
        else:
            proc._wake(None, self._value)


class Process:
    """A running generator, resumable by the engine."""

    __slots__ = ("env", "_gen", "_send", "done", "result", "_error", "_completion", "name")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        self.env = env
        self._gen = gen
        self._send = gen.send
        self.name = name or getattr(gen, "__name__", "process")
        self.done = False
        self.result: Any = None
        self._error: BaseException | None = None
        #: The event of "yield process", made when something first waits.
        self._completion: Event | None = None

    def _wait(self, proc: "Process") -> None:
        completion = self._completion
        if completion is None:
            completion = self._completion = Event(self.env)
            if self.done:
                completion._fire(self.result, self._error)
        completion._wait(proc)

    @property
    def triggered(self) -> bool:
        return self.done

    def close(self) -> None:
        """End the process where it is suspended: it never resumes, and its
        frame lets go of everything it held."""
        self.done = True
        self._gen.close()

    def _wake(self, value: Any, exc: BaseException | None) -> None:
        """What this process waits on is done: resume it at once when
        nothing else is due now, else queue the resume behind what is (where
        a zero-delay wakeup would run)."""
        env = self.env
        if env._ready or ((queue := env._queue) and queue[0][0] == env.now):
            env._seq = seq = env._seq + 1
            env._ready.append((seq, self._resume, value, exc))
        else:
            self._resume(value, exc)

    def _resume(self, value: Any, exc: BaseException | None) -> None:
        try:
            if exc is None:
                yielded = self._send(value)
            else:
                yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            if self._completion is not None:
                self._completion.succeed(stop.value)
            return
        except BaseException as err:
            self.done = True
            self._error = err
            if self._completion is not None:
                self._completion.fail(err)  # thrown into every waiter
            elif not isinstance(err, GeneratorExit):
                raise  # nobody waits: the run fails
            return
        if yielded.__class__ is float:
            # A sleep: the heap entry is this process's own wakeup.
            env = self.env
            if yielded > 0.0:
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env.now + yielded, seq, self._wake, None, None))
            elif yielded == 0.0:
                env._seq = seq = env._seq + 1
                env._ready.append((seq, self._wake, None, None))
            else:
                raise SimError(f"process {self.name!r} cannot sleep {yielded} s")
            return
        try:
            wait = yielded._wait
        except AttributeError:
            raise SimError(
                f"process {self.name!r} yielded {type(yielded).__name__}; yield a "
                "float (a sleep), a Store, a Reply, an Event or a Process"
            ) from None
        wait(self)


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
        #: The seqs of cancelled heap entries: popped unrun, and the clock
        #: does not move to them.
        self._cancelled: set[int] = set()
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable, value: Any, exc: Any) -> int:
        """Queue ``fn(value, exc)`` *delay* seconds from now; returns the
        entry's seq, which :meth:`_cancel` takes."""
        if delay > 0:
            self._seq = seq = self._seq + 1
            heappush(self._queue, (self.now + delay, seq, fn, value, exc))
        elif delay == 0:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, fn, value, exc))
        else:
            raise SimError("cannot schedule into the past")
        return seq

    def _cancel(self, seq: int) -> None:
        """Drop the heap entry *seq* (scheduled with a delay > 0) unrun."""
        self._cancelled.add(seq)

    def close(self) -> None:
        """Drop every queued callback: nothing is left to run, and no
        process is held by this environment."""
        self._queue.clear()
        self._ready.clear()
        self._cancelled.clear()

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
        queue, ready, cancelled = self._queue, self._ready, self._cancelled
        while True:
            if ready and not (
                queue and queue[0][0] == self.now and queue[0][1] < ready[0][0]
            ):
                _seq, fn, value, exc = ready.popleft()
                break
            time, seq, fn, value, exc = heapq.heappop(queue)
            if seq in cancelled:
                cancelled.remove(seq)
                continue
            self.now = time
            break
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
        queue, ready, cancelled = self._queue, self._ready, self._cancelled
        heappop, popleft = heapq.heappop, ready.popleft
        # Callbacks are counted at the end, not one by one: every queued
        # entry takes a fresh seq, so the entries popped are the seqs issued
        # less what the queues grew by, and the callbacks run are those
        # popped less the cancelled ones skipped.
        seq0, size0, skipped = self._seq, len(queue) + len(ready), 0
        try:
            while True:
                if ready:
                    if queue and queue[0][0] == now and queue[0][1] < ready[0][0]:
                        _time, seq, fn, value, exc = heappop(queue)
                        if cancelled and seq in cancelled:
                            cancelled.remove(seq)
                            skipped += 1
                            continue
                    else:
                        _seq, fn, value, exc = popleft()
                elif not queue:
                    break
                elif queue[0][0] > until:
                    self.now = until
                    break
                else:
                    now, seq, fn, value, exc = heappop(queue)
                    if cancelled and seq in cancelled:
                        # The local clock may run ahead here: the ready
                        # queue is empty, so the next pass pops again
                        # (resetting it) or leaves with self.now as it was.
                        cancelled.remove(seq)
                        skipped += 1
                        continue
                    self.now = now
                fn(value, exc)
        finally:
            popped = self._seq - seq0 - (len(queue) + len(ready) - size0)
            self.events_processed += popped - skipped
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
    """Unbounded FIFO channel: ``item = yield store.get()`` takes the next
    item, waiting for a ``put`` if there is none."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque = deque()
        self._getters: deque[Process] = deque()

    def put(self, item: Any) -> None:
        """Add *item*; a waiting getter takes it at zero delay."""
        if self._getters:
            proc = self._getters.popleft()
            env = self.env
            env._seq = seq = env._seq + 1
            env._ready.append((seq, proc._resume, item, None))
        else:
            self._items.append(item)

    def get(self) -> "Store":
        """What a process yields to take the next item: the store itself,
        so a receive allocates nothing."""
        return self

    def _wait(self, proc: Process) -> None:
        if self._items:
            proc._wake(self._items.popleft(), None)
        else:
            self._getters.append(proc)

    def _land(self, item: Any, _exc: Any) -> None:
        """Heap callback: *item* arrives after its delay.  A waiting getter
        takes it at once when nothing else is due now; otherwise the put
        queues behind what is, as a zero-delay callback."""
        env = self.env
        if env._ready or ((queue := env._queue) and queue[0][0] == env.now):
            env._seq = seq = env._seq + 1
            env._ready.append((seq, self._put_last, item, None))
        elif self._getters:
            self._getters.popleft()._resume(item, None)
        else:
            self._items.append(item)

    def _put_last(self, item: Any, _exc: Any) -> None:
        """``put`` as a callback's last act: the getter wakes, not queues."""
        if self._getters:
            self._getters.popleft()._wake(item, None)
        else:
            self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)


class Reply:
    """One answer a process waits for, as a client waits for its reply.

    ``value = yield reply`` suspends until the first answer lands
    (:meth:`_land`, a heap callback); later ones are dropped, as a
    duplicated request can be answered twice.  With :attr:`timeout` set
    the wait is *timed*: it ends with ``None`` when that many seconds pass
    unanswered, and an answer in time cancels the timer, so an answered
    wait leaves nothing queued."""

    __slots__ = ("env", "timeout", "_waiter", "_value", "_timer")

    def __init__(self, env: Environment, timeout: float | None = None):
        self.env = env
        self.timeout = timeout
        self._waiter: Process | None = None
        self._value: Any = _PENDING

    def _wait(self, proc: Process) -> None:
        if self._value is not _PENDING:  # answered before anyone waited
            proc._wake(self._value, None)
            return
        self._waiter = proc
        if self.timeout is not None:
            self._timer = self.env._schedule(self.timeout, self._expire, None, None)

    def _land(self, value: Any, exc: Any) -> None:
        """Heap callback: an answer arrives after its delay.  The waiter
        resumes at once when nothing else is due now; otherwise the answer
        queues behind what is, as a zero-delay callback."""
        env = self.env
        if env._ready or ((queue := env._queue) and queue[0][0] == env.now):
            env._seq = seq = env._seq + 1
            env._ready.append((seq, self._settle, value, exc))
        elif self._value is _PENDING:
            self._value = value
            proc = self._waiter
            if proc is not None:
                if self.timeout is not None:
                    env._cancel(self._timer)
                proc._resume(value, exc)

    def _settle(self, value: Any, exc: Any) -> None:
        """The answer, taken as a callback's last act."""
        if self._value is _PENDING:
            self._value = value
            proc = self._waiter
            if proc is not None:
                if self.timeout is not None:
                    self.env._cancel(self._timer)
                proc._wake(value, exc)

    def _expire(self, _value: Any, _exc: Any) -> None:
        """The timed wait's timer: the wait ends with ``None``."""
        if self._value is _PENDING:
            self._value = None
            self._waiter._wake(None, None)


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
