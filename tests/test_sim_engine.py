"""Tests for the discrete-event engine (repro.sim.engine)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collections import deque

from repro.sim.engine import Environment, Event, Reply, Resource, SimError, Store


class TestTimeouts:
    def test_timeout_advances_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)
            return env.now

        assert env.run_process(proc()) == 5.0

    def test_zero_timeout_runs_immediately(self):
        env = Environment()

        def proc():
            yield env.timeout(0.0)
            return "done"

        assert env.run_process(proc()) == "done"
        assert env.now == 0.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimError):
            env._schedule(-1.0, lambda v, e: None, None, None)

    def test_timeout_value_passthrough(self):
        env = Environment()

        def proc():
            value = yield env.timeout(1.0, "payload")
            return value

        assert env.run_process(proc()) == "payload"

    def test_events_fire_in_time_order(self):
        env = Environment()
        log = []

        def waiter(delay, tag):
            yield env.timeout(delay)
            log.append(tag)

        env.process(waiter(3.0, "c"))
        env.process(waiter(1.0, "a"))
        env.process(waiter(2.0, "b"))
        env.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        env = Environment()
        log = []

        def waiter(tag):
            yield env.timeout(1.0)
            log.append(tag)

        for tag in "abc":
            env.process(waiter(tag))
        env.run()
        assert log == ["a", "b", "c"]

    def test_run_until_stops_early(self):
        env = Environment()

        def proc():
            yield env.timeout(100.0)

        env.process(proc())
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_the_past_is_rejected(self):
        env = Environment()
        env.run_process(_sleep(env, 2.0))
        with pytest.raises(SimError):
            env.run(until=1.0)
        assert env.now == 2.0

    def test_run_until_on_a_drained_queue_keeps_the_clock(self):
        env = Environment()
        env.run_process(_sleep(env, 2.0))
        # A drained queue returns the clock as it is, short of *until*.
        assert env.run(until=5.0) == 2.0
        assert env.run(until=2.0) == 2.0
        assert env.now == 2.0

    def test_every_callback_is_counted_even_one_that_raises(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("bad")

        env.process(broken())
        with pytest.raises(ValueError):
            env.run()
        # The start, the timeout firing, and the wakeup that raised.
        assert env.events_processed == 3


class TestEventOrder:
    """Callbacks run in (time, schedule order), whether they wait on the
    heap or on the zero-delay ready queue."""

    def tie_trace(self, drive):
        """At t=1.0 a callback queues wakeup 1, a timeout that is due at
        once (1.0 + 2**-60 rounds to 1.0), and wakeup 2, while a timeout
        made at t=0 is also due at 1.0.  Returns, per wakeup, the
        timeouts that had fired when it ran."""
        env = Environment()
        log = []
        timeouts = {}

        def wakeup(tag, _exc):
            assert env.now == 1.0
            log.append((tag, sorted(n for n, evt in timeouts.items() if evt.triggered)))

        def at_one(_value, _exc):
            env._schedule(0.0, wakeup, "wake-1", None)
            assert env.now + 2.0**-60 == env.now
            timeouts["due-now"] = env.timeout(2.0**-60)
            env._schedule(0.0, wakeup, "wake-2", None)

        env._schedule(1.0, at_one, None, None)
        timeouts["made-earlier"] = env.timeout(1.0)
        drive(env)
        assert env.events_processed == 5
        return log

    EXPECTED = [
        ("wake-1", ["made-earlier"]),
        ("wake-2", ["due-now", "made-earlier"]),
    ]

    def test_a_due_timeout_merges_by_schedule_order_in_run(self):
        assert self.tie_trace(lambda env: env.run()) == self.EXPECTED

    def test_a_due_timeout_merges_by_schedule_order_in_step(self):
        def five_steps(env):
            for _ in range(5):
                env.step()

        assert self.tie_trace(five_steps) == self.EXPECTED

    def test_zero_delay_work_runs_in_schedule_order(self):
        env = Environment()
        log = []

        def tagger(tag):
            log.append(tag)
            yield env.timeout(0.0)
            log.append(tag + "'")

        for tag in "abc":
            env.process(tagger(tag))
        env.run()
        assert log == ["a", "b", "c", "a'", "b'", "c'"]
        assert env.now == 0.0


class TestEvents:
    def test_succeed_delivers_value(self):
        env = Environment()
        evt = env.event()

        def waiter():
            value = yield evt
            return value

        p = env.process(waiter())
        env.process(_trigger(env, evt, "hello"))
        env.run()
        assert p.result == "hello"

    def test_wait_on_already_triggered_event(self):
        env = Environment()
        evt = env.event()
        evt.succeed(7)

        def waiter():
            return (yield evt)

        assert env.run_process(waiter()) == 7

    def test_double_succeed_rejected(self):
        env = Environment()
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimError):
            evt.succeed()

    def test_fail_raises_in_waiter(self):
        env = Environment()
        evt = env.event()

        def waiter():
            try:
                yield evt
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(waiter())
        env.process(_trigger_fail(env, evt, RuntimeError("boom")))
        env.run()
        assert p.result == "caught boom"

    def test_multiple_waiters_all_resume(self):
        env = Environment()
        evt = env.event()
        results = []

        def waiter(tag):
            value = yield evt
            results.append((tag, value))

        for tag in range(3):
            env.process(waiter(tag))
        env.process(_trigger(env, evt, "x"))
        env.run()
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]

    def test_all_of_gathers_values(self):
        env = Environment()

        def proc():
            events = [env.timeout(i, value=i) for i in (3, 1, 2)]
            values = yield env.all_of(events)
            return values

        assert env.run_process(proc()) == [3, 1, 2]
        assert env.now == 3.0

    def test_all_of_empty(self):
        env = Environment()

        def proc():
            return (yield env.all_of([]))

        assert env.run_process(proc()) == []

    def test_yielding_garbage_raises(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimError, match="yielded"):
            env.run()


class TestProcesses:
    def test_nested_process_wait(self):
        env = Environment()

        def child():
            yield env.timeout(2.0)
            return 10

        def parent():
            value = yield env.process(child())
            return value * 2

        assert env.run_process(parent()) == 20
        assert env.now == 2.0

    def test_parallel_processes_interleave(self):
        env = Environment()
        trace = []

        def ticker(name, period, count):
            for _ in range(count):
                yield env.timeout(period)
                trace.append((env.now, name))

        env.process(ticker("fast", 1.0, 3))
        env.process(ticker("slow", 2.0, 2))
        env.run()
        # At the t=2.0 tie, "slow" scheduled its timeout first (at t=0,
        # before "fast" re-armed at t=1), so it fires first.
        assert trace == [
            (1.0, "fast"),
            (2.0, "slow"),
            (2.0, "fast"),
            (3.0, "fast"),
            (4.0, "slow"),
        ]

    def test_deadlock_detected_by_run_process(self):
        env = Environment()

        def stuck():
            yield env.event()  # never triggered

        with pytest.raises(SimError, match="never completed"):
            env.run_process(stuck())

    def test_exception_in_process_propagates(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("bad")

        env.process(broken())
        with pytest.raises(ValueError, match="bad"):
            env.run()

    def test_a_child_error_is_thrown_into_the_parent_waiting_on_it(self):
        env = Environment()
        caught = []

        def child():
            yield 0.001
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                caught.append((env.now, str(exc)))
            return "resumed"

        parent_proc = env.process(parent())
        env.run()  # the waiter handles it: run() does not raise
        assert caught == [(0.001, "child failed")]
        assert parent_proc.result == "resumed"

    def test_a_child_error_nobody_handles_still_aborts_the_run(self):
        env = Environment()

        def child():
            yield 0.001
            raise ValueError("child failed")

        def parent():
            yield env.process(child())

        env.process(parent())
        with pytest.raises(ValueError, match="child failed"):
            env.run()


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("item")

        def getter():
            return (yield store.get())

        assert env.run_process(getter()) == "item"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter():
            value = yield store.get()
            return (env.now, value)

        def putter():
            yield env.timeout(5.0)
            store.put("late")

        p = env.process(getter())
        env.process(putter())
        env.run()
        assert p.result == (5.0, "late")

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        for i in range(5):
            store.put(i)

        def getter():
            out = []
            for _ in range(5):
                out.append((yield store.get()))
            return out

        assert env.run_process(getter()) == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_in_order(self):
        env = Environment()
        store = Store(env)
        results = []

        def getter(tag):
            value = yield store.get()
            results.append((tag, value))

        for tag in range(3):
            env.process(getter(tag))

        def putter():
            for i in range(3):
                yield env.timeout(1.0)
                store.put(i)

        env.process(putter())
        env.run()
        assert results == [(0, 0), (1, 1), (2, 2)]


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        res = Resource(env, capacity=1)
        trace = []

        def worker(tag):
            yield res.acquire()
            trace.append((env.now, tag, "start"))
            yield env.timeout(1.0)
            trace.append((env.now, tag, "end"))
            res.release()

        env.process(worker("a"))
        env.process(worker("b"))
        env.run()
        assert trace == [
            (0.0, "a", "start"),
            (1.0, "a", "end"),
            (1.0, "b", "start"),
            (2.0, "b", "end"),
        ]

    def test_release_without_acquire_rejected(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(SimError):
            res.release()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)


class TestSleeps:
    def test_a_float_sleeps_that_long_in_one_callback(self):
        env = Environment()

        def proc():
            yield 2.5
            return env.now

        assert env.run_process(proc()) == 2.5
        assert env.events_processed == 2  # the start and the wakeup

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_a_negative_or_nan_sleep_is_rejected(self, delay):
        env = Environment()

        def proc():
            yield delay

        env.process(proc())
        with pytest.raises(SimError, match="cannot sleep"):
            env.run()


class TestReply:
    def test_the_first_answer_wakes_the_waiter_and_later_ones_are_dropped(self):
        env = Environment()
        reply = Reply(env)
        env._schedule(1.0, reply._land, "first", None)
        env._schedule(2.0, reply._land, "duplicate", None)

        def waiter():
            value = yield reply
            return value, env.now

        assert env.run_process(waiter()) == ("first", 1.0)

    def test_an_answer_before_the_wait_is_kept(self):
        env = Environment()
        reply = Reply(env)

        def waiter():
            yield 2.0
            return (yield reply)

        env._schedule(1.0, reply._land, "early", None)
        assert env.run_process(waiter()) == "early"

    def test_a_timed_wait_ends_with_none(self):
        env = Environment()
        reply = Reply(env, timeout=3.0)

        def waiter():
            return (yield reply), env.now

        env._schedule(5.0, reply._land, "late", None)
        assert env.run_process(waiter()) == (None, 3.0)

    def test_an_answer_in_time_cancels_the_timer_without_moving_the_clock(self):
        env = Environment()
        reply = Reply(env, timeout=3.0)
        env._schedule(1.0, reply._land, "answer", None)
        proc = env.process(_wait_for(reply))
        assert env.run() == 1.0  # the cancelled timer at 3.0 is dropped unrun
        assert proc.result == "answer"
        assert not env._queue and not env._cancelled
        assert env.events_processed == 2  # the start and the answer

    def test_run_until_stops_short_of_a_cancelled_timer_as_of_a_live_one(self):
        env = Environment()
        reply = Reply(env, timeout=3.0)
        env._schedule(1.0, reply._land, "answer", None)
        env.process(_wait_for(reply))
        assert env.run(until=2.0) == 2.0
        assert env.run(until=4.0) == 2.0  # drained: the clock stays put


class _QueuedStore:
    """A store whose every wakeup is a queued zero-delay callback, as
    before getters were woken directly: the reference order."""

    def __init__(self, env):
        self.env, self.items, self.getters = env, deque(), deque()

    def put(self, item):
        if self.getters:
            self.getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self):
        evt = self.env.event()
        if self.items:
            evt.succeed(self.items.popleft())
        else:
            self.getters.append(evt)
        return evt


def _relayed(env, then):
    """A heap callback that queues *then* at zero delay (a message's old
    in-flight hop)."""
    return lambda value, _exc: env._schedule(0.0, lambda v, _e: then(v), value, None)


STEP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.25, 0.5])),
    st.tuples(st.just("timeout"), st.sampled_from([0.0, 0.25, 0.5])),
    st.tuples(st.just("call"), st.sampled_from([0.25, 0.5])),
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from([0.25, 0.5])),
    st.tuples(st.just("recv"), st.integers(0, 1)),
)


def _trace(scripts, direct):
    """Run *scripts* (one per process) with direct wakeups (sleeps, Store
    and Reply) or with the queued ones they replace, among timeouts that
    stay queued in both; returns what ran when."""
    env = Environment()
    stores = [Store(env) if direct else _QueuedStore(env) for _ in range(2)]
    log = []

    def proc(pid, script):
        for i, step in enumerate(script):
            kind, got = step[0], None
            if kind == "sleep":
                got = yield (step[1] if direct else env.timeout(step[1]))
            elif kind == "timeout":  # an Event in both runs
                got = yield env.timeout(step[1])
            elif kind == "call":  # an answer lands after the delay
                if direct:
                    reply = Reply(env)
                    env._schedule(step[1], reply._land, (pid, i), None)
                    got = yield reply
                else:
                    evt = env.event()
                    env._schedule(step[1], _relayed(env, evt.succeed), (pid, i), None)
                    got = yield evt
            elif kind == "send":  # an item lands in a store after the delay
                store = stores[step[1]]
                land = store._land if direct else _relayed(env, store.put)
                env._schedule(step[2], land, (pid, i), None)
            else:
                got = yield stores[step[1]].get()
            log.append((env.now, pid, i, got))

    for pid, script in enumerate(scripts):
        env.process(proc(pid, script))
    env.run()
    return log, env.now


@settings(max_examples=200, deadline=None)
@given(scripts=st.lists(st.lists(STEP, max_size=6), min_size=1, max_size=4))
# A receive that finds its item waiting while other work is due now.
@example(scripts=[[("sleep", 0.5), ("sleep", 0.0)], [("send", 1, 0.25), ("call", 0.5), ("recv", 1)]])
def test_property_direct_wakeups_keep_the_queued_order(scripts):
    """A wakeup taken at once instead of queued runs the same code at the
    same time in the same order, ties included (delays repeat on purpose)."""
    assert _trace(scripts, direct=True) == _trace(scripts, direct=False)


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_property_completion_time_is_max_delay(delays):
    """N parallel sleepers finish exactly at the max delay."""
    env = Environment()

    def sleeper(d):
        yield env.timeout(d)

    for d in delays:
        env.process(sleeper(d))
    env.run()
    assert env.now == max(delays)


def _sleep(env, delay):
    yield env.timeout(delay)


def _wait_for(waitable):
    return (yield waitable)


def _trigger(env, evt, value):
    yield env.timeout(1.0)
    evt.succeed(value)


def _trigger_fail(env, evt, exc):
    yield env.timeout(1.0)
    evt.fail(exc)
