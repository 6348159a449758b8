"""Tests for the DES environment and run loop (repro.des.core)."""

import pytest

from repro.des import Environment
from repro.utils.errors import SimulationError


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=100.0).now == 100.0

    def test_clock_only_moves_forward(self, env):
        times = []

        def proc(env):
            for _ in range(5):
                yield env.timeout(3)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [3, 6, 9, 12, 15]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestEventOrdering:
    def test_same_time_events_preserve_creation_order(self, env):
        order = []

        def make(tag):
            def proc(env):
                yield env.timeout(10)
                order.append(tag)

            return proc

        for tag in "abcde":
            env.process(make(tag)(env))
        env.run()
        assert order == list("abcde")

    def test_events_processed_in_time_order(self, env):
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 30, "late"))
        env.process(proc(env, 10, "early"))
        env.process(proc(env, 20, "middle"))
        env.run()
        assert order == ["early", "middle", "late"]


class TestRunUntil:
    def test_run_until_time_stops_clock_exactly(self, env):
        def proc(env):
            while True:
                yield env.timeout(7)

        env.process(proc(env))
        env.run(until=100)
        assert env.now == 100

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(5)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"

    def test_run_until_past_time_raises(self, env):
        env.timeout(1)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_run_until_event_never_triggered_raises(self, env):
        stuck = env.event()
        env.timeout(5)
        with pytest.raises(SimulationError):
            env.run(until=stuck)

    def test_run_until_already_processed_event(self, env):
        def proc(env):
            yield env.timeout(1)
            return 3

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 3

    def test_run_with_no_events_returns_none(self, env):
        assert env.run() is None

    def test_run_until_failed_event_raises(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("bad")

        p = env.process(bad(env))
        with pytest.raises(ValueError):
            env.run(until=p)


class TestStep:
    def test_step_without_events_raises_indexerror(self, env):
        with pytest.raises(IndexError):
            env.step()

    def test_peek_returns_next_event_time(self, env):
        env.timeout(42)
        assert env.peek() == 42

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_queue_length_counts_scheduled_events(self, env):
        env.timeout(1)
        env.timeout(2)
        assert env.queue_length == 2

    def test_schedule_negative_delay_raises(self, env):
        event = env.event()
        event._ok = True
        event._value = None
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-1)


def fired(env, log, tag):
    """A triggered event, not yet scheduled, whose callback logs ``(tag, now)``."""
    event = env.event()
    event._ok, event._value = True, None
    event.callbacks.append(lambda _event: log.append((tag, env.now)))
    return event


class TestAbsoluteTimeScheduling:
    def test_fires_at_the_bit_identical_float(self, env):
        """``now + (at - now)`` is not ``at``: a grid summed as ``tick += 0.1``
        has to be filed under its own floats."""
        log, tick, grid = [], 0.0, []
        env.run(until=0.7)
        while len(grid) < 40:
            tick += 0.1
            if tick > env.now:
                grid.append(tick)
        assert any(env.now + (at - env.now) != at for at in grid)
        for at in grid:
            env.schedule(fired(env, log, "tick"), at=at)
        env.run()
        assert [time for _tag, time in log] == grid

    def test_shares_the_fifo_bucket_of_timeouts_at_that_time(self, env):
        log = []
        env.timeout(5.0).callbacks.append(lambda _e: log.append("timeout-before"))
        env.schedule(fired(env, log, "absolute"), at=5.0)
        env.timeout(5.0).callbacks.append(lambda _e: log.append("timeout-after"))
        env.schedule(fired(env, log, "now"), at=env.now)
        env.run()
        assert log == [("now", 0.0), "timeout-before", ("absolute", 5.0), "timeout-after"]

    def test_a_past_time_raises_like_a_negative_delay(self, env):
        env.run(until=10.0)
        with pytest.raises(SimulationError, match="in the past"):
            env.schedule(env.event(), at=9.999)
        with pytest.raises(SimulationError, match="in the past"):
            env.schedule(env.event(), delay=-0.001)


class TestUnschedule:
    def test_the_clock_does_not_stop_at_a_time_left_empty(self, env):
        log = []
        lone, shared = fired(env, log, "lone"), fired(env, log, "shared")
        env.schedule(lone, at=30.0)
        env.schedule(shared, at=20.0)
        env.schedule(fired(env, log, "kept"), at=20.0)
        env.unschedule(lone, at=30.0)
        env.unschedule(shared, at=20.0)
        assert env.queue_length == 1
        env.run()
        assert log == [("kept", 20.0)] and env.now == 20.0
        assert env.peek() == float("inf")

    def test_peek_skips_an_emptied_time_and_the_time_can_be_reused(self, env):
        log = []
        first = fired(env, log, "first")
        env.schedule(first, at=10.0)
        env.timeout(15.0)
        env.unschedule(first, at=10.0)
        assert env.peek() == 15.0
        env.schedule(fired(env, log, "second"), at=10.0)
        assert env.peek() == 10.0
        env.run()
        assert log == [("second", 10.0)] and env.now == 15.0

    def test_an_event_due_now_leaves_the_ready_list(self, env):
        log = []
        later = fired(env, log, "later")

        def withdraw(_event):
            env.unschedule(later, at=env.now)

        env.timeout(4.0).callbacks.append(withdraw)
        env.schedule(later, at=4.0)
        env.schedule(fired(env, log, "last"), at=4.0)
        env.run()
        assert log == [("last", 4.0)]

    def test_an_event_not_filed_there_raises(self, env):
        event = fired(env, [], "x")
        with pytest.raises(SimulationError, match="not scheduled"):
            env.unschedule(event, at=3.0)
        env.schedule(event, at=3.0)
        with pytest.raises(SimulationError, match="not scheduled"):
            env.unschedule(env.event(), at=3.0)


class TestActiveProcess:
    def test_active_process_visible_inside_process(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(env, name, period):
                while env.now < 50:
                    yield env.timeout(period)
                    trace.append((round(env.now, 6), name))

            env.process(worker(env, "a", 3.3))
            env.process(worker(env, "b", 4.7))
            env.run(until=60)
            return trace

        assert run_once() == run_once()
