"""Benchmark-shaped regression tests for the DES kernel hot paths.

These are the three workloads of ``benchmarks/bench_des_engine.py`` at tiny
sizes, with final simulated times and completion counts pinned to the values
the *seed* (pre-refactor, heap-calendar) kernel produced.  Any change to the
calendar, the timeout pool, or the waiter queues that alters event ordering
or float arithmetic shows up here as a bit-level difference.
"""

import pytest

from repro.des import Environment
from repro.experiments.bench import (
    resource_contention,
    store_pingpong,
    timeout_churn,
)
from repro.utils.errors import SimulationError


class TestSeedKernelEquivalence:
    """Final sim times / completion counts must match the seed kernel bit-for-bit.

    The workloads are imported from :mod:`repro.experiments.bench` -- the
    exact code ``repro bench`` and the pytest benchmark harness measure.
    """

    @pytest.mark.parametrize(
        "process_count, hops, expected_final_time",
        [(100, 10, 15.999999999999998), (37, 13, 20.8)],
    )
    def test_timeout_churn_final_time(self, process_count, hops, expected_final_time):
        assert timeout_churn(process_count, hops).final_time == expected_final_time

    @pytest.mark.parametrize(
        "process_count, capacity, expected",
        [(50, 8, (50, 32.0)), (31, 5, (31, 31.0))],
    )
    def test_resource_contention_completions_and_time(self, process_count, capacity, expected):
        assert tuple(resource_contention(process_count, capacity)) == expected

    @pytest.mark.parametrize(
        "pairs, messages, expected",
        [(20, 5, (100, 2.5)), (7, 11, (77, 5.5))],
    )
    def test_store_pingpong_deliveries_and_time(self, pairs, messages, expected):
        assert tuple(store_pingpong(pairs, messages)) == expected

    def test_pingpong_delivers_fifo_per_pair(self):
        assert store_pingpong(1, 12).count == 12


class TestTimeoutPool:
    """The pooled fast path must never be observable from user code."""

    def test_held_timeout_is_not_recycled(self):
        env = Environment()
        seen = []

        def proc():
            first = env.timeout(1, value="a")
            yield first
            # ``first`` is still referenced here, so the kernel must not
            # have recycled it into the next timeout.
            second = env.timeout(1, value="b")
            yield second
            seen.append((first.value, second.value, first is second))

        env.process(proc())
        env.run()
        assert seen == [("a", "b", False)]

    def test_unheld_timeouts_are_recycled(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        assert len(env._timeout_pool) >= 1

    def test_recycled_timeout_state_is_fresh(self):
        env = Environment()
        values = []

        def proc():
            for index in range(5):
                value = yield env.timeout(1, value=index)
                values.append(value)

        env.process(proc())
        env.run()
        assert values == [0, 1, 2, 3, 4]


class TestScaleAwareClockGuard:
    """The calendar-corruption guard must scale with the clock magnitude."""

    def test_benign_float_noise_at_large_now_is_tolerated(self):
        env = Environment()
        env._now = 6.048e5  # one simulated week
        # An absolute 1e-12 epsilon would flag this ~1e-10 rounding residue.
        env._check_clock(env._now - 1e-10)

    def test_real_corruption_at_large_now_is_caught(self):
        env = Environment()
        env._now = 6.048e5
        with pytest.raises(SimulationError):
            env._check_clock(env._now - 1.0)

    def test_small_now_keeps_tight_guard(self):
        env = Environment()
        env._now = 1.0
        with pytest.raises(SimulationError):
            env._check_clock(env._now - 1e-6)

    def test_week_long_horizon_runs_clean(self):
        env = Environment()

        def poller():
            # Half-hour polling across a simulated week exercises thousands
            # of accumulated float additions near now ~ 6e5.
            for _ in range(336):
                yield env.timeout(1800.0)

        env.process(poller())
        env.run()
        assert env.now == pytest.approx(604800.0)
