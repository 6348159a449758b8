"""Property-based tests of the discrete-event kernel (repro.des).

The DES kernel is the substrate everything else stands on, so its invariants
are checked over randomly generated schedules rather than hand-picked cases:

* the simulation clock never goes backwards and events fire at (or after)
  their scheduled time;
* timeouts complete in exactly the order of their delays, regardless of the
  order they were created in;
* a resource never hands out more units than its capacity, and every request
  is eventually served when all holders release;
* stores deliver every item exactly once, in FIFO order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource, Store

#: Small, fast-to-run delay lists for schedule generation.
delays = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestClockAndTimeouts:
    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_clock_is_monotone_and_events_fire_at_their_time(self, schedule):
        """Observed firing times equal the requested delays and never decrease."""
        env = Environment()
        observed = []

        def waiter(delay: float):
            yield env.timeout(delay)
            observed.append((delay, env.now))

        for delay in schedule:
            env.process(waiter(delay))
        env.run()

        assert len(observed) == len(schedule)
        # Every waiter woke up exactly at its delay...
        for delay, when in observed:
            assert when == delay
        # ...and the global firing order is by time (the clock is monotone).
        firing_times = [when for _delay, when in observed]
        assert firing_times == sorted(firing_times)

    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_final_time_is_the_longest_delay(self, schedule):
        """The run ends exactly when the last scheduled activity completes."""
        env = Environment()

        def sleeper(delay: float):
            yield env.timeout(delay)

        for delay in schedule:
            env.process(sleeper(delay))
        env.run()
        assert env.now == max(schedule)

    @given(delays, delays)
    @settings(max_examples=40, deadline=None)
    def test_run_until_deadline_never_overshoots(self, schedule, more):
        """run(until=t) stops the clock exactly at t even with later events pending."""
        env = Environment()

        def sleeper(delay: float):
            yield env.timeout(delay)

        for delay in schedule + more:
            env.process(sleeper(delay))
        deadline = max(schedule) / 2 + 0.1
        env.run(until=deadline)
        assert env.now == deadline


class TestResourceInvariants:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_is_never_exceeded_and_everyone_finishes(self, capacity, hold_times):
        """Concurrent holders never exceed capacity; all waiters eventually run."""
        env = Environment()
        pool = Resource(env, capacity=capacity)
        in_use = {"current": 0, "max_seen": 0}
        finished = []

        def worker(index: int, hold: float):
            request = pool.request()
            yield request
            in_use["current"] += 1
            in_use["max_seen"] = max(in_use["max_seen"], in_use["current"])
            yield env.timeout(hold)
            in_use["current"] -= 1
            pool.release(request)
            finished.append(index)

        for index, hold in enumerate(hold_times):
            env.process(worker(index, hold))
        env.run()

        assert in_use["max_seen"] <= capacity
        assert sorted(finished) == list(range(len(hold_times)))
        assert pool.available == capacity  # everything was released

    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_multi_unit_requests_respect_capacity(self, capacity, amounts):
        """Requests for several units at once still never exceed capacity."""
        env = Environment()
        pool = Resource(env, capacity=capacity)
        peak = {"units": 0, "max_seen": 0}

        def worker(amount: int):
            amount = min(amount, capacity)
            request = pool.request(amount=amount)
            yield request
            peak["units"] += amount
            peak["max_seen"] = max(peak["max_seen"], peak["units"])
            yield env.timeout(1.0)
            peak["units"] -= amount
            pool.release(request)

        for amount in amounts:
            env.process(worker(amount))
        env.run()
        assert peak["max_seen"] <= capacity
        assert pool.available == capacity


class TestStoreInvariants:
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_every_item_delivered_exactly_once_in_fifo_order(self, items):
        """A store delivers the produced items exactly once, in order."""
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for item in items:
                store.put(item)
                yield env.timeout(1.0)

        def consumer():
            for _ in range(len(items)):
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == list(items)

    @given(
        st.lists(st.integers(), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_items_partition_across_competing_consumers(self, items, consumer_count):
        """With several consumers, the items are partitioned without loss or duplication."""
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for item in items:
                store.put(item)
                yield env.timeout(0.5)

        def consumer():
            while True:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        for _ in range(consumer_count):
            env.process(consumer())
        # Consumers loop forever; run until the producer's last put has been
        # consumed by advancing past the production horizon.
        env.run(until=len(items) + 10.0)
        assert sorted(received) == sorted(items)
