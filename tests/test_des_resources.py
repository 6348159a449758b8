"""Tests for Resource, PriorityResource and Container (repro.des.resources)."""

import pytest

from repro.des import Container, Environment, PriorityResource, Resource
from repro.des.resources import Tally
from repro.utils.errors import SimulationError


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_request_grants_when_available(self, env):
        resource = Resource(env, capacity=2)
        log = []

        def proc(env):
            with resource.request() as req:
                yield req
                log.append(env.now)
                yield env.timeout(5)

        env.process(proc(env))
        env.run()
        assert log == [0.0]
        assert resource.count == 0  # released on context exit

    def test_requests_queue_when_full(self, env):
        resource = Resource(env, capacity=1)
        log = []

        def proc(env, name, hold):
            with resource.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(hold)

        env.process(proc(env, "first", 10))
        env.process(proc(env, "second", 10))
        env.run()
        assert log == [("first", 0.0), ("second", 10.0)]

    def test_multi_unit_requests(self, env):
        resource = Resource(env, capacity=8)
        log = []

        def proc(env, name, amount, hold):
            with resource.request(amount=amount) as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(hold)

        env.process(proc(env, "wide", 8, 10))
        env.process(proc(env, "narrow", 1, 1))
        env.run()
        # FIFO: the wide job holds everything, the narrow one waits.
        assert log == [("wide", 0.0), ("narrow", 10.0)]

    def test_request_larger_than_capacity_raises(self, env):
        resource = Resource(env, capacity=4)
        with pytest.raises(SimulationError):
            resource.request(amount=5)

    def test_request_zero_amount_raises(self, env):
        resource = Resource(env, capacity=4)
        with pytest.raises(SimulationError):
            resource.request(amount=0)

    def test_available_and_count_track_usage(self, env):
        resource = Resource(env, capacity=4)
        states = []

        def proc(env):
            with resource.request(amount=3) as req:
                yield req
                states.append((resource.count, resource.available))
                yield env.timeout(1)
            states.append((resource.count, resource.available))

        env.process(proc(env))
        env.run()
        assert states == [(3, 1), (0, 4)]

    def test_explicit_release(self, env):
        resource = Resource(env, capacity=1)

        def proc(env):
            req = resource.request()
            yield req
            yield env.timeout(5)
            resource.release(req)
            return resource.available

        p = env.process(proc(env))
        env.run()
        assert p.value == 1

    def test_cancel_queued_request(self, env):
        resource = Resource(env, capacity=1)
        granted = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = resource.request()
            yield env.timeout(1)
            req.cancel()  # withdraw before ever being granted
            granted.append(resource.queue_length)

        env.process(holder(env))
        env.process(impatient(env))
        env.run()
        assert granted == [0]

    def test_queue_length(self, env):
        resource = Resource(env, capacity=1)

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env):
            with resource.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=5)
        assert resource.queue_length == 1


class TestTally:
    def test_sums_grants_and_releases_of_every_reporting_pool(self, env):
        tally = Tally()
        fifo, ranked = Resource(env, capacity=3), PriorityResource(env, capacity=2)
        early = fifo.request(amount=2)  # granted before the pool starts reporting
        fifo.report_to(tally)
        ranked.report_to(tally)
        assert tally.in_use == 2
        held = ranked.request(amount=2)
        waiter = ranked.request()  # queued: counts only once granted
        assert tally.in_use == 4
        ranked.release(held)
        assert waiter.triggered and tally.in_use == 3
        early.cancel()
        waiter.cancel()
        assert tally.in_use == 0 == fifo.count + ranked.count


class TestPriorityResource:
    def test_lower_priority_value_served_first(self, env):
        resource = PriorityResource(env, capacity=1)
        order = []

        def proc(env, name, priority):
            with resource.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(5)

        env.process(holder(env))

        def submit(env):
            yield env.timeout(1)
            env.process(proc(env, "low", 10))
            env.process(proc(env, "high", 1))

        env.process(submit(env))
        env.run()
        assert order == ["high", "low"]


class TestContainer:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=0)

    def test_initial_level_validation(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=10, init=20)

    def test_put_and_get(self, env):
        container = Container(env, capacity=100, init=0)

        def proc(env):
            yield container.put(30)
            yield container.get(10)
            return container.level

        p = env.process(proc(env))
        env.run()
        assert p.value == 20

    def test_get_blocks_until_available(self, env):
        container = Container(env, capacity=100, init=0)
        log = []

        def consumer(env):
            yield container.get(50)
            log.append(("got", env.now))

        def producer(env):
            yield env.timeout(10)
            yield container.put(50)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert log == [("got", 10.0)]

    def test_put_blocks_when_full(self, env):
        container = Container(env, capacity=10, init=10)
        log = []

        def producer(env):
            yield container.put(5)
            log.append(("put", env.now))

        def consumer(env):
            yield env.timeout(7)
            yield container.get(6)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("put", 7.0)]

    def test_non_positive_amounts_rejected(self, env):
        container = Container(env, capacity=10)
        with pytest.raises(SimulationError):
            container.put(0)
        with pytest.raises(SimulationError):
            container.get(-1)
