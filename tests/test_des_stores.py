"""Tests for Store (repro.des.stores)."""

import pytest

from repro.des import Environment, Store
from repro.utils.errors import SimulationError


class TestStore:
    def test_put_then_get_is_fifo(self, env):
        store = Store(env)
        received = []

        def producer(env):
            for item in ["a", "b", "c"]:
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == ["a", "b", "c"]

    def test_get_blocks_until_item_available(self, env):
        store = Store(env)
        log = []

        def consumer(env):
            item = yield store.get()
            log.append((item, env.now))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert log == [("late", 5.0)]

    def test_bounded_store_blocks_put(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put(1)
            yield store.put(2)
            log.append(("second put done", env.now))

        def consumer(env):
            yield env.timeout(10)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("second put done", 10.0)]

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_len_reflects_items(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("x")
            yield store.put("y")

        env.process(proc(env))
        env.run()
        assert len(store) == 2

    def test_waiting_gets_are_served_in_request_order(self, env):
        store = Store(env)
        received = []

        def consumer(env, name):
            item = yield store.get()
            received.append((name, item))

        def producer(env):
            yield env.timeout(1)
            for item in ["first", "second", "third"]:
                yield store.put(item)

        for name in ["a", "b", "c"]:
            env.process(consumer(env, name))
        env.process(producer(env))
        env.run()
        assert received == [("a", "first"), ("b", "second"), ("c", "third")]

    def test_waiting_puts_are_served_in_request_order(self, env):
        store = Store(env, capacity=1)
        received = []

        def producer(env, item):
            yield store.put(item)

        def consumer(env):
            yield env.timeout(1)
            for _ in range(3):
                received.append((yield store.get()))

        for item in ["x", "y", "z"]:
            env.process(producer(env, item))
        env.process(consumer(env))
        env.run()
        assert received == ["x", "y", "z"]
        assert len(store) == 0
