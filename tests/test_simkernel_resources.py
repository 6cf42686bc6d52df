"""Unit tests for FIFO resources."""

import pytest

from repro.simkernel import Environment, Resource


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        env.run(until=0)
        assert r1.triggered and r2.triggered
        assert not r3.triggered
        assert res.count == 2
        assert res.queue_length == 1

    def test_release_grants_next_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        env.run(until=0)
        assert not r2.triggered
        res.release(r1)
        env.run(until=0)
        assert r2.triggered

    def test_fifo_ordering(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, tag, hold):
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(hold)

        for tag in ("a", "b", "c"):
            env.process(worker(env, res, tag, 1))
        env.run(until=10)
        assert order == ["a", "b", "c"]

    def test_context_manager_releases(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        env.process(worker(env, res))
        env.run(until=5)
        assert res.count == 0

    def test_release_of_waiting_request_cancels_it(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()  # granted immediately; occupies the single slot
        r2 = res.request()
        env.run(until=0)
        res.release(r2)  # r2 never granted: this must cancel, not free
        assert res.count == 1
        assert res.queue_length == 0

    def test_busy_time_accounting(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(3)

        env.process(worker(env, res))
        env.run(until=10)
        assert res.busy_time() == pytest.approx(3.0)
