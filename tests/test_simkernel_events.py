"""Unit tests for the simulation kernel's event primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    AllOf,
    AnyOf,
    Environment,
)


class TestEventLifecycle:
    def test_fresh_event_is_pending(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(RuntimeError):
            env.event().value

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event().succeed(41)
        assert event.triggered
        assert event.ok
        assert event.value == 41

    def test_double_trigger_raises(self):
        env = Environment()
        event = env.event().succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_sets_not_ok(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("boom"))
        event.defuse()
        assert event.triggered
        assert not event.ok

    def test_callbacks_run_on_processing(self):
        env = Environment()
        seen = []
        event = env.event()
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run(until=0)
        assert seen == ["payload"]

    def test_unhandled_failure_crashes_run(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run(until=1)


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_negative_then_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(1.0, then=-1e-6)
        assert len(env._timeline) == 0

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
           delay=st.floats(0, 1e3, allow_nan=False, allow_infinity=False),
           then=st.floats(0, 1e3, allow_nan=False, allow_infinity=False))
    def test_then_fires_where_two_chained_timeouts_do(self, start, delay, then):
        """``timeout(a, then=b)`` is ``timeout(a)`` then ``timeout(b)``,
        to the bit, from one queue entry."""
        chained = Environment(start)

        def chain():
            yield chained.timeout(delay)
            yield chained.timeout(then)

        chained.run(until=chained.process(chain()))

        folded = Environment(start)
        timeout = folded.timeout(delay, then=then)
        assert len(folded._timeline) == 1
        folded.run(until=timeout)
        assert folded.now == chained.now

    def test_timeout_fires_at_delay(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(5.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)
        assert fired == [5.5]

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc(env):
            value = yield env.timeout(1, value="tick")
            got.append(value)

        env.process(proc(env))
        env.run(until=2)
        assert got == ["tick"]

    def test_zero_delay_timeout_runs_same_instant(self):
        env = Environment()
        order = []

        def proc(env):
            order.append(env.now)
            yield env.timeout(0)
            order.append(env.now)

        env.process(proc(env))
        env.run(until=1)
        assert order == [0.0, 0.0]


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(3, value="b")
            results = yield AllOf(env, [t1, t2])
            done.append((env.now, sorted(results.values())))

        env.process(proc(env))
        env.run(until=5)
        assert done == [(3.0, ["a", "b"])]

    def test_any_of_fires_on_first(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(3, value="slow")
            results = yield AnyOf(env, [t1, t2])
            done.append((env.now, list(results.values())))

        env.process(proc(env))
        env.run(until=5)
        assert done == [(1.0, ["fast"])]

    def test_empty_all_of_triggers_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        assert cond.triggered

    def test_all_of_mixed_environments_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(ValueError):
            AllOf(env1, [env2.timeout(1)])


class TestRunLoop:
    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=42)
        assert env.now == 42

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "result"

        process = env.process(proc(env))
        assert env.run(until=process) == "result"

    def test_run_without_until_drains_queue(self):
        env = Environment()
        ticks = []

        def proc(env):
            for _ in range(3):
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(proc(env))
        env.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(7)
        assert env.peek() == 7.0

    def test_peek_empty_is_inf(self):
        env = Environment()
        assert env.peek() == float("inf")

    def test_events_process_in_time_order(self):
        env = Environment()
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 3, "c"))
        env.process(proc(env, 1, "a"))
        env.process(proc(env, 2, "b"))
        env.run(until=5)
        assert order == ["a", "b", "c"]

    def test_fifo_within_same_timestamp(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(proc(env, tag))
        env.run(until=2)
        assert order == ["first", "second", "third"]
