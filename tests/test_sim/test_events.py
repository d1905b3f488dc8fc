"""Unit tests for the event layer."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event


def test_event_starts_pending(env):
    event = Event(env)
    assert not event.triggered
    assert not event.processed
    with pytest.raises(AttributeError):
        _ = event.value


def test_succeed_carries_value(env):
    event = Event(env)
    event.succeed("payload")
    assert event.triggered and event.ok
    assert event.value == "payload"


def test_succeed_twice_raises(env):
    event = Event(env)
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_then_succeed_raises(env):
    event = Event(env)
    event.fail(ValueError("boom"))
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_requires_exception(env):
    event = Event(env)
    with pytest.raises(TypeError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_crashes_run(env):
    event = Event(env)
    event.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failure_is_silent(env):
    event = Event(env)
    event.fail(RuntimeError("quiet"))
    event.defused = True
    env.run()  # no raise


def test_callbacks_fire_in_order(env):
    event = Event(env)
    seen = []
    event.callbacks.append(lambda e: seen.append(1))
    event.callbacks.append(lambda e: seen.append(2))
    event.succeed()
    env.run()
    assert seen == [1, 2]


def test_timeout_fires_at_delay(env):
    timeout = env.timeout(5.0, value="v")
    env.run()
    assert env.now == 5.0
    assert timeout.processed and timeout.value == "v"


def test_timeout_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1.0)


@pytest.mark.parametrize("pool", [True, False])
def test_nan_delay_rejected_and_clock_stays(pool):
    """NaN compares false both ways, so only ``not delay >= 0`` rejects it."""
    env = Environment(pool=pool)
    env.timeout(1.0)
    env.run()  # with the pool on, the next timeout() is a recycled one
    nan = float("nan")
    with pytest.raises(ValueError):
        env.timeout(nan)
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=nan)
    with pytest.raises(ValueError):
        env.run(until=nan)
    assert env.now == 1.0
    assert len(env) == 0
    env.timeout(2.0)
    env.run()
    assert env.now == 3.0


def test_timeouts_fire_in_scheduling_order_at_same_instant(env):
    order = []
    for tag in ("a", "b", "c"):
        t = env.timeout(1.0, value=tag)
        t.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == ["a", "b", "c"]


def test_anyof_settles_on_first(env):
    def proc(env):
        slow, fast = env.timeout(10, "slow"), env.timeout(2, "fast")
        result = yield slow | fast
        assert list(result.values()) == ["fast"]
        assert env.now == 2.0

    env.process(proc(env))
    env.run()


def test_allof_waits_for_all(env):
    def proc(env):
        result = yield env.timeout(1, "x") & env.timeout(3, "y")
        assert sorted(result.values()) == ["x", "y"]
        assert env.now == 3.0

    env.process(proc(env))
    env.run()


def test_empty_allof_succeeds_immediately(env):
    condition = AllOf(env, [])
    env.run()
    assert condition.processed and condition.ok


def test_empty_anyof_succeeds_immediately(env):
    condition = AnyOf(env, [])
    env.run()
    assert condition.processed


def test_condition_with_failed_child_fails(env):
    def proc(env):
        bad = Event(env)
        bad.fail(ValueError("child failed"))
        with pytest.raises(ValueError, match="child failed"):
            yield bad | env.timeout(10)

    process = env.process(proc(env))
    env.run()
    assert process.ok


def test_condition_mixed_environments_rejected():
    env_a, env_b = Environment(), Environment()
    with pytest.raises(ValueError):
        AllOf(env_a, [Event(env_a), Event(env_b)])


def test_condition_with_already_processed_child(env):
    done = env.timeout(0)
    env.run()
    assert done.processed

    def proc(env):
        result = yield done & env.timeout(1)
        assert done in result

    env.process(proc(env))
    env.run()


def test_nested_conditions(env):
    def proc(env):
        a, b, c = env.timeout(1, "a"), env.timeout(2, "b"), env.timeout(9, "c")
        result = yield (a & b) | c
        assert env.now == 2.0
        return result

    process = env.process(proc(env))
    env.run()
    assert process.ok
