"""Property-based tests of the optimized kernel's scheduling contract.

Random *schedule programs* — mixed delays, priorities, and cancellations
— executed on the kernel must preserve the total ``(time, priority,
FIFO)`` order, and ``len(env)`` must always equal the number of live
(non-cancelled) entries, in agreement with :meth:`Environment.peek`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

#: one scheduled operation: (delay, priority, cancel this one?)
_OPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from([0, 1]),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _schedule_program(env, ops):
    """Schedule one bare event per op; return (events, cancel_flags)."""
    events = []
    for delay, priority, _cancel in ops:
        event = env.event()
        event._ok = True
        event._value = None
        env.schedule(event, delay=delay, priority=priority)
        events.append(event)
    return events


@given(ops=_OPS)
@settings(max_examples=200, deadline=None)
def test_total_order_is_time_priority_fifo(ops):
    env = Environment()
    fired = []
    events = _schedule_program(env, ops)
    for index, event in enumerate(events):
        event.callbacks.append(
            lambda e, i=index: fired.append((env.now, i))
        )
    cancelled = {
        index for index, (_d, _p, cancel) in enumerate(ops) if cancel
    }
    for index in cancelled:
        assert env.cancel(events[index])
    env.run()

    live = [i for i in range(len(ops)) if i not in cancelled]
    # every live event fired exactly once, at its scheduled time...
    assert sorted(i for _t, i in fired) == live
    for now, index in fired:
        assert now == ops[index][0]
    # ...and in total (time, priority, schedule-sequence) order.
    expected = sorted(live, key=lambda i: (ops[i][0], ops[i][1], i))
    assert [i for _t, i in fired] == expected


@given(ops=_OPS)
@settings(max_examples=200, deadline=None)
def test_len_counts_live_entries_and_agrees_with_peek(ops):
    env = Environment()
    events = _schedule_program(env, ops)
    assert len(env) == len(ops)

    cancelled = set()
    for index, (_d, _p, cancel) in enumerate(ops):
        if cancel:
            assert env.cancel(events[index])
            cancelled.add(index)
            # cancelling twice is a no-op, not a double-count
            assert not env.cancel(events[index])
    assert len(env) == len(ops) - len(cancelled)

    live = [i for i in range(len(ops)) if i not in cancelled]
    if live:
        next_index = min(live, key=lambda i: (ops[i][0], ops[i][1], i))
        assert env.peek() == ops[next_index][0]
    else:
        assert env.peek() == float("inf")
        assert len(env) == 0
    # peek may garbage-collect tombstones but never changes liveness
    assert len(env) == len(live)

    env.run()
    assert len(env) == 0
    assert env.peek() == float("inf")


@given(
    ops=_OPS,
    victim_data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_cancellation_during_the_run_is_honoured(ops, victim_data):
    """A process cancelling future events mid-run: victims never fire."""
    env = Environment()
    fired = []
    events = _schedule_program(env, ops)
    for index, event in enumerate(events):
        event.callbacks.append(lambda e, i=index: fired.append(i))

    count = len(ops)
    victims = victim_data.draw(
        st.sets(st.integers(min_value=0, max_value=count - 1), max_size=count)
    )

    def assassin(env):
        # act at t=0 URGENT-ish: before any positive-delay event fires
        for index in sorted(victims):
            env.cancel(events[index])
        yield env.timeout(0.0)

    env.process(assassin(env))
    env.run()

    # zero-delay victims may have fired before the assassin ran at t=0
    # (the process bootstrap is itself an event); all others must not.
    for index in victims:
        if ops[index][0] > 0.0:
            assert index not in fired
    survivors = {i for i in range(count) if i not in victims}
    assert survivors <= set(fired)
    assert len(env) == 0


@given(delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_cancelled_timeouts_never_resume_anyone(delays):
    """Timeout cancellation composes with ordinary timeouts."""
    env = Environment()
    timeouts = [env.timeout(delay) for delay in delays]
    for victim in timeouts[::2]:
        assert env.cancel(victim)
    env.run()
    for index, timeout in enumerate(timeouts):
        assert timeout.processed == (index % 2 == 1)
    assert len(env) == 0


def test_cancel_head_then_schedule_same_timestamp():
    """Cancelling the queue head then scheduling at its exact timestamp.

    The tombstone of the cancelled head must be discarded without
    swallowing the newcomer that lands on the same ``(time, priority)``
    slot.
    """
    env = Environment()
    fired = []
    head = env.timeout(5.0)
    later = env.timeout(7.0)
    head.callbacks.append(lambda e: fired.append("head"))
    later.callbacks.append(lambda e: fired.append("later"))
    assert env.peek() == 5.0
    assert env.cancel(head)

    replacement = env.timeout(5.0)
    replacement.callbacks.append(lambda e: fired.append("replacement"))
    assert len(env) == 2
    assert env.peek() == 5.0
    env.run()
    assert fired == ["replacement", "later"]
    assert len(env) == 0


def test_cancel_head_mid_run_then_same_timestamp_schedule():
    """The same interaction arranged *during* the run by a process."""
    env = Environment()
    fired = []

    def saboteur(env, victim):
        yield env.timeout(1.0)
        assert env.cancel(victim)
        replacement = env.timeout(victim_delay - env.now)
        replacement.callbacks.append(lambda e: fired.append("replacement"))

    victim_delay = 4.0
    victim = env.timeout(victim_delay)
    victim.callbacks.append(lambda e: fired.append("victim"))
    env.process(saboteur(env, victim))
    env.run()
    assert fired == ["replacement"]
