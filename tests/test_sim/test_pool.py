"""Property tests of the event allocation pool's safety contract.

The kernel recycles processed ``Timeout``/bare ``Event`` objects through
a per-environment freelist, guarded by a refcount check: an event the
test (or any other code) still holds must never be handed out again
while held, and a recycled object must come back with pristine state.
Pooling must be observable *only* through ``events_reused`` — never
through values, identities, or callback behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.instrument import KernelProbe
from repro.sim import Environment, resolve_pool
from repro.sim.core import DEFAULT_POOL

#: one timeout per op: (delay, hold a reference to it?)
_OPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=_OPS)
@settings(max_examples=200, deadline=None)
def test_held_events_never_recycled_and_values_survive(ops):
    env = Environment()
    held = {}
    fired = {}
    for index, (delay, hold) in enumerate(ops):
        timeout = env.timeout(delay, value=index)
        timeout.callbacks.append(
            lambda e, i=index: fired.setdefault(i, e.value)
        )
        if hold:
            held[index] = timeout
    env.run()

    # every timeout fired with the value it was created with — recycling
    # (which resets _value) must happen strictly after callbacks
    assert fired == {i: i for i in range(len(ops))}
    # held events keep their settled state and stay distinct objects
    for index, timeout in held.items():
        assert timeout.processed and timeout.ok and timeout.value == index
    assert len({id(t) for t in held.values()}) == len(held)
    # the pool never hands a held object back out
    for _ in range(len(ops)):
        fresh = env.timeout(0.0)
        assert all(fresh is not t for t in held.values())


@given(ops=_OPS)
@settings(max_examples=100, deadline=None)
def test_recycled_timeouts_come_back_pristine(ops):
    env = Environment()
    for index, (delay, _hold) in enumerate(ops):
        env.timeout(delay, value=index)
    env.run()
    # whatever the pool now holds must behave like freshly-built objects
    for index in range(len(ops)):
        timeout = env.timeout(1.0, value=("fresh", index))
        assert not timeout.processed
        assert timeout.triggered  # a Timeout is born scheduled
        assert timeout.callbacks == []
        assert timeout._value == ("fresh", index)
        assert timeout.ok and not timeout.defused
    event = env.event()
    assert not event.triggered and not event.processed
    assert event.callbacks == [] and event._ok is None


def test_reuse_counter_counts_only_recycled_objects():
    env = Environment()
    with KernelProbe() as probe:
        for wave in range(4):
            for i in range(100):
                env.timeout(float(i % 7))
            env.run()
    # first wave allocates, the three others recycle every object
    assert env.events_reused == 300
    assert probe.stats.events_reused == 300


def test_pool_opt_out_via_argument_and_env_var(monkeypatch):
    env = Environment(pool=False)
    for _ in range(3):
        for i in range(50):
            env.timeout(float(i))
        env.run()
    assert env.events_reused == 0
    assert env._timeout_pool is None and env._event_pool is None

    monkeypatch.setenv("REPRO_POOL", "0")
    assert resolve_pool(None) is False
    via_env = Environment()
    assert via_env._timeout_pool is None
    monkeypatch.setenv("REPRO_POOL", "1")
    assert resolve_pool(None) is True
    monkeypatch.delenv("REPRO_POOL")
    assert resolve_pool(None) is DEFAULT_POOL


def test_condition_children_are_not_recycled_while_waited_on():
    env = Environment()

    def waiter():
        first = env.timeout(1.0, value="a")
        second = env.timeout(2.0, value="b")
        result = yield first & second
        assert result == {first: "a", second: "b"}

    env.process(waiter())
    # flood with other timeouts so the pool is busy while the condition
    # still references its children
    for i in range(200):
        env.timeout(0.5 + (i % 5) * 0.1)
    env.run()
