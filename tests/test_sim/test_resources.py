"""Unit tests for resources and stores."""

import pytest

from repro.sim import FilterStore, Interrupt, PriorityItem, PriorityStore, Resource, Store


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------
def test_resource_grants_up_to_capacity(env):
    resource = Resource(env, capacity=2)
    grants = []

    def user(env, tag, hold):
        with resource.request() as request:
            yield request
            grants.append((tag, env.now))
            yield env.timeout(hold)

    for i in range(3):
        env.process(user(env, i, 10))
    env.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_resource_fifo_order(env):
    resource = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        with resource.request() as request:
            yield request
            order.append(tag)
            yield env.timeout(1)

    for i in range(5):
        env.process(user(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_release_is_idempotent(env):
    resource = Resource(env, capacity=1)

    def user(env):
        request = resource.request()
        yield request
        resource.release(request)
        resource.release(request)  # second release: no-op

    env.process(user(env))
    env.run()
    assert resource.count == 0


def test_resource_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_queue_length(env):
    resource = Resource(env, capacity=1)

    def holder(env):
        with resource.request() as request:
            yield request
            yield env.timeout(10)

    def waiter(env):
        with resource.request() as request:
            yield request

    env.process(holder(env))
    env.process(waiter(env))
    env.run(until=5)
    assert resource.count == 1
    assert resource.queue_length == 1


def test_cancelled_request_leaves_queue(env):
    resource = Resource(env, capacity=1)

    def holder(env):
        with resource.request() as request:
            yield request
            yield env.timeout(10)

    def impatient(env):
        request = resource.request()
        try:
            yield request
        except Interrupt:
            request.cancel()

    env.process(holder(env))
    impatient_proc = env.process(impatient(env))

    def killer(env):
        yield env.timeout(2)
        impatient_proc.interrupt()

    env.process(killer(env))
    env.run(until=5)
    assert resource.queue_length == 0


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_then_get(env):
    store = Store(env)
    store.put("a")

    def consumer(env):
        item = yield store.get()
        return item

    proc = env.process(consumer(env))
    env.run()
    assert proc.value == "a"


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late", 4.0)]


def test_store_fifo_items_and_getters(env):
    store = Store(env)
    order = []

    def consumer(env, tag):
        item = yield store.get()
        order.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1)
        store.put("x")
        store.put("y")

    env.process(producer(env))
    env.run()
    assert order == [("first", "x"), ("second", "y")]


def test_store_drain_atomically_empties(env):
    store = Store(env)
    for i in range(5):
        store.put(i)
    drained = store.drain()
    assert drained == [0, 1, 2, 3, 4]
    assert len(store) == 0


def test_store_drain_does_not_wake_getters(env):
    store = Store(env)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run(until=1)
    store.drain()
    env.run(until=2)
    assert got == []
    store.put("finally")
    env.run(until=3)
    assert got == ["finally"]


def test_store_cancelled_getter_skipped(env):
    store = Store(env)
    got = []

    def canceller(env):
        getter = store.get()
        yield env.timeout(1)
        getter.cancel()

    def consumer(env):
        got.append((yield store.get()))

    env.process(canceller(env))
    env.process(consumer(env))

    def producer(env):
        yield env.timeout(5)
        store.put("item")

    env.process(producer(env))
    env.run()
    assert got == ["item"]


def test_peek_all_does_not_consume(env):
    store = Store(env)
    store.put(1)
    store.put(2)
    assert store.peek_all() == [1, 2]
    assert len(store) == 2


# ----------------------------------------------------------------------
# FilterStore / PriorityStore
# ----------------------------------------------------------------------
def test_filter_store_matches_predicate(env):
    store = FilterStore(env)
    store.put({"kind": "a"})
    store.put({"kind": "b"})

    def consumer(env):
        item = yield store.get(lambda m: m["kind"] == "b")
        return item

    proc = env.process(consumer(env))
    env.run()
    assert proc.value == {"kind": "b"}
    assert store.peek_all() == [{"kind": "a"}]


def test_filter_store_waits_for_matching_item(env):
    store = FilterStore(env)
    store.put(1)

    def consumer(env):
        item = yield store.get(lambda v: v > 10)
        return (item, env.now)

    def producer(env):
        yield env.timeout(3)
        store.put(99)

    proc = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert proc.value == (99, 3.0)


def test_priority_store_orders_items(env):
    store = PriorityStore(env)
    for priority, payload in [(3, "c"), (1, "a"), (2, "b")]:
        store.put(PriorityItem(priority, payload))

    def consumer(env):
        out = []
        for _ in range(3):
            item = yield store.get()
            out.append(item.item)
        return out

    proc = env.process(consumer(env))
    env.run()
    assert proc.value == ["a", "b", "c"]


# ----------------------------------------------------------------------
# StoreClaim
# ----------------------------------------------------------------------
def test_claim_takes_at_put_time_without_an_event(env):
    store = Store(env)
    got = []
    claim = store.claim(got.append)
    assert not claim.taken
    store.put("a")
    store.put("b")
    assert got == ["a"] and claim.item == "a" and claim.taken
    assert len(env) == 0  # nothing scheduled
    assert store.peek_all() == ["b"]


def test_claim_of_a_buffered_item_is_immediate(env):
    store = Store(env)
    store.put("a")
    got = []
    claim = store.claim(got.append)
    assert got == ["a"] and claim.taken
    assert len(store) == 0


def test_claims_and_gets_share_one_fifo(env):
    store = Store(env)
    getter = store.get()
    claim = store.claim(lambda item: None)
    later = store.get()
    store.put(1)
    store.put(2)
    store.put(3)
    # the claim takes the item a get queued in its place would have taken
    assert (getter.value, claim.item, later.value) == (1, 2, 3)


def test_cancelled_claim_is_skipped(env):
    store = Store(env)
    first, second = [], []
    claim = store.claim(first.append)
    store.claim(second.append)
    claim.cancel()
    store.put("x")
    assert (first, second) == ([], ["x"])
    assert not claim.taken
