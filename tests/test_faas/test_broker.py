"""Unit tests for the message broker."""

import pytest

from repro.faas.broker import Broker, FASTLANE_TOPIC


def test_topic_created_on_demand(env):
    broker = Broker(env)
    topic = broker.topic("t1")
    assert broker.topic("t1") is topic
    assert broker.topic_names() == ["t1"]


def test_publish_delivery_latency(env):
    broker = Broker(env, publish_latency=0.5)
    received = []

    def consumer(env):
        message = yield broker.get("t")
        received.append((message, env.now))

    env.process(consumer(env))
    broker.publish("t", "hello")
    env.run()
    assert received == [("hello", 0.5)]


def test_zero_latency_publish_is_synchronous(env):
    broker = Broker(env, publish_latency=0.0)
    broker.publish("t", "x")
    assert broker.depth("t") == 1


def test_negative_latency_rejected(env):
    with pytest.raises(ValueError):
        Broker(env, publish_latency=-0.1)


def test_per_topic_fifo_order(env):
    broker = Broker(env, publish_latency=0.01)
    received = []

    def consumer(env):
        while True:
            received.append((yield broker.get("t")))

    env.process(consumer(env))
    for i in range(10):
        broker.publish("t", i)
    env.run(until=1)
    assert received == list(range(10))


def test_move_all_is_atomic_and_instant(env):
    broker = Broker(env, publish_latency=0.01)
    for i in range(4):
        broker.publish("src", i)
    env.run(until=1)
    moved = broker.move_all("src", FASTLANE_TOPIC)
    assert moved == 4
    assert broker.depth("src") == 0
    assert broker.depth(FASTLANE_TOPIC) == 4


def test_move_all_wakes_destination_getter(env):
    broker = Broker(env, publish_latency=0.0)
    got = []

    def consumer(env):
        got.append((yield broker.get("dst")))

    env.process(consumer(env))
    broker.publish("src", "m")
    env.run(until=0.1)
    broker.move_all("src", "dst")
    env.run(until=0.2)
    assert got == ["m"]


def test_published_counts(env):
    broker = Broker(env)
    broker.publish("a", 1)
    broker.publish("a", 2)
    broker.publish("b", 3)
    assert broker.published_counts == {"a": 2, "b": 1}


def test_multiple_consumers_share_topic_fifo(env):
    """The fast lane is multi-consumer: each message goes to exactly one."""
    broker = Broker(env, publish_latency=0.0)
    got = {"c1": [], "c2": []}

    def consumer(env, tag):
        while True:
            got[tag].append((yield broker.get(FASTLANE_TOPIC)))

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))

    def producer(env):
        for i in range(6):
            broker.publish(FASTLANE_TOPIC, i)
            yield env.timeout(1)

    env.process(producer(env))
    env.run(until=10)
    assert sorted(got["c1"] + got["c2"]) == list(range(6))
    assert got["c1"] and got["c2"]  # both actually served


# ----------------------------------------------------------------------
# delivery timing and kernel cost
# ----------------------------------------------------------------------
def test_delivery_lands_exactly_one_latency_after_publish(env):
    broker = Broker(env, publish_latency=0.002)
    received = []

    def consumer(env):
        while True:
            message = yield broker.get("t")
            received.append((message, env.now))

    def producer(env):
        for at in (0.3, 1.7, 12.25):
            yield env.timeout(at - env.now)
            broker.publish("t", at)

    env.process(consumer(env))
    env.process(producer(env))
    env.run(until=20)
    assert received == [(at, at + 0.002) for at in (0.3, 1.7, 12.25)]


def test_same_instant_publishes_keep_per_topic_fifo(env):
    broker = Broker(env, publish_latency=0.01)
    received = {"a": [], "b": []}

    def consumer(env, name):
        while True:
            received[name].append((yield broker.get(name)))

    def producer(env):
        yield env.timeout(0.5)
        for i in range(50):
            broker.publish("a" if i % 3 else "b", i)

    env.process(consumer(env, "a"))
    env.process(consumer(env, "b"))
    env.process(producer(env))
    env.run(until=1)
    assert received["a"] == [i for i in range(50) if i % 3]
    assert received["b"] == [i for i in range(50) if not i % 3]


def test_delivery_precedes_a_same_instant_wait_started_after_publish(env):
    """The delivery timer is scheduled inside ``publish``, so it fires
    before a wait of the same length the publisher starts right after."""
    broker = Broker(env, publish_latency=0.25)
    seen = []

    def publisher(env):
        yield env.timeout(1.0)
        broker.publish("t", "m")
        yield env.timeout(0.25)
        seen.append((env.now, broker.peek_depth("t")))

    env.process(publisher(env))
    env.run()
    assert seen == [(1.25, 1)]


def test_zero_latency_publish_wakes_getter_without_a_timer(env):
    broker = Broker(env, publish_latency=0.0)
    got = []

    def consumer(env):
        got.append(((yield broker.get("t")), env.now))

    env.process(consumer(env))
    env.run()
    broker.publish("t", "x")
    # the getter is settled inside publish: only its wake-up is queued
    assert len(env) == 1
    env.run()
    assert got == [("x", 0.0)]


def test_publish_spawns_no_process(env, monkeypatch):
    from repro.sim.process import Process

    spawned = []
    original = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    broker = Broker(env, publish_latency=0.002)
    for i in range(100):
        broker.publish(f"t{i % 4}", i)
    assert spawned == []
    assert len(env) == 100  # one timer per message, nothing else
    env.run()
    assert spawned == []
    assert sum(broker.peek_depth(f"t{k}") for k in range(4)) == 100


def test_subscriber_gets_each_message_at_delivery(env):
    broker = Broker(env, publish_latency=0.25)
    received = []
    broker.subscribe("done", lambda message: received.append((message, env.now)))
    for i in range(3):
        broker.publish("done", i)
    assert len(env) == 3  # still one timer per message
    env.run()
    assert received == [(0, 0.25), (1, 0.25), (2, 0.25)]
    assert broker.peek_depth("done") == 0
    assert broker.published_counts["done"] == 3


def test_zero_latency_subscriber_is_called_inline(env):
    broker = Broker(env, publish_latency=0.0)
    received = []
    broker.subscribe("done", received.append)
    broker.publish("done", "x")
    assert received == ["x"]
    assert len(env) == 0


def test_a_topic_has_one_subscriber(env):
    broker = Broker(env)
    broker.subscribe("done", lambda message: None)
    with pytest.raises(ValueError):
        broker.subscribe("done", lambda message: None)
