"""An in-simulation message broker standing in for Apache Kafka.

Provides what the paper's OpenWhisk deployment relies on:

* named FIFO **topics** with consumer pull semantics (each invoker owns one
  topic; the controller owns ``health``),
* **subscribed** topics whose one consumer is called with each message at
  delivery instead of pulling it (the controller's ``completed``),
* the global **fast-lane topic** shared by all invokers (Sec. III-C),
* atomic **drain** of a topic (used when the controller re-routes a
  departing invoker's unpulled requests),
* a small, constant publish latency: a message becomes visible to
  consumers ``publish_latency`` seconds after ``publish`` returns.

A delayed publish is one kernel :class:`~repro.sim.Timeout` whose
callback deposits the message into the topic, or hands it to the topic's
subscriber.  No process is spawned per message, so a publish costs
exactly one event.  Timeouts due at the same instant fire in scheduling
order, which keeps each topic FIFO.

Replication, partitioning and broker failures are out of scope — the paper
treats Kafka as reliable transport, and so do we (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.sim import Environment, Store
from repro.sim.resources import StoreGet

#: the global priority topic for re-routed requests
FASTLANE_TOPIC = "fastlane"
#: completions flow back to the controller here
COMPLETED_TOPIC = "completed"
#: registration / status pings flow to the controller here
HEALTH_TOPIC = "health"


class Broker:
    """Topic registry; each delayed publish is one timer event."""

    def __init__(self, env: Environment, publish_latency: float = 0.002) -> None:
        if publish_latency < 0:
            raise ValueError("publish_latency must be >= 0")
        self.env = env
        self.publish_latency = publish_latency
        self._topics: Dict[str, Store] = {}
        #: topic -> its one consumer, called with each message at delivery
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        #: total messages ever published, per topic (diagnostics)
        self.published_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def topic(self, name: str) -> Store:
        """Get or create a topic."""
        store = self._topics.get(name)
        if store is None:
            store = Store(self.env)
            self._topics[name] = store
        return store

    def topic_names(self) -> List[str]:
        return sorted(self._topics)

    def depth(self, name: str) -> int:
        """Buffered (unconsumed) message count."""
        return len(self.topic(name))

    # ------------------------------------------------------------------
    def subscribe(self, name: str, handler: Callable[[Any], None]) -> None:
        """Make *handler* the one consumer of topic *name*.

        Every message published to the topic afterwards is passed to
        ``handler(message)`` when its publish timer fires, instead of being
        buffered for a pull.  Subscribe before the first publish.
        """
        if name in self._handlers:
            raise ValueError(f"topic {name!r} already has a subscriber")
        self._handlers[name] = handler

    def publish(self, name: str, message: Any) -> None:
        """Deliver *message* to *name* after the publish latency.

        Per-topic FIFO is preserved: deliveries are scheduled through the
        event queue, whose ordering is deterministic for equal timestamps.
        A zero latency delivers the message before ``publish`` returns.
        """
        self.published_counts[name] = self.published_counts.get(name, 0) + 1
        deliver = self._handlers.get(name)
        if deliver is None:
            deliver = self.topic(name).put
        if self.publish_latency == 0:
            deliver(message)
            return
        self.env.timeout(self.publish_latency).callbacks.append(
            lambda _event: deliver(message)
        )

    def peek_depth(self, name: str) -> int:
        """Queued message count without creating the topic.

        Unlike :meth:`depth`, asking about a topic nobody has published
        to does not materialize an empty store — supply policies poll
        backlog through this, and observation must never mutate state.
        """
        store = self._topics.get(name)
        return 0 if store is None else len(store)

    def get(self, name: str) -> StoreGet:
        """An event resolving with the next message of the topic."""
        return self.topic(name).get()

    def drain(self, name: str) -> List[Any]:
        """Atomically remove and return all buffered messages of a topic."""
        return self.topic(name).drain()

    def move_all(self, source: str, destination: str) -> int:
        """Atomically move buffered messages between topics (no latency:
        this models a broker-side ownership change, not a re-send)."""
        messages = self.drain(source)
        destination_store = self.topic(destination)
        for message in messages:
            destination_store.put(message)
        return len(messages)
