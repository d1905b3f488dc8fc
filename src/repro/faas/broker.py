"""An in-simulation message broker standing in for Apache Kafka.

Provides what the paper's OpenWhisk deployment relies on:

* named FIFO **topics** with consumer pull semantics (each invoker owns one
  topic; the controller owns ``completed`` and ``health``),
* the global **fast-lane topic** shared by all invokers (Sec. III-C),
* atomic **drain** of a topic (used when the controller re-routes a
  departing invoker's unpulled requests),
* a small, constant publish latency: a message becomes visible to
  consumers ``publish_latency`` seconds after ``publish`` returns.

A delayed publish is one kernel :class:`~repro.sim.Timeout` whose
callback deposits the message into the topic.  No process is spawned per
message, so a publish costs exactly one event.  Timeouts due at the same
instant fire in scheduling order, which keeps each topic FIFO.

Replication, partitioning and broker failures are out of scope — the paper
treats Kafka as reliable transport, and so do we (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Dict, List

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
    def publish(self, name: str, message: Any) -> None:
        """Deliver *message* to *name* after the publish latency.

        Per-topic FIFO is preserved: deliveries are scheduled through the
        event queue, whose ordering is deterministic for equal timestamps.
        A zero latency deposits the message before ``publish`` returns.
        """
        self.published_counts[name] = self.published_counts.get(name, 0) + 1
        store = self.topic(name)
        if self.publish_latency == 0:
            store.put(message)
            return
        self.env.timeout(self.publish_latency).callbacks.append(
            lambda _event: store.put(message)
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
