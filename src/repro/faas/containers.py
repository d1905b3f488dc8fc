"""Per-invoker container pools: warm reuse, cold starts, LRU eviction.

OpenWhisk keeps containers warm per function: a repeat invocation lands in
an existing container in milliseconds, a first (or evicted) one pays the
cold start.  The pool enforces the node's container capacity; when full,
an idle container of another function is evicted, and if everything is
busy the caller waits for a release in FIFO order.  The pool itself never
blocks: :meth:`ContainerPool.take` answers at once, and the invoker's
executions step through the start-up delays on kernel timers.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.faas.runtime import ContainerRuntime
from repro.sim import Environment, Event

_container_ids = itertools.count(1)


class Container:
    """One container bound to a function's image and name."""

    __slots__ = ("container_id", "function", "busy", "created_at", "last_used")

    def __init__(self, function: str, now: float) -> None:
        self.container_id = next(_container_ids)
        self.function = function
        self.busy = False
        self.created_at = now
        self.last_used = now

    def __repr__(self) -> str:  # pragma: no cover
        state = "busy" if self.busy else "warm"
        return f"<Container {self.container_id} {self.function} {state}>"


class ContainerPool:
    """Warm-container management for one invoker."""

    def __init__(
        self,
        env: Environment,
        runtime: ContainerRuntime,
        capacity: int,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.runtime = runtime
        self.capacity = capacity
        self._containers: List[Container] = []
        self._waiters: List[Event] = []
        #: statistics
        self.cold_starts = 0
        self.warm_hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._containers)

    @property
    def busy_count(self) -> int:
        return sum(1 for c in self._containers if c.busy)

    def warm_for(self, function: str) -> Optional[Container]:
        """An idle warm container for *function*, most recently used first."""
        candidates = [
            c for c in self._containers if not c.busy and c.function == function
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.last_used)

    # ------------------------------------------------------------------
    def take(self, function: str) -> Optional[Tuple[Container, bool]]:
        """Non-blocking acquisition: ``(container, cold)`` or ``None``.

        A warm hit returns the most recently used idle container of
        *function*.  Otherwise a new container is created, when the pool
        has room or an idle container of another function can be evicted
        (least recently used first), and ``cold`` is True: the caller
        waits out the runtime's cold start, then calls :meth:`started`.
        ``None`` means every container is busy; :meth:`wait` for a
        release and take again.
        """
        container = self.warm_for(function)
        if container is not None:
            container.busy = True
            container.last_used = self.env.now
            self.warm_hits += 1
            return container, False
        if self.size >= self.capacity:
            evictable = [c for c in self._containers if not c.busy]
            if not evictable:
                return None
            victim = min(evictable, key=lambda c: c.last_used)
            self._containers.remove(victim)
            self.evictions += 1
        container = Container(function, self.env.now)
        container.busy = True
        self._containers.append(container)
        self.cold_starts += 1
        return container, True

    def started(self, container: Container) -> None:
        """A cold container finished its start-up."""
        container.last_used = self.env.now

    def wait(self) -> Event:
        """An event that the next :meth:`release` succeeds (FIFO)."""
        waiter = Event(self.env)
        self._waiters.append(waiter)
        return waiter

    def withdraw(self, waiter: Event) -> None:
        """Give up a :meth:`wait`: dequeue it, or cancel its wake-up."""
        if waiter in self._waiters:
            self._waiters.remove(waiter)
        else:
            self.env.cancel(waiter)

    def release(self, container: Container) -> None:
        """Return a container to the warm set and wake one waiter."""
        container.busy = False
        container.last_used = self.env.now
        if self._waiters:
            self._waiters.pop(0).succeed()

    def discard(self, container: Container) -> None:
        """Drop a container whose cold start was cut short."""
        if container in self._containers:
            self._containers.remove(container)

    def destroy_all(self) -> None:
        """Tear down every container (invoker shutdown)."""
        self._containers.clear()
        for waiter in self._waiters:
            if not waiter.triggered:
                waiter.succeed()
        self._waiters.clear()
