"""Shared resources: counting resources and message stores.

These are the coordination primitives the higher layers build on:

* :class:`Resource` — a counting semaphore with FIFO queuing (container
  concurrency slots inside an invoker).
* :class:`Store` — an unbounded FIFO buffer with blocking ``get``, or a
  :class:`StoreClaim` that hands the next item to a callback without an
  event; the message broker's topics are stores.
* :class:`FilterStore` — ``get`` with a predicate.
* :class:`PriorityStore` — ``get`` returns the smallest item.

``put`` never blocks (capacities here are unbounded; the paper's systems
apply back-pressure at the protocol layer, not the transport layer), which
keeps the kernel small without losing any behaviour the reproduction needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass(order=True)
class PriorityItem:
    """Wrapper giving an arbitrary payload a sort key for PriorityStore."""

    priority: float
    item: Any = field(compare=False)


class Request(Event):
    """Pending acquisition of a :class:`Resource`; also a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (e.g. on interrupt)."""
        self.resource._cancel(self)


class Resource:
    """A counting resource with ``capacity`` slots and FIFO granting."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._users: set[Request] = set()
        self._waiting: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot.  Releasing an unheld request is a no-op."""
        if request in self._users:
            self._users.discard(request)
            self._grant()

    # -- internal --------------------------------------------------------
    def _request(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant()

    def _cancel(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            request = self._waiting.pop(0)
            self._users.add(request)
            request.succeed()


class StoreGet(Event):
    """Pending retrieval from a store."""

    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]] = None) -> None:
        # Flattened Event.__init__ — one call saved per get, and every
        # broker-topic consume is one of these.
        self.env = store.env
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = None
        self._processed = False
        self._queued = False
        self.defused = False
        self.store = store
        self.predicate = predicate
        store._getters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw the retrieval (e.g. when a consumer is interrupted)."""
        try:
            self.store._getters.remove(self)
        except ValueError:
            pass


_UNTAKEN = object()


class StoreClaim:
    """A callback getter: takes the next item at put time, schedules nothing.

    The claim joins the store's getter FIFO exactly where a
    :class:`StoreGet` created at the same moment would, so it takes the
    same item.  Instead of settling an event, it records the item in
    :attr:`item` and calls ``callback(item)`` from inside the ``put`` (or
    inside :meth:`Store.claim` itself, when an item is already buffered).
    One claim takes one item; claim again for the next.
    """

    __slots__ = ("store", "callback", "predicate", "item")

    def __init__(self, store: "Store", callback: Callable[[Any], None]) -> None:
        self.store = store
        self.callback = callback
        #: a claim matches any item (the store's dispatch reads this)
        self.predicate = None
        self.item: Any = _UNTAKEN
        store._getters.append(self)
        store._dispatch()

    @property
    def taken(self) -> bool:
        """True once the claim holds an item."""
        return self.item is not _UNTAKEN

    def succeed(self, item: Any) -> None:
        """Take *item* (the getter method the store's dispatch calls)."""
        self.item = item
        self.callback(item)

    def cancel(self) -> None:
        """Withdraw a claim that has not taken an item yet."""
        try:
            self.store._getters.remove(self)
        except ValueError:
            pass


class Store:
    """Unbounded FIFO store: ``put`` is immediate, ``get`` may block."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        #: waiting :class:`StoreGet` events and :class:`StoreClaim` callbacks
        self._getters: list[Any] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit *item* and wake a matching waiting getter, if any."""
        self._insert(item)
        self._dispatch()

    def get(self) -> StoreGet:
        """Return an event that settles with the next available item."""
        return StoreGet(self)

    def claim(self, callback: Callable[[Any], None]) -> StoreClaim:
        """Queue a :class:`StoreClaim` that hands the next item to *callback*."""
        return StoreClaim(self, callback)

    def peek_all(self) -> list[Any]:
        """Snapshot of buffered items (does not consume them)."""
        return list(self.items)

    def drain(self) -> list[Any]:
        """Atomically remove and return all buffered items.

        Used by the fast-lane handoff: a departing invoker (or the
        controller, for unpulled messages) empties a topic in one step so
        no message can be concurrently consumed mid-drain.
        """
        items, self.items = self.items, []
        return items

    # -- internal --------------------------------------------------------
    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _next_index(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if predicate(item):
                return i
        return None

    def _dispatch(self) -> None:
        # Repeatedly match the earliest-waiting getter whose predicate some
        # buffered item satisfies.  FIFO on both sides.
        getters = self._getters
        items = self.items
        while getters and items:
            head = getters[0]
            if head.predicate is None:
                # FIFO fast path — the shape of every broker-topic get:
                # the earliest getter takes the earliest item, with no
                # snapshot copy of the waiter list and no index scan.
                del getters[0]
                head.succeed(items.pop(0))
                continue
            made_progress = False
            for getter in list(getters):
                index = self._next_index(getter.predicate)
                if index is not None:
                    getters.remove(getter)
                    item = items.pop(index)
                    getter.succeed(item)
                    made_progress = True
                    break
            if not made_progress:
                return


class FilterStore(Store):
    """A store whose ``get`` accepts a predicate over items."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, predicate)


class PriorityStore(Store):
    """A store that hands out the smallest item first.

    Items must be mutually comparable; wrap payloads in
    :class:`PriorityItem` when they are not.
    """

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _next_index(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if not self.items:
            return None
        if predicate is None or predicate(self.items[0]):
            return 0
        return None

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters[0]
            if getter.predicate is not None and not getter.predicate(self.items[0]):
                break
            self._getters.pop(0)
            getter.succeed(heapq.heappop(self.items))
