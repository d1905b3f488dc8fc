"""Events: the unit of causality in the simulation kernel."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment, SimTime


class EventPriority(enum.IntEnum):
    """Scheduling priority of an event at a given instant."""

    URGENT = 0
    NORMAL = 1


#: Interned plain-``int`` aliases of :class:`EventPriority` for the hot
#: paths: queue entries built from these compare int-vs-int inside the
#: heap's C comparison loop instead of going through the IntEnum
#: subclass, and the values are identical so event order cannot change.
URGENT: int = int(EventPriority.URGENT)
NORMAL: int = int(EventPriority.NORMAL)


class Event:
    """A one-shot occurrence other parts of the simulation can wait on.

    Lifecycle: *pending* → *triggered* (scheduled, value fixed) →
    *processed* (callbacks ran).  An event settles exactly once, either via
    :meth:`succeed` or :meth:`fail`.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_processed", "_queued", "defused"
    )

    #: sentinel for "no value yet"
    PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: callables invoked with the event when it is processed; ``None``
        #: once processing happened.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        #: set by Environment.schedule; cleared again only on cancellation
        self._queued = False
        #: if True, an un-waited-on failure will not crash the run loop
        self.defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def failed(self) -> bool:
        """True if the event failed.  Only meaningful once triggered."""
        return self._ok is False

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is Event.PENDING:
            raise AttributeError("value not yet available")
        return self._value

    # -- settling ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Settle the event successfully and schedule its callbacks."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self, priority=priority): settling an
        # event is a kernel hot path (every process step ends here).
        # env._push is the C heappush pre-bound to the environment's
        # queue at construction.
        env = self.env
        env._eid += 1
        self._queued = True
        env._push((env._now, priority, env._eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Settle the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not Event.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Settle this event with another event's outcome (callback shape)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: module-level alias of the sentinel — hot paths compare against a
#: global load instead of the two-step ``Event.PENDING`` class lookup
_PENDING = Event.PENDING


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: "SimTime", value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        # Flattened Event.__init__ + env.schedule — one less call each on
        # the hottest allocation path (every simulated wait is a Timeout).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._queued = True
        self.defused = False
        self.delay = delay
        env._eid += 1
        env._push((env._now + delay, 1, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Base for events that settle when a set of child events settles.

    A failing child fails the condition immediately.  Already-settled
    children are honoured (their outcome counts toward the condition).
    """

    __slots__ = ("_events", "_count", "_needed")

    def __init__(self, env: "Environment", events: list[Event], needed: int) -> None:
        # Flattened Event.__init__ — conditions are built per wait-on-
        # multiple (every invocation's result-or-deadline race is one).
        self.env = env
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = None
        self._processed = False
        self._queued = False
        self.defused = False
        for event in events:
            if event.env is not env:
                raise ValueError("mixing events from different environments")
        self._events = events
        self._count = 0
        self._needed = min(needed, len(events))
        if not events or self._needed == 0:
            self.succeed(self._collect())
            return
        on_child = self._on_child
        for event in events:
            if event._processed:
                on_child(event)
            else:
                event.callbacks.append(on_child)
            if self._value is not _PENDING:
                break

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event.failed:
                event.defused = True
            return
        if event.failed:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count >= self._needed:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        """Values of all already-processed, successful children, in order."""
        return {
            event: event._value
            for event in self._events
            if event._processed and event._ok
        }


class AllOf(Condition):
    """Settles when *all* child events succeed (or any fails)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env, events, needed=len(events))


class AnyOf(Condition):
    """Settles when *any* child event succeeds (or any fails)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env, events, needed=1 if events else 0)
