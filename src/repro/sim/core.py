"""The simulation environment: clock, event queue, and run loop.

The run loop is the hottest code in the repository — every simulated
request, pilot job, and sampler tick flows through it — so it is written
for speed: event classes are imported once at module scope, the
:class:`Environment` is slotted, and :meth:`Environment.run` pops the
heap with locally bound names instead of going through
:meth:`Environment.step` per event.

The run loop also hosts the recycling side of the event pool: after an
event's callbacks have run, if the environment pools events and the
loop's own local is the *only* remaining reference (checked with
``sys.getrefcount``), the object is parked on the environment's
freelist for :meth:`Environment.timeout` / :meth:`Environment.event` to
reuse.  Any event that other code (a Condition, a Store, a pending
dict...) still holds fails the guard and is left to the garbage
collector, so recycling is never observable.

The environment also keeps cheap throughput counters
(:attr:`Environment.events_processed`, :attr:`Environment.peak_queue_depth`)
and flushes them into the process-wide :data:`KERNEL_TOTALS` aggregate at
the end of every ``run()``/``step()``, which is what
:mod:`repro.bench.instrument` reads to turn wall time into events/sec.
"""

from __future__ import annotations

import os
from functools import partial as _partial
from heapq import heappop as _heappop, heappush as _heappush
from sys import getrefcount as _getrefcount
from typing import Any, Generator, Iterable, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.queue import HeapEventQueue

#: Simulated time.  One unit is one second throughout this code base.
SimTime = float

_INF = float("inf")


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at an event."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class KernelTotals:
    """Process-wide kernel counters, summed across all environments.

    Every :meth:`Environment.run` (and every direct :meth:`Environment.step`)
    adds its work here, so a probe can measure the event throughput of a
    whole scenario run without holding references to the environments it
    creates internally.  See :class:`repro.bench.instrument.KernelProbe`.
    """

    __slots__ = (
        "events_processed",
        "events_scheduled",
        "events_reused",
        "peak_queue_depth",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_processed = 0
        self.events_scheduled = 0
        self.events_reused = 0
        self.peak_queue_depth = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        """``(events_processed, events_scheduled, events_reused, peak_queue_depth)``."""
        return (
            self.events_processed,
            self.events_scheduled,
            self.events_reused,
            self.peak_queue_depth,
        )


#: the one process-wide aggregate (reset it via ``KERNEL_TOTALS.reset()``)
KERNEL_TOTALS = KernelTotals()


#: kernel-wide default for the event allocation pool; disable per
#: environment with ``Environment(pool=False)`` or process-wide with
#: ``REPRO_POOL=0``.
DEFAULT_POOL = True

#: recycled events parked per environment; bounded so a burst can never
#: pin an unbounded amount of memory on the freelist
POOL_CAP = 4096


def resolve_pool(flag: Optional[bool] = None) -> bool:
    """Resolve the event-pool selector (arg > ``REPRO_POOL`` > default)."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get("REPRO_POOL", "")
    if raw == "":
        return DEFAULT_POOL
    return raw.lower() not in ("0", "off", "false", "no")


class Environment:
    """A discrete-event simulation environment.

    The environment owns the simulated clock (:attr:`now`) and a binary heap
    of scheduled events ordered by ``(time, priority, sequence)``.  The
    sequence number makes the ordering total and deterministic: two events
    scheduled for the same instant at the same priority fire in the order
    they were scheduled, which every test in this repository relies on.

    Scheduled events can be withdrawn with :meth:`cancel`: the queue entry
    is tombstoned and silently discarded when it reaches the front of the
    queue.  ``len(env)``, :meth:`peek`, and :attr:`peak_queue_depth` agree
    on this: all count only live (non-cancelled) entries.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_push",
        "_eid",
        "_eid_flushed",
        "_active_process",
        "_cancelled",
        "_timeout_pool",
        "_event_pool",
        "events_processed",
        "events_reused",
        "_reused_flushed",
        "peak_queue_depth",
    )

    def __init__(
        self,
        initial_time: SimTime = 0.0,
        pool: Optional[bool] = None,
    ) -> None:
        self._now: SimTime = float(initial_time)
        queue = HeapEventQueue()
        self._queue = queue
        # partial() of the C heappush: pushes from the inlined hot paths
        # in events.py stay a single C call.
        self._push = _partial(_heappush, queue)
        self._eid: int = 0
        self._eid_flushed: int = 0
        self._active_process: Optional["Process"] = None
        self._cancelled: set = set()
        # Event freelists (``None`` = pooling disabled): processed
        # Timeout/Event instances with no surviving references are
        # parked here by the run loop and reused by timeout()/event().
        if resolve_pool(pool):
            self._timeout_pool: Optional[list] = []
            self._event_pool: Optional[list] = []
        else:
            self._timeout_pool = None
            self._event_pool = None
        #: events processed by this environment's run loop so far
        self.events_processed: int = 0
        #: events served from the freelist instead of a fresh allocation
        self.events_reused: int = 0
        self._reused_flushed: int = 0
        #: largest queue depth observed while processing events
        self.peak_queue_depth: int = 0

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process whose generator is currently executing, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled into this environment."""
        return self._eid

    def peek(self) -> SimTime:
        """Time of the next live scheduled event, or ``float('inf')``.

        Cancelled (tombstoned) entries at the front of the queue are
        garbage-collected on the way.
        """
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            when, _prio, _eid, event = queue[0]
            if cancelled and event in cancelled:
                _heappop(queue)
                cancelled.discard(event)
                event._queued = False
                continue
            return when
        return _INF

    def __len__(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue) - len(self._cancelled)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        event: Event,
        delay: SimTime = 0.0,
        priority: int = 1,
    ) -> None:
        """Queue *event* to fire ``delay`` seconds from now.

        ``priority`` follows the SimPy convention: ``0`` (URGENT) fires
        before ``1`` (NORMAL) at the same instant.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._eid += 1
        event._queued = True
        self._push((self._now + delay, priority, self._eid, event))

    def cancel(self, event: Event) -> bool:
        """Withdraw a scheduled event so it is discarded unprocessed.

        The entry stays in the heap as a tombstone and is dropped when it
        surfaces; :meth:`__len__` and :meth:`peek` stop counting it
        immediately.  Returns ``True`` if the event was live in the queue
        and is now cancelled, ``False`` otherwise (never scheduled,
        scheduled elsewhere, already processed, already cancelled, or
        failed).

        Cancellation means the occurrence never happens: the event's
        callbacks never run, so anything waiting on it is never resumed —
        retract only events whose waiters you control (the typical use is
        withdrawing a pending :class:`Timeout` wakeup).  Failed events
        are refused outright: an un-defused failure must crash the run,
        and cancelling it would silently swallow the exception.
        """
        if (
            event.env is not self
            or not event._queued
            or event._processed
            or event._ok is False
            or event in self._cancelled
        ):
            return False
        self._cancelled.add(event)
        return True

    # ------------------------------------------------------------------
    # event/process factories (convenience mirrors of simpy's API)
    # ------------------------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = Event.PENDING
            event._ok = None
            event._processed = False
            event._queued = False
            event.defused = False
            self.events_reused += 1
            return event
        return Event(self)

    def _init_event(self, callback: Any) -> Event:
        """Pooled, pre-succeeded, URGENT-scheduled event in one step.

        The process-bootstrap shape (`Process.__init__` is the only
        caller): equivalent to ``event()`` + mark succeeded + schedule
        URGENT, without the intermediate resets those steps redo.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            self.events_reused += 1
        else:
            event = Event.__new__(Event)
            event.env = self
        event.callbacks = [callback]
        event._value = None
        event._ok = True
        event._processed = False
        event._queued = True
        event.defused = False
        self._eid += 1
        self._push((self._now, 0, self._eid, event))
        return event

    def timeout(self, delay: SimTime, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            # Reuse a recycled Timeout: every field Timeout.__init__
            # writes is written fresh here, so no state survives the
            # recycle — only the object identity does.
            if not delay >= 0:  # also rejects NaN
                raise ValueError(f"delay must be >= 0, got {delay!r}")
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._ok = True
            timeout._processed = False
            timeout._queued = True
            timeout.defused = False
            timeout.delay = delay
            self.events_reused += 1
            self._eid += 1
            self._push((self._now + delay, 1, self._eid, timeout))
            return timeout
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next live event.

        Advances the clock to the event's scheduled time, marks the event
        processed and invokes its callbacks.  Cancelled entries are
        discarded on the way.  Raises :class:`EmptySchedule` if nothing
        live is queued.
        """
        queue = self._queue
        cancelled = self._cancelled
        while True:
            depth = len(queue) - len(cancelled)
            try:
                when, _prio, _eid, event = _heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
            if cancelled and event in cancelled:
                cancelled.discard(event)
                event._queued = False
                continue
            break
        if when < self._now:  # pragma: no cover - defensive; cannot happen
            raise RuntimeError("event scheduled in the past")
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, None
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._flush_counters(1, depth)
        if event._ok is False and not event.defused:
            raise event.value

    def run(self, until: "SimTime | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the event queue drains.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event settles and return its
          value (raising if the event failed).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            horizon = float(until)
            if not horizon >= self._now:  # also rejects NaN
                raise ValueError(
                    f"until ({horizon}) must not be before now ({self._now})"
                )
            stop_event = self.event()
            stop_event._ok = True
            stop_event._value = None
            # URGENT so the horizon pre-empts same-instant NORMAL events.
            self.schedule(stop_event, delay=horizon - self._now, priority=0)
            stop_event.callbacks.append(self._stop_callback)

        queue = self._queue
        cancelled = self._cancelled
        tpool = self._timeout_pool
        epool = self._event_pool
        pop = _heappop
        processed = 0
        peak = 0
        try:
            while queue:
                # Peak tracking: live depth <= raw length, so only pay
                # the tombstone subtraction when the raw length clears
                # the current peak.
                depth = len(queue)
                if depth > peak:
                    if cancelled:
                        depth -= len(cancelled)
                    if depth > peak:
                        peak = depth
                when, _prio, _eid, event = pop(queue)
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    event._queued = False
                    continue
                self._now = when
                event._processed = True
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._ok is False:
                    if not event.defused:
                        raise event._value
                elif tpool is not None:
                    # Recycle: only exact Timeout/Event instances
                    # (subclasses carry extra state), and only when the
                    # loop local is the last reference — 2 is this
                    # frame's slot plus getrefcount's argument.
                    cls = type(event)
                    if cls is Timeout:
                        if len(tpool) < POOL_CAP and _getrefcount(event) == 2:
                            event._value = None
                            tpool.append(event)
                    elif cls is Event:
                        if len(epool) < POOL_CAP and _getrefcount(event) == 2:
                            event._value = None
                            epool.append(event)
        except StopSimulation as stop:
            return stop.value
        finally:
            self._flush_counters(processed, peak)

        if stop_event is not None and not stop_event.processed:
            # Queue drained before the stop event fired.
            if isinstance(until, Event):
                raise RuntimeError("simulation ended before `until` event")
        return None

    def _flush_counters(self, processed: int, peak: int) -> None:
        """Fold a run's work into this env and the process-wide totals."""
        self.events_processed += processed
        if peak > self.peak_queue_depth:
            self.peak_queue_depth = peak
        totals = KERNEL_TOTALS
        totals.events_processed += processed
        totals.events_scheduled += self._eid - self._eid_flushed
        self._eid_flushed = self._eid
        totals.events_reused += self.events_reused - self._reused_flushed
        self._reused_flushed = self.events_reused
        if peak > totals.peak_queue_depth:
            totals.peak_queue_depth = peak

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.failed:
            raise event.value
        raise StopSimulation(event.value)


# Imported last: process.py needs events but not core at runtime; keeping
# the import at the bottom lets `repro.sim.process` import cleanly even if
# a user imports it before `repro.sim.core`.
from repro.sim.process import Process  # noqa: E402  (deliberate, see above)
