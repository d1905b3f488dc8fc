"""Wire messages between controllers and invokers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Optional

_activation_ids = itertools.count(1)


def next_activation_id() -> str:
    return f"act-{next(_activation_ids):08d}"


def reset_activation_ids() -> None:
    """Restart the activation-id counter (test isolation)."""
    global _activation_ids
    _activation_ids = itertools.count(1)


@dataclass
class ActivationMessage:
    """A function invocation in flight (Kafka payload in real OpenWhisk)."""

    activation_id: str
    function: str
    params: Any
    #: client submit time (for end-to-end latency accounting)
    submitted_at: float
    #: simulated execution duration override; None = use the function's model
    duration: Optional[float] = None
    #: times this message has been re-routed through the fast lane
    retries: int = 0
    #: True once the message has travelled through the fast lane
    fast_laned: bool = False
    #: whether the client allows interrupting a running execution (Sec III-C:
    #: clients may opt out when functions mutate external state non-atomically)
    interruptible: bool = True


@dataclass
class CompletionMessage:
    """Result announcement published by an invoker."""

    activation_id: str
    invoker_id: str
    success: bool
    result: Any = None
    error: Optional[str] = None
    #: queueing delay inside the invoker, seconds
    wait_time: float = 0.0
    #: container initialization charged to this activation, seconds (cold start)
    init_time: float = 0.0
    #: function body execution time, seconds
    duration: float = 0.0
    #: True if the activation reached this invoker via the fast lane
    fast_laned: bool = False


class PingSchedule:
    """A serving invoker's healthy pings, as times instead of messages.

    The invoker pings every ``interval`` seconds while it serves.  The
    first ping fires one interval after registration, and each later one
    an interval after the previous, computed as ``fire + interval``: the
    float a re-armed timer computes.  Each ping is heard ``latency``
    seconds after it fires, when its broker message would be delivered.
    The invoker attaches the schedule to its ``register`` ping and stops
    it when it stops serving; only the pings that fired before that were
    sent.  The controller reads a healthy invoker's latest ping from
    here, so a serving invoker schedules no kernel event at all.
    """

    __slots__ = ("interval", "latency", "end", "_fire", "_heard")

    def __init__(self, registered_at: float, interval: float, latency: float) -> None:
        self.interval = interval
        self.latency = latency
        #: pings fire only before this time (set by :meth:`stop`)
        self.end = math.inf
        #: the earliest fire :meth:`heard_before` has not counted yet
        self._fire = registered_at + interval
        #: when the latest counted ping was heard
        self._heard: Optional[float] = None

    def stop(self, now: float) -> float:
        """End the schedule at *now*; returns its first fire at or after *now*."""
        self.end = now
        fire = self._fire
        while fire < now:
            fire += self.interval
        return fire

    def heard_before(self, now: float) -> Optional[float]:
        """When the latest ping heard strictly before *now* was heard.

        None while no ping has been heard.  A ping heard at *now* itself
        does not count yet: its delivery reaches the controller's health
        consumer one event later than anything already due at *now*.
        Calls must come with non-decreasing *now*.
        """
        fire, end, latency = self._fire, self.end, self.latency
        while fire < end:
            heard = fire + latency
            if not heard < now:
                break
            self._heard = heard
            fire += self.interval
        self._fire = fire
        return self._heard


@dataclass
class PingMessage:
    """Invoker → controller status message (extended per Sec. III-C:
    "we extended the set of regular messages sent from workers to
    controllers so the exact status of each worker node is known to the
    controller continuously").  A serving invoker's regular pings are the
    :class:`PingSchedule` its ``register`` message carries; a draining
    one sends real "draining" pings at the schedule's later fires."""

    invoker_id: str
    #: "register" | "draining" | "deregister"
    kind: str
    time: float
    node: str = ""
    #: federation member the worker's node belongs to ("" = unfederated)
    cluster: str = ""
    #: the healthy pings of a ``register`` message
    schedule: Optional[PingSchedule] = None
    metadata: dict = field(default_factory=dict)
