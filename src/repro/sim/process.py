"""Generator-based processes and interrupts.

A :class:`Process` drives a Python generator: each ``yield <event>``
suspends the generator until the event settles; the event's value is sent
back in (or its exception thrown in, for failed events).  The process itself
is an :class:`~repro.sim.events.Event` that settles with the generator's
return value — so processes can wait on each other.

:class:`Interrupt` models asynchronous signals (we use it for Slurm's
SIGTERM/SIGKILL delivery into pilot jobs): ``process.interrupt(cause)``
throws an :class:`Interrupt` inside the generator at its current yield
point.
"""

from __future__ import annotations

from types import GeneratorType as _GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

_PENDING = Event.PENDING


class Interrupt(Exception):
    """Thrown inside a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"


class InterruptError(RuntimeError):
    """Raised for invalid interrupt targets (dead or self-interrupt)."""


class Process(Event):
    """Wraps a generator and runs it as a simulation process."""

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if type(generator) is not _GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"{generator!r} is not a generator")
        # Flattened Event.__init__ — one Python call saved per spawn.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._queued = False
        self.defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: one bound method reused for every yield (a fresh bound-method
        #: object per suspension is measurable at millions of events)
        resume = self._resume
        self._resume_cb = resume
        # Bootstrap: resume the generator at the next instant.  Pulled
        # from the environment's event pool (process churn recycles one
        # bootstrap event per spawn), pre-succeeded and URGENT-scheduled
        # in one step — this runs once per spawn.
        #: the event this process currently waits on (None when resuming)
        self._target: Optional[Event] = env._init_event(resume)

    # -- state ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    # -- interrupts ------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        The interrupt is delivered via an URGENT event at the current
        instant, so it wins over ordinary events scheduled for the same
        time.  Interrupting a finished process raises
        :class:`InterruptError`; so does a process interrupting itself.
        """
        if not self.is_alive:
            raise InterruptError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise InterruptError("a process is not allowed to interrupt itself")
        # Detach from the event we were waiting on: when it later settles it
        # must not resume this generator a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume_cb)
        self.env.schedule(interrupt_event, priority=URGENT)

    # -- generator driving ------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # A queued interrupt can arrive after normal termination; drop it.
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        target: Optional[Event] = None
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    # Failed event or interrupt: throw into the generator.
                    event.defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_target, Event):
                env._active_process = None
                exc = TypeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                try:
                    generator.throw(exc)
                except BaseException as err:
                    self._target = None
                    self.fail(err)
                    return
                raise RuntimeError("generator swallowed the non-event error")

            if next_target._processed:
                # Already settled: resume immediately without rescheduling.
                event = next_target
                continue
            target = next_target
            break

        target.callbacks.append(self._resume_cb)
        self._target = target
        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
