"""Discrete-event simulation kernel.

A from-scratch, generator-based DES kernel in the style of SimPy (which is
not available in this environment).  All simulated subsystems — the Slurm-like
cluster, the OpenWhisk-like FaaS middleware, workload generators and metric
samplers — are implemented as :class:`Process` generators driven by a single
:class:`Environment` event loop.

Quick taste::

    from repro.sim import Environment

    def clock(env, name, tick):
        while True:
            yield env.timeout(tick)
            print(name, env.now)

    env = Environment()
    env.process(clock(env, "fast", 1))
    env.process(clock(env, "slow", 5))
    env.run(until=10)

Design notes
------------
* Events carry ``callbacks`` and settle exactly once (``succeed``/``fail``).
* Processes are plain generators; ``yield event`` suspends until the event
  settles; failed events are re-raised inside the generator at the yield.
* :class:`~repro.sim.process.Interrupt` supports Slurm-style SIGTERM
  delivery into running job processes.
* Time is a ``float`` in **seconds**; all modules in this package treat one
  simulated unit as one second.
* Pending events live in one binary heap (:mod:`repro.sim.queue`), drained
  by :meth:`Environment.run`; processed ``Timeout``/``Event`` objects that
  nothing else references are recycled through a per-environment freelist
  (``Environment(pool=False)`` or ``REPRO_POOL=0`` turns that off).
"""

from repro.sim.core import (
    Environment,
    SimTime,
    StopSimulation,
    resolve_pool,
)
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    Timeout,
)
from repro.sim.process import Interrupt, InterruptError, Process
from repro.sim.queue import HeapEventQueue
from repro.sim.resources import (
    FilterStore,
    PriorityItem,
    PriorityStore,
    Resource,
    Store,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "resolve_pool",
    "HeapEventQueue",
    "Event",
    "EventPriority",
    "FilterStore",
    "Interrupt",
    "InterruptError",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "SimTime",
    "StopSimulation",
    "Store",
    "Timeout",
]
