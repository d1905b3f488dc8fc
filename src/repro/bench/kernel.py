"""Pure-kernel microbenchmark: how fast can the event loop go?

Exercises the four hot paths of :mod:`repro.sim` with a deterministic,
RNG-free workload whose event count is fixed by the preset:

* **timeout flood** — a large batch of bare :class:`Timeout` s with
  mixed delays and callbacks (heap push/pop + callback dispatch);
* **process churn** — many generator processes yielding timeouts (the
  ``Process._resume`` path every simulated actor takes);
* **event relay** — processes yielding already-succeeded events
  (settle/trigger dispatch without time advancing);
* **cancellation storm** — scheduled timeouts withdrawn via
  :meth:`Environment.cancel`, exercising tombstone discard in the loop.

Scaled so ``full`` is comparable to a fig5-scale experiment day (a few
million kernel events), ``quick`` runs in a couple of seconds, and
``smoke`` in well under a second.  ``repro bench`` records the result
as ``BENCH_kernel.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.bench.instrument import KernelProbe, KernelStats
from repro.sim import Environment

#: registry-safe name of the microbenchmark in ``repro bench`` output
KERNEL_BENCH_NAME = "kernel"
#: drain-rate benchmark of a deep resident queue
FLOOD_BENCH_NAME = "flood"
#: steady-state allocation-path benchmark: waves on one environment so
#: every wave after the first is served from the event freelist
TIMEOUT_FLOOD_BENCH_NAME = "timeout-flood"


@dataclass(frozen=True)
class KernelScale:
    """Sizing of the four microbenchmark segments.

    ``rounds`` repeats the whole segment suite: experiment-scale runs
    process millions of events through a *bounded* resident queue (a
    full fig5 day never holds more than a few thousand pending events),
    so scaling up means more rounds, not a deeper heap — a deeper heap
    would benchmark cold memory, not the run loop.
    """

    flood_events: int
    churn_processes: int
    churn_steps: int
    relay_chains: int
    relay_length: int
    cancel_events: int
    rounds: int = 1

    @property
    def approx_events(self) -> int:
        return self.rounds * (
            self.flood_events
            + self.churn_processes * (self.churn_steps + 2)
            + self.relay_chains * (self.relay_length + 2)
            + self.cancel_events
        )


KERNEL_SCALES: Dict[str, KernelScale] = {
    # fig5-scale: ~3M events, like a full experiment day
    "full": KernelScale(
        flood_events=120_000,
        churn_processes=600,
        churn_steps=100,
        relay_chains=400,
        relay_length=150,
        cancel_events=60_000,
        rounds=10,
    ),
    "quick": KernelScale(
        flood_events=120_000,
        churn_processes=600,
        churn_steps=100,
        relay_chains=400,
        relay_length=150,
        cancel_events=60_000,
    ),
    # rounds=3: a sub-0.1s window makes events/sec swing well past the
    # regression gate's tolerance on shared runners; ~100k events is
    # still well under a second
    "smoke": KernelScale(
        flood_events=20_000,
        churn_processes=100,
        churn_steps=50,
        relay_chains=80,
        relay_length=60,
        cancel_events=10_000,
        rounds=3,
    ),
}


def timeout_flood(env: Environment, count: int) -> None:
    """Bare timeouts with spread-out delays and a no-op callback each."""
    sink = [].append
    timeout = env.timeout
    for i in range(count):
        timeout((i % 97) * 0.25, value=i).callbacks.append(sink)
    env.run()


def process_churn(env: Environment, processes: int, steps: int) -> None:
    """Generator processes repeatedly yielding timeouts."""

    def worker(env: Environment, delay: float, steps: int):
        for _ in range(steps):
            yield env.timeout(delay)

    for p in range(processes):
        env.process(worker(env, 0.5 + (p % 13) * 0.125, steps))
    env.run()


def event_relay(env: Environment, chains: int, length: int) -> None:
    """Processes yielding pre-succeeded events (no clock advancement)."""

    def relay(env: Environment, length: int):
        for i in range(length):
            event = env.event()
            event.succeed(i)
            yield event

    for _ in range(chains):
        env.process(relay(env, length))
    env.run()


def cancellation_storm(env: Environment, count: int) -> None:
    """Schedule ``count`` timeouts and cancel every other one."""
    timeouts = [env.timeout(1.0 + (i % 31) * 0.5) for i in range(count)]
    cancel = env.cancel
    for victim in timeouts[::2]:
        cancel(victim)
    env.run()


def run_kernel_bench(preset: str = "quick") -> KernelStats:
    """Run all four segments at *preset* scale under a fresh probe."""
    try:
        scale = KERNEL_SCALES[preset]
    except KeyError:
        raise KeyError(
            f"unknown kernel bench preset {preset!r}; "
            f"expected one of {sorted(KERNEL_SCALES)}"
        ) from None
    with KernelProbe() as probe:
        for _ in range(scale.rounds):
            timeout_flood(Environment(), scale.flood_events)
            process_churn(Environment(), scale.churn_processes, scale.churn_steps)
            event_relay(Environment(), scale.relay_chains, scale.relay_length)
            cancellation_storm(Environment(), scale.cancel_events)
    return probe.stats


# ----------------------------------------------------------------------
# timeout-flood regime: drain rate at fig5 resident depth
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FloodScale:
    """Sizing of the flood-regime drain benchmark.

    Unlike :class:`KernelScale` this regime deliberately builds a *deep*
    resident queue — ``resident_events`` pending timeouts, far deeper
    than any benchmark scenario reaches — so the heap's ``O(log n)`` pop
    cost dominates the measurement.  The tombstone segment
    schedules ``tombstone_events`` and cancels every other one before
    draining, so the measurement covers tombstone discard at depth too.
    """

    resident_events: int
    tombstone_events: int
    rounds: int = 1

    @property
    def approx_events(self) -> int:
        # tombstoned entries are discarded, not processed
        return self.rounds * (self.resident_events + self.tombstone_events // 2)


FLOOD_SCALES: Dict[str, FloodScale] = {
    # fig5-scale resident depth, repeated for a multi-second window
    "full": FloodScale(resident_events=120_000, tombstone_events=120_000, rounds=10),
    "quick": FloodScale(resident_events=120_000, tombstone_events=120_000, rounds=2),
    "smoke": FloodScale(resident_events=20_000, tombstone_events=20_000, rounds=5),
}


def _combined_stats(windows: Sequence[KernelStats]) -> KernelStats:
    """Fold per-drain probe windows into one benchmark measurement."""
    return KernelStats(
        events_processed=sum(w.events_processed for w in windows),
        events_scheduled=sum(w.events_scheduled for w in windows),
        peak_queue_depth=max(w.peak_queue_depth for w in windows),
        wall_time_s=sum(w.wall_time_s for w in windows),
        events_reused=sum(w.events_reused for w in windows),
    )


def run_flood_bench(preset: str = "quick") -> KernelStats:
    """Measure pure drain throughput in the timeout-flood regime.

    Event *creation* cost is already covered by the ``kernel`` entry, so
    here the probe windows wrap only ``env.run()``: the queue is flooded
    (and, in the second segment, half-tombstoned) first, then the drain
    is timed.
    """
    try:
        scale = FLOOD_SCALES[preset]
    except KeyError:
        raise KeyError(
            f"unknown flood bench preset {preset!r}; "
            f"expected one of {sorted(FLOOD_SCALES)}"
        ) from None
    windows = []
    for _ in range(scale.rounds):
        env = Environment()
        sink = [].append
        timeout = env.timeout
        for i in range(scale.resident_events):
            timeout((i % 97) * 0.25, value=i).callbacks.append(sink)
        with KernelProbe() as probe:
            env.run()
        windows.append(probe.stats)

        env = Environment()
        timeouts = [
            env.timeout(1.0 + (i % 31) * 0.5)
            for i in range(scale.tombstone_events)
        ]
        cancel = env.cancel
        for victim in timeouts[::2]:
            cancel(victim)
        with KernelProbe() as probe:
            env.run()
        windows.append(probe.stats)
    return _combined_stats(windows)


# ----------------------------------------------------------------------
# timeout-flood regime: steady-state allocation path (freelist hot)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WaveScale:
    """Sizing of the steady-state allocation benchmark.

    ``wave_events`` stays at (just under) the freelist's ``POOL_CAP`` so
    a full wave's worth of Timeout objects survives each drain on the
    pool: from the second wave on, *every* creation is a recycle rather
    than an allocation.  Scaling up means more waves — a bigger wave
    would overflow the pool and benchmark the allocator again, which is
    the ``flood`` entry's job.
    """

    wave_events: int
    waves: int

    @property
    def approx_events(self) -> int:
        return self.wave_events * self.waves


WAVE_SCALES: Dict[str, WaveScale] = {
    # fig5-scale total volume through a single long-lived environment
    "full": WaveScale(wave_events=4_000, waves=750),
    "quick": WaveScale(wave_events=4_000, waves=100),
    "smoke": WaveScale(wave_events=4_000, waves=25),
}


def run_timeout_flood_bench(preset: str = "quick") -> KernelStats:
    """Measure create+drain throughput with the event freelist hot.

    Unlike ``flood`` (a fresh environment per drain — every Timeout is a
    real allocation) this runs every wave on *one* environment, so waves
    after the first draw their objects from the pool.  The probe window
    covers creation too: the allocation diet is exactly what this entry
    gates, and ``events_reused`` in the record shows the pool working
    (steady state approaches ``(waves-1)/waves`` of all events).
    """
    try:
        scale = WAVE_SCALES[preset]
    except KeyError:
        raise KeyError(
            f"unknown timeout-flood bench preset {preset!r}; "
            f"expected one of {sorted(WAVE_SCALES)}"
        ) from None
    env = Environment()
    with KernelProbe() as probe:
        # the callback must not retain the event ([].append would): a
        # retained event fails the recycler's refcount guard by design
        sink = _discard
        timeout = env.timeout
        for _ in range(scale.waves):
            for i in range(scale.wave_events):
                timeout((i % 97) * 0.25, value=i).callbacks.append(sink)
            env.run()
    return probe.stats


def _discard(event: object) -> None:
    """Callback-dispatch cost without keeping a reference to the event."""
