"""The callback invoker vs a frozen copy of the process-based one.

The reference below (``ProcessInvoker`` and ``ProcessPool``) spawns one
generator process per activation, pulls with a pair of ``StoreGet``
events under an ``AnyOf``, acquires containers with a blocking
``acquire`` generator and stops executions with interrupts.  The
``Invoker`` under test claims messages, wakes once per batch and steps
each execution on timer callbacks.  Each script runs the same seeded
world twice, once per implementation: 2-3 invokers sharing one RNG as a
cluster's pilots do, one- and two-container pools, publish bursts at one
instant to the routed topics and straight onto the fast lane,
non-interruptible requests, SIGTERM at any phase of an execution and to
several invokers at once, SIGKILL mid-drain or instead of a drain, and
both settings of ``use_fast_lane`` and ``interrupt_running``.  The
controller records and event log, the invoker and pool statistics,
every client-side result and the RNG state at the end must be equal.

Both implementations order same-instant work by the same rules, but
with fewer events in between: a delivery reaches the invoker one event
after the publish timer instead of three.  Two unrelated chains of work
that meet at the very same float instant (a heartbeat's delivery and an
activation's, say) may therefore interleave differently, and both orders
are valid runs of the protocol.  The ties a script makes on purpose
(bursts at one instant, signals shared between invokers or landing on a
submission) must match exactly.  Start and request times are shifted by
two unrelated constants, so that round values cannot line a heartbeat up
with a request by accident, and each invoker's start by its own
multiple of the first: a draining invoker arms its ping timer when the
drain starts, so two invokers whose pings fall due at one instant send
them in drain order, where the process reference sends them in
registration order.

Both invokers speak the schedule contract: the register message carries
a :class:`~repro.faas.messages.PingSchedule`, no healthy ping is sent,
and the reference's ping loop publishes only while draining.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faas import Broker, Controller, FaaSConfig, FunctionDef, Invoker
from repro.faas.broker import FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.containers import Container, ContainerPool
from repro.faas.messages import (
    ActivationMessage,
    PingMessage,
    PingSchedule,
    next_activation_id,
    reset_activation_ids,
)
from repro.sim import Environment, Event, Interrupt, Process


# ----------------------------------------------------------------------
# the frozen process-based path
# ----------------------------------------------------------------------
class ProcessPool(ContainerPool):
    """The pool with the blocking ``acquire`` generator it used to have."""

    def acquire(self, function: FunctionDef):
        env = self.env
        while True:
            container = self.warm_for(function.name)
            if container is not None:
                container.busy = True
                container.last_used = env.now
                self.warm_hits += 1
                delay = self.runtime.warm_start_delay()
                if delay:
                    yield env.timeout(delay)
                return container, 0.0

            if self.size < self.capacity:
                return (yield from self._create(function))

            evictable = [c for c in self._containers if not c.busy]
            if evictable:
                victim = min(evictable, key=lambda c: c.last_used)
                self._containers.remove(victim)
                self.evictions += 1
                return (yield from self._create(function))

            waiter = Event(env)
            self._waiters.append(waiter)
            try:
                yield waiter
            except BaseException:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                raise

    def _create(self, function: FunctionDef):
        env = self.env
        container = Container(function.name, env.now)
        container.busy = True
        self._containers.append(container)
        self.cold_starts += 1
        init = self.runtime.cold_start_delay()
        try:
            yield env.timeout(init)
        except BaseException:
            if container in self._containers:
                self._containers.remove(container)
            raise
        container.last_used = env.now
        return container, init


class _Requeue(Exception):
    """Interrupt cause telling an executor to hand its message back."""


class _Kill(Exception):
    """Interrupt cause telling an executor to die silently."""


class ProcessInvoker(Invoker):
    """One process per activation, pulls on events, interrupts to stop."""

    def __init__(self, env, invoker_id, node, broker, registry, config, rng):
        super().__init__(env, invoker_id, node, broker, registry, config=config, rng=rng)
        self.pool = ProcessPool(env, self.runtime, self.config.max_containers)
        self._executors: Dict[str, Tuple[Process, ActivationMessage, List[str]]] = {}
        self._ping_proc = None

    @property
    def in_flight(self) -> int:
        return len(self._executors)

    def register(self):
        self._schedule = PingSchedule(
            self.env.now, self.config.ping_interval, self.broker.publish_latency
        )
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id, "register", self.env.now,
                node=self.node, cluster=self.cluster_id, schedule=self._schedule,
            ),
        )
        self.stats.registered_at = self.env.now
        self._ping_proc = self.env.process(self._heartbeat())
        yield self.env.timeout(self.broker.publish_latency)

    def _end_schedule(self) -> None:
        if self._schedule is not None:
            self._schedule.stop(self.env.now)
            self._schedule = None

    def serve(self):
        try:
            while True:
                messages = yield from self._pull()
                for message in messages:
                    self._accept(message)
        except Interrupt:
            raise

    def drain(self):
        env = self.env
        cfg = self.config
        if self._draining:
            return self.stats
        self._draining = True
        self.stats.drain_started_at = env.now
        self._end_schedule()
        try:
            yield env.timeout(cfg.drain_notify_delay)
            self.broker.publish(
                HEALTH_TOPIC,
                PingMessage(
                    self.invoker_id, "draining", env.now,
                    node=self.node, cluster=self.cluster_id,
                ),
            )
            for activation_id, (proc, message, phase) in list(self._executors.items()):
                if phase[0] == "running" and not (
                    cfg.interrupt_running and message.interruptible
                ):
                    continue
                if proc.is_alive:
                    proc.interrupt(_Requeue())
            requeue = list(self._orphans)
            self._orphans.clear()
            yield env.timeout(0.0)
            for activation_id, (proc, message, phase) in list(self._executors.items()):
                if phase[0] == "requeued":
                    requeue.append(message)
                    del self._executors[activation_id]
            for message in requeue:
                if not cfg.use_fast_lane:
                    continue
                message.retries += 1
                message.fast_laned = True
                self.stats.requeued_on_drain += 1
                if message.retries <= cfg.max_retries:
                    self.broker.publish(FASTLANE_TOPIC, message)
                else:
                    self._complete(message, success=False, error="too many requeues")
                yield env.timeout(cfg.drain_republish_delay)
            remaining = [proc for proc, _m, _p in self._executors.values() if proc.is_alive]
            if remaining:
                yield env.all_of(remaining)
            yield env.timeout(cfg.drain_deregister_delay)
        except Interrupt:
            self.stats.abandoned_on_kill += len(self._executors) + len(self._orphans)
            self._kill_executors()
            self._orphans.clear()
        self._shutdown()
        return self.stats

    def vanish(self) -> None:
        self._draining = True
        self._end_schedule()
        if self._ping_proc is not None and self._ping_proc.is_alive:
            self._ping_proc.interrupt("node_fail")
        self.stats.abandoned_on_kill += len(self._executors) + len(self._orphans)
        self._kill_executors()
        self._orphans.clear()
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _kill_executors(self) -> None:
        for _aid, (proc, _message, _phase) in list(self._executors.items()):
            if proc.is_alive:
                proc.interrupt(_Kill())
        self._executors.clear()

    def _shutdown(self) -> None:
        env = self.env
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id, "deregister", env.now,
                node=self.node, cluster=self.cluster_id,
            ),
        )
        self.stats.deregistered_at = env.now
        self._end_schedule()
        if self._ping_proc is not None and self._ping_proc.is_alive:
            self._ping_proc.interrupt("shutdown")
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _heartbeat(self):
        """The ping loop; the schedule stands for its healthy pings."""
        env = self.env
        try:
            while True:
                yield env.timeout(self.config.ping_interval)
                if not self._draining:
                    continue
                self.broker.publish(
                    HEALTH_TOPIC,
                    PingMessage(
                        self.invoker_id, "draining", env.now,
                        node=self.node, cluster=self.cluster_id,
                    ),
                )
        except Interrupt:
            return

    def _pull(self):
        getters = []
        if self.config.use_fast_lane:
            getters.append(self.broker.topic(FASTLANE_TOPIC).get())
        getters.append(self.broker.topic(self.topic).get())
        try:
            yield self.env.any_of(getters)
        except Interrupt:
            for getter in getters:
                if getter.triggered:
                    self._orphans.append(getter.value)
                else:
                    getter.cancel()
            raise
        messages: List[ActivationMessage] = []
        for getter in getters:
            if getter.triggered:
                messages.append(getter.value)
            else:
                getter.cancel()
        return messages

    def _accept(self, message: ActivationMessage) -> None:
        if self._draining:
            self._orphans.append(message)
            return
        if self.in_flight >= self.config.buffer_limit:
            self.stats.rejected_overload += 1
            self._complete(message, success=False, error="invoker overloaded")
            return
        phase = ["waiting"]
        proc = self.env.process(self._execute(message, phase))
        self._executors[message.activation_id] = (proc, message, phase)

    def _execute(self, message: ActivationMessage, phase: List[str]):
        env = self.env
        accepted_at = env.now
        container = None
        try:
            try:
                function = self.registry.get(message.function)
            except KeyError as exc:
                self._complete(message, success=False, error=str(exc))
                return
            container, init_time = yield from self.pool.acquire(function)
            phase[0] = "running"
            wait_time = env.now - accepted_at
            duration = (
                message.duration
                if message.duration is not None
                else function.sample_duration(self.rng)
            )
            overhead = self._sample_overhead()
            yield env.timeout(duration + overhead)
            self.pool.release(container)
            container = None
            self._complete(
                message, success=True, result={"ok": True},
                wait_time=wait_time, init_time=init_time, duration=duration,
            )
            self.stats.completed += 1
        except Interrupt as interrupt:
            if container is not None:
                self.pool.release(container)
            if isinstance(interrupt.cause, _Requeue):
                phase[0] = "requeued"
                return
            if isinstance(interrupt.cause, _Kill):
                return
            raise
        finally:
            if phase[0] != "requeued":
                self._executors.pop(message.activation_id, None)


# ----------------------------------------------------------------------
# one seeded world
# ----------------------------------------------------------------------
FUNCTIONS = (
    FunctionDef(name="f0", duration=0.05),
    FunctionDef(name="f1", duration=0.4),
    FunctionDef(name="f2", duration_sampler=lambda rng: float(rng.exponential(0.3))),
)


#: shifts of the invokers' start times (times the invoker's position)
#: and of the request times (see the module docstring)
START_SHIFT = 0.0314159
REQUEST_SHIFT = 0.0271828


def run_world(invoker_cls, script) -> dict:
    reset_activation_ids()
    env = Environment()
    config = FaaSConfig(
        activation_timeout=15.0,
        max_containers=script["max_containers"],
        buffer_limit=script["buffer_limit"],
        use_fast_lane=script["use_fast_lane"],
        interrupt_running=script["interrupt_running"],
        drain_notify_delay=script["notify_delay"],
    )
    broker = Broker(env, publish_latency=config.publish_latency)
    controller = Controller(env, broker, config=config, rng=np.random.default_rng(0))
    for function in FUNCTIONS:
        controller.deploy(function)
    rng = np.random.default_rng(script["seed"])
    invokers = []

    def pilot(env, invoker, start):
        yield env.timeout(start)
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt as interrupt:
            if interrupt.cause == "kill":
                invoker.vanish()
                return
            yield from invoker.drain()

    def signal(env, proc, at, cause):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt(cause)

    requests = script["requests"]
    for index, plan in enumerate(script["invokers"]):
        invoker = invoker_cls(
            env, f"inv-{index}", f"n{index:04d}", broker, controller.registry, config, rng
        )
        invokers.append(invoker)
        proc = env.process(pilot(env, invoker, plan["start"] + START_SHIFT * (index + 1)))
        # signals land at an offset from one of the requests, so that
        # they catch executions in every phase; None shares one instant
        # (a prime job preempting several pilots at once)
        anchor, offset = plan["signal_at"] or SHARED_SIGNAL
        at = requests[anchor % len(requests)][0] + REQUEST_SHIFT + offset
        if plan["term"]:
            env.process(signal(env, proc, at, "term"))
        if plan["kill_after"] is not None:  # mid-drain after a SIGTERM, else vanish
            env.process(signal(env, proc, at + plan["kill_after"], "kill"))

    results: Dict[str, tuple] = {}

    def record(result):
        key = result.activation_id or f"rejected-{len(results)}"
        results[key] = (result.status, result.response_time, result.fast_laned)

    def client(env):
        for at, burst in script["requests"]:
            yield env.timeout(max(0.0, at + REQUEST_SHIFT - env.now))
            for function, interruptible, fixed, fast in burst:
                duration = 0.2 if fixed else None
                if fast:
                    # a republished message, untracked by the controller
                    broker.publish(
                        FASTLANE_TOPIC,
                        ActivationMessage(
                            next_activation_id(), FUNCTIONS[function].name, None,
                            env.now, duration=duration, interruptible=interruptible,
                        ),
                    )
                    continue
                controller.submit(
                    FUNCTIONS[function].name,
                    record,
                    duration=duration,
                    interruptible=interruptible,
                )

    env.process(client(env))
    env.run(until=60.0)
    return {
        "records": [
            (
                r.activation_id, r.status, r.completed_at, r.invoker_id,
                r.wait_time, r.init_time, r.duration, r.fast_laned,
            )
            for r in controller.records
        ],
        "results": results,
        "stats": [invoker.stats for invoker in invokers],
        "pools": [
            (invoker.pool.cold_starts, invoker.pool.warm_hits, invoker.pool.evictions)
            for invoker in invokers
        ],
        "rng": rng.bit_generator.state,
        "events": [(e.time, e.kind, e.invoker_id) for e in controller.events],
    }


#: small offsets land on a delivery, a warm start or a short run
offsets = st.one_of(
    st.floats(min_value=0.0, max_value=0.01), st.floats(min_value=0.0, max_value=1.5)
)

#: (request index, offset) of the signal every ``None`` plan shares
SHARED_SIGNAL = (0, 0.0)

invoker_plans = st.fixed_dictionaries(
    {
        # registered before the first signal can arrive
        "start": st.floats(min_value=0.0, max_value=0.9),
        "term": st.booleans(),
        "signal_at": st.one_of(st.none(), st.tuples(st.integers(0, 11), offsets)),
        "kill_after": st.one_of(st.none(), offsets),
    }
)

#: (function, interruptible, fixed duration, straight onto the fast lane)
bursts = st.lists(
    st.tuples(
        st.integers(0, len(FUNCTIONS) - 1), st.booleans(), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=4,
)

scripts = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "max_containers": st.integers(1, 2),
        "buffer_limit": st.sampled_from([3, 64]),
        "use_fast_lane": st.booleans(),
        "interrupt_running": st.booleans(),
        "notify_delay": st.one_of(
            st.just(0.2), st.floats(min_value=0.0005, max_value=0.05)
        ),
        "invokers": st.lists(invoker_plans, min_size=2, max_size=3),
        "requests": st.lists(
            st.tuples(st.floats(min_value=1.1, max_value=10.0), bursts),
            min_size=1,
            max_size=12,
        ).map(sorted),
    }
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts)
def test_callback_invoker_matches_the_process_invoker(script):
    expected = run_world(ProcessInvoker, script)
    actual = run_world(Invoker, script)
    assert actual["records"] == expected["records"]
    assert actual["results"] == expected["results"]
    assert actual["stats"] == expected["stats"]
    assert actual["pools"] == expected["pools"]
    assert actual["events"] == expected["events"]
    assert actual["rng"] == expected["rng"]


def test_the_oracle_exercises_drains_kills_and_evictions():
    """A fixed busy script: the comparison above is not vacuous."""
    script = {
        "seed": 11,
        "max_containers": 1,
        "buffer_limit": 64,
        "use_fast_lane": True,
        "interrupt_running": False,
        "notify_delay": 0.2,
        "invokers": [
            {"start": 0.1, "term": True, "signal_at": (0, 0.8), "kill_after": None},
            {"start": 0.2, "term": False, "signal_at": (0, 0.0), "kill_after": 3.5},
            {"start": 0.3, "term": True, "signal_at": (2, 0.3), "kill_after": 0.3},
        ],
        "requests": [
            (1.5, [(0, True, True, False), (0, False, True, False), (1, True, False, False),
                   (2, True, False, False)]),
            (2.1, [(0, True, True, False), (1, False, False, False), (2, True, True, False)]),
            (3.7, [(1, False, True, False), (2, False, False, False), (0, False, True, False),
                   (1, False, False, False)]),
        ],
    }
    expected = run_world(ProcessInvoker, script)
    assert run_world(Invoker, script) == expected
    drained, vanished, killed = expected["stats"]
    assert drained.requeued_on_drain > 0
    assert vanished.abandoned_on_kill > 0 and vanished.drain_started_at is None
    assert killed.abandoned_on_kill > 0 and killed.drain_started_at is not None
    assert any(r[1].name == "SUCCESS" and r[-1] for r in expected["records"])
    assert sum(evictions for _cold, _warm, evictions in expected["pools"]) > 0
