"""A serving invoker's ping schedule vs the timer-chain heartbeat it replaces.

The reference below (``TimerChainInvoker`` and ``MessageController``)
is the earlier liveness path, frozen: the invoker re-arms one timer
every ``ping_interval`` from registration and publishes a "healthy"
ping each time while it serves and a "draining" one after SIGTERM, and
the controller's health consumer refreshes ``last_ping`` from every
message.  The one change against that earlier code is the draining fix
both sides share: a "draining" ping refreshes a DRAINING record too.
Under test, the register message carries a :class:`PingSchedule` that
the ping scanner reads, and only a draining invoker arms a timer.

Each script runs the same seeded world twice, once per liveness path,
with drawn ping intervals, timeouts, scan intervals and publish
latencies, and invokers that serve to the end, drain on SIGTERM (held
open by a non-interruptible run, or cut short by SIGKILL) or vanish.
The controller event log, every invoker record and the healthy pools
must be equal at the end.

Registration times include exact grid values (0.0 and multiples of the
ping interval), so heard pings meet scans at the same float instant
and drains start before half the first interval, where the drain's
timer needs its hop.  Each further invoker is shifted by its own
constant and the signals by another: a SIGTERM that lands exactly on a
ping's fire is ordered by event ids in the reference (the ping may go
out as "healthy" or "draining"), and two invokers whose pings fire at
one instant send them in registration order in the reference but in
drain order here; both orders are valid runs of the protocol.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faas import Broker, Controller, FaaSConfig, FunctionDef, Invoker
from repro.faas.broker import FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.controller import ControllerEvent, InvokerRecord, InvokerStatus
from repro.faas.messages import (
    ActivationMessage,
    PingMessage,
    PingSchedule,
    next_activation_id,
    reset_activation_ids,
)
from repro.sim import Environment, Interrupt

DAY = 86400.0


# ----------------------------------------------------------------------
# the schedule's fire times
# ----------------------------------------------------------------------
@pytest.mark.parametrize("registered_at", [0.0, 13.0000001, 7777.777])
@pytest.mark.parametrize("latency", [0.0, 0.002])
def test_schedule_matches_a_rearmed_timer_chain_for_a_day(registered_at, latency):
    """Fire and heard times equal a re-armed timer chain's, bit for bit."""
    env = Environment(initial_time=registered_at)
    fires = []

    def fire(_timer):
        fires.append(env.now)
        env.timeout(2.0).callbacks.append(fire)

    env.timeout(2.0).callbacks.append(fire)
    env.run(until=registered_at + DAY + 1.0)
    assert len(fires) == 43200

    schedule = PingSchedule(registered_at, 2.0, latency)
    previous = None
    for fire_at in fires:
        heard = fire_at + latency
        # a ping heard at the scan's own instant is not counted yet
        assert schedule.heard_before(heard) == previous
        assert schedule.heard_before(math.nextafter(heard, math.inf)) == heard
        previous = heard
    # the drain's timer starts at the first fire at or after SIGTERM
    for fire_at in (fires[0], fires[-1]):
        schedule = PingSchedule(registered_at, 2.0, latency)
        assert schedule.stop(math.nextafter(fire_at, -math.inf)) == fire_at
        assert schedule.heard_before(math.inf) == (
            None if fire_at == fires[0] else fires[-2] + latency
        )


def test_a_stopped_schedule_counts_only_earlier_fires():
    schedule = PingSchedule(0.0, 2.0, 0.5)
    assert schedule.stop(5.0) == 6.0
    assert schedule.heard_before(4.5) == 2.5
    assert schedule.heard_before(100.0) == 4.5


def test_an_early_drain_pings_on_the_schedule_bit_for_bit(env):
    """Drained at 0.2 with pings every 0.9 s from 0.0, the first draining
    ping fires at 0.9 exactly, though 0.2 + (0.9 - 0.2) is not 0.9."""
    assert 0.2 + (0.9 - 0.2) != 0.9
    config = FaaSConfig(ping_interval=0.9, publish_latency=0.0, drain_notify_delay=0.8)
    broker = Broker(env, publish_latency=0.0)
    Controller(env, broker, config=config)
    sent = []
    publish = broker.publish

    def recording(topic, message):
        if topic == HEALTH_TOPIC:
            sent.append((message.kind, message.time))
        publish(topic, message)

    broker.publish = recording
    invoker = Invoker(env, "inv-0", "n0000", broker, None, config=config)

    def pilot(env):
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt:
            yield from invoker.drain()

    proc = env.process(pilot(env))
    env.run(until=0.2)
    proc.interrupt("term")
    env.run(until=5.0)
    assert sent == [
        ("register", 0.0),
        ("draining", 0.9),
        ("draining", 1.0),
        ("deregister", 1.2),
    ]


# ----------------------------------------------------------------------
# the frozen timer-chain liveness
# ----------------------------------------------------------------------
class TimerChainInvoker(Invoker):
    """A heartbeat timer from registration on, re-armed after each ping."""

    def register(self):
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id, "register", self.env.now,
                node=self.node, cluster=self.cluster_id,
            ),
        )
        self.stats.registered_at = self.env.now
        self._arm_heartbeat(self.config.ping_interval)
        yield self.env.timeout(self.broker.publish_latency)

    def _ping_draining(self) -> None:
        pass  # the running chain turns to "draining" pings by itself

    def _stop_heartbeat(self) -> None:
        if self._ping_timer is not None:
            self.env.cancel(self._ping_timer)
            self._ping_timer = None

    def _heartbeat(self, _timer) -> None:
        kind = "healthy" if not self._draining else "draining"
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id, kind, self.env.now,
                node=self.node, cluster=self.cluster_id,
            ),
        )
        self._arm_heartbeat(self.config.ping_interval)


class MessageController(Controller):
    """A health consumer that hears every ping as a message."""

    def _health_consumer(self):
        env = self.env
        while True:
            ping = yield self.broker.get(HEALTH_TOPIC)
            if ping.kind == "register":
                previous = self.invokers.get(ping.invoker_id)
                if previous is not None and previous.status is InvokerStatus.HEALTHY:
                    self._pool_remove(previous)
                record = InvokerRecord(
                    invoker_id=ping.invoker_id,
                    node=ping.node,
                    status=InvokerStatus.HEALTHY,
                    registered_at=env.now,
                    last_ping=env.now,
                    status_since=env.now,
                    cluster_id=ping.cluster,
                )
                self.invokers[ping.invoker_id] = record
                self._pool_add(record)
                self.events.append(
                    ControllerEvent(env.now, "invoker_registered", ping.invoker_id)
                )
            elif ping.kind == "healthy":
                record = self.invokers.get(ping.invoker_id)
                if record is not None and record.status is not InvokerStatus.GONE:
                    record.last_ping = env.now
            elif ping.kind == "draining":
                record = self.invokers.get(ping.invoker_id)
                if record is not None and record.status is InvokerStatus.DRAINING:
                    record.last_ping = env.now  # the shared draining fix
                if record is not None and record.status is InvokerStatus.HEALTHY:
                    record.status = InvokerStatus.DRAINING
                    record.status_since = env.now
                    record.last_ping = env.now
                    self._pool_remove(record)
                    moved = 0
                    if self.config.use_fast_lane:
                        source = self.invoker_topic(ping.invoker_id)
                        for message in self.broker.topic(source).peek_all():
                            message.fast_laned = True
                            entry = self._pending.get(message.activation_id)
                            if entry is not None:
                                entry[1].fast_laned = True
                        moved = self.broker.move_all(source, FASTLANE_TOPIC)
                    self.events.append(
                        ControllerEvent(
                            env.now,
                            "invoker_draining",
                            ping.invoker_id,
                            {"moved_to_fastlane": moved},
                        )
                    )
            elif ping.kind == "deregister":
                record = self.invokers.get(ping.invoker_id)
                if record is not None and record.status is not InvokerStatus.GONE:
                    if record.status is InvokerStatus.HEALTHY:
                        self._pool_remove(record)
                    record.status = InvokerStatus.GONE
                    record.status_since = env.now
                    record.gone_at = env.now
                    self.events.append(
                        ControllerEvent(env.now, "invoker_deregistered", ping.invoker_id)
                    )

    def _ping_scanner(self):
        env = self.env
        while True:
            yield env.timeout(self.config.health_check_interval)
            deadline = env.now - self.config.ping_timeout
            for record in self.invokers.values():
                if record.status is InvokerStatus.GONE:
                    continue
                if record.last_ping < deadline:
                    if record.status is InvokerStatus.HEALTHY:
                        self._pool_remove(record)
                    record.status = InvokerStatus.GONE
                    record.status_since = env.now
                    record.gone_at = env.now
                    stranded = self.broker.peek_depth(self.invoker_topic(record.invoker_id))
                    self.events.append(
                        ControllerEvent(
                            env.now, "invoker_lost", record.invoker_id, {"stranded": stranded}
                        )
                    )


# ----------------------------------------------------------------------
# one seeded world
# ----------------------------------------------------------------------
#: shift of each further invoker's registration and of every signal (see
#: the module docstring)
INVOKER_SHIFT = 0.0314159
SIGNAL_SHIFT = 0.0271828

HORIZON = 150.0


def run_world(invoker_cls, controller_cls, script) -> dict:
    reset_activation_ids()
    env = Environment()
    config = FaaSConfig(
        publish_latency=script["latency"],
        ping_interval=script["interval"],
        ping_timeout=script["interval"] * script["timeout_factor"],
        health_check_interval=script["scan"],
        activation_timeout=HORIZON,
    )
    broker = Broker(env, publish_latency=config.publish_latency)
    controller = controller_cls(env, broker, config=config)
    controller.deploy(FunctionDef(name="hold", duration=1.0))
    rng = np.random.default_rng(script["seed"])

    def pilot(env, invoker, start):
        yield env.timeout(start)
        registered = False
        try:
            yield from invoker.register()
            registered = True
            yield from invoker.serve()
        except Interrupt as interrupt:
            if interrupt.cause == "kill":
                invoker.vanish()
            elif registered:
                yield from invoker.drain()
            else:
                invoker.abort()

    def signal(env, proc, at, cause):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt(cause)

    def hold(env, invoker, at, duration):
        yield env.timeout(at)
        broker.publish(
            invoker.topic,
            ActivationMessage(
                next_activation_id(), "hold", None, env.now,
                duration=duration, interruptible=False,
            ),
        )

    for index, plan in enumerate(script["invokers"]):
        invoker = invoker_cls(
            env, f"inv-{index}", f"n{index:04d}", broker, controller.registry,
            config=config, rng=rng, cluster_id=f"c{index % 2}",
        )
        start = plan["start"] + index * INVOKER_SHIFT
        proc = env.process(pilot(env, invoker, start))
        at = start + SIGNAL_SHIFT + plan["signal_after"]
        if plan["hold"] is not None:
            env.process(hold(env, invoker, start, plan["hold"]))
        if plan["end"] == "term":
            env.process(signal(env, proc, at, "term"))
            if plan["kill_after"] is not None:
                env.process(signal(env, proc, at + plan["kill_after"], "kill"))
        elif plan["end"] == "vanish":
            env.process(signal(env, proc, at, "kill"))

    env.run(until=HORIZON)
    return {
        "events": [(e.time, e.kind, e.invoker_id, e.detail) for e in controller.events],
        "records": {
            invoker_id: (
                record.status, record.registered_at, record.status_since,
                record.gone_at, record.cluster_id,
            )
            for invoker_id, record in controller.invokers.items()
        },
        "healthy": controller.healthy_invokers(),
        "pools": controller.healthy_by_cluster(),
        "rng": rng.bit_generator.state,
    }


def starts(interval: float):
    """Exact grid values, or anywhere in the first minute."""
    return st.one_of(
        st.sampled_from([0.0, interval, 2 * interval, 5 * interval]),
        st.floats(min_value=0.0, max_value=60.0),
    )


def plans(interval: float):
    return st.fixed_dictionaries(
        {
            "start": starts(interval),
            "end": st.sampled_from(["serve", "term", "vanish"]),
            "signal_after": st.floats(min_value=0.0, max_value=40.0),
            "kill_after": st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
            # a non-interruptible run published at registration
            "hold": st.one_of(st.none(), st.floats(min_value=0.1, max_value=60.0)),
        }
    )


@st.composite
def scripts(draw):
    interval = draw(
        st.one_of(st.sampled_from([0.9, 2.0, 3.0]), st.floats(min_value=0.2, max_value=5.0))
    )
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "interval": interval,
        "timeout_factor": draw(
            st.one_of(st.sampled_from([1.5, 2.0, 5.0]), st.floats(min_value=1.01, max_value=8.0))
        ),
        "scan": draw(
            st.one_of(st.sampled_from([1.0, 2.0, interval]), st.floats(min_value=0.1, max_value=6.0))
        ),
        "latency": draw(
            st.one_of(st.sampled_from([0.0, 0.002, 0.5]), st.floats(min_value=0.0, max_value=6.0))
        ),
        "invokers": draw(st.lists(plans(interval), min_size=1, max_size=3)),
    }


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts())
def test_the_ping_schedule_matches_the_timer_chain(script):
    expected = run_world(TimerChainInvoker, MessageController, script)
    actual = run_world(Invoker, Controller, script)
    assert actual == expected


def test_the_oracle_exercises_losses_long_drains_kills_and_early_drains():
    """A fixed script: the comparison above is not vacuous."""
    script = {
        "seed": 5,
        "interval": 0.9,
        "timeout_factor": 5.0,
        "scan": 0.9,
        "latency": 0.0,
        "invokers": [
            # drained before half its first interval: the drain's hop
            {"start": 0.0, "end": "term", "signal_after": 0.1, "kill_after": None,
             "hold": None},
            # a drain held open by a 40 s run, longer than ping_timeout
            {"start": 0.9, "end": "term", "signal_after": 5.0, "kill_after": None,
             "hold": 40.0},
            # SIGKILL mid-drain, with the run still going
            {"start": 3.0, "end": "term", "signal_after": 5.0, "kill_after": 10.0,
             "hold": 40.0},
            # a crash: found by the scanner
            {"start": 1.8, "end": "vanish", "signal_after": 7.0, "kill_after": None,
             "hold": None},
        ],
    }
    expected = run_world(TimerChainInvoker, MessageController, script)
    assert run_world(Invoker, Controller, script) == expected
    kinds = [(kind, invoker_id) for _time, kind, invoker_id, _detail in expected["events"]]
    for index in range(3):
        assert ("invoker_deregistered", f"inv-{index}") in kinds
    assert ("invoker_lost", "inv-3") in kinds
    left = {e[2]: e[0] for e in expected["events"] if e[1] == "invoker_deregistered"}
    assert left["inv-1"] > 40.0  # the drain outlasted ping_timeout (4.5 s)
    assert left["inv-2"] < 20.0  # the kill cut the drain short
