"""Integration tests for the controller + invoker protocol."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faas import (
    ActivationStatus,
    Broker,
    Controller,
    FaaSConfig,
    FunctionDef,
    Invoker,
    InvokerStatus,
)
from repro.faas.broker import COMPLETED_TOPIC, FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.messages import CompletionMessage, PingMessage, PingSchedule
from repro.sim import Environment, Interrupt


def fast_config(**overrides):
    defaults = dict(
        publish_latency=0.001,
        system_overhead=0.0,
        drain_notify_delay=0.01,
        drain_republish_delay=0.001,
        drain_deregister_delay=0.01,
    )
    defaults.update(overrides)
    return FaaSConfig(**defaults)


def build_stack(env, config=None):
    config = config or fast_config()
    broker = Broker(env, publish_latency=config.publish_latency)
    controller = Controller(env, broker, config=config, rng=np.random.default_rng(0))
    return broker, controller, config


def spawn_invoker(env, broker, controller, config, invoker_id="inv-1", node="n0000"):
    invoker = Invoker(
        env, invoker_id, node, broker, controller.registry,
        config=config, rng=np.random.default_rng(1),
    )

    def lifecycle(env):
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt:
            yield from invoker.drain()

    proc = env.process(lifecycle(env))
    return invoker, proc


# ----------------------------------------------------------------------
# registration & health
# ----------------------------------------------------------------------
def test_register_makes_invoker_healthy(env):
    broker, controller, config = build_stack(env)
    invoker, _ = spawn_invoker(env, broker, controller, config)
    env.run(until=1)
    assert controller.healthy_invokers() == ["inv-1"]
    assert controller.invokers["inv-1"].status is InvokerStatus.HEALTHY


def test_missed_pings_mark_invoker_gone(env):
    """An invoker that registers and then falls silent (crash / SIGKILL
    without drain) is detected by the ping scanner."""
    broker, controller, config = build_stack(env)
    from repro.faas.messages import PingMessage

    broker.publish("health", PingMessage("crashed", "register", 0.0, node="n0000"))
    env.run(until=30)  # ping_timeout is 10 s, scanner period 2 s
    assert controller.invokers["crashed"].status is InvokerStatus.GONE
    assert any(e.kind == "invoker_lost" for e in controller.events)


def test_invoke_without_function_fails(env):
    broker, controller, config = build_stack(env)

    def client(env):
        result = yield from controller.invoke("ghost")
        return result

    proc = env.process(client(env))
    env.run(until=5)
    assert proc.value.status is ActivationStatus.FAILED


def test_invoke_without_invokers_returns_503(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))

    def client(env):
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=5)
    assert proc.value.status is ActivationStatus.UNAVAILABLE
    assert controller.unavailable_count == 1


# ----------------------------------------------------------------------
# invocation path
# ----------------------------------------------------------------------
def test_end_to_end_invocation(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.05))
    spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)  # let registration land
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=10)
    result = proc.value
    assert result.status is ActivationStatus.SUCCESS
    assert result.response_time > 0.05  # duration + cold start
    record = controller.records[0]
    assert record.status is ActivationStatus.SUCCESS
    assert record.duration == pytest.approx(0.05)
    assert record.init_time > 0  # cold start charged


def test_warm_second_invocation_faster(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.05))
    spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)
        first = yield from controller.invoke("f")
        second = yield from controller.invoke("f")
        return first, second

    proc = env.process(client(env))
    env.run(until=10)
    first, second = proc.value
    assert second.response_time < first.response_time


def test_hash_affinity_routes_same_function_to_same_invoker(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    spawn_invoker(env, broker, controller, config, invoker_id="inv-1")
    spawn_invoker(env, broker, controller, config, invoker_id="inv-2", node="n0001")

    def client(env):
        yield env.timeout(1)
        for _ in range(5):
            yield from controller.invoke("f")

    env.process(client(env))
    env.run(until=10)
    assert len({r.invoker_id for r in controller.records}) == 1


def test_activation_timeout_when_invoker_silent(env):
    config = fast_config(activation_timeout=5.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    # Register a ghost invoker that never pulls its topic but pings.
    broker.publish(
        "health",
        PingMessage(
            "ghost", "register", 0.0, node="x",
            schedule=PingSchedule(0.0, 1.0, config.publish_latency),
        ),
    )

    def client(env):
        yield env.timeout(0.5)
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=20)
    assert proc.value.status is ActivationStatus.TIMEOUT
    assert proc.value.response_time == pytest.approx(5.0, abs=0.1)
    assert controller.invokers["ghost"].status is InvokerStatus.HEALTHY


def test_overload_rejection(env):
    config = fast_config(buffer_limit=2, max_containers=1)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="slow", duration=30.0))
    invoker, _ = spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)
        results = []
        procs = [env.process(controller.invoke("slow")) for _ in range(6)]
        for proc in procs:
            results.append((yield proc))
        return results

    proc = env.process(client(env))
    env.run(until=300)
    statuses = [r.status for r in proc.value]
    assert statuses.count(ActivationStatus.FAILED) >= 3
    assert invoker.stats.rejected_overload >= 3


# ----------------------------------------------------------------------
# drain protocol (Sec. III-C)
# ----------------------------------------------------------------------
def test_drain_deregisters_and_moves_unpulled_to_fastlane(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    invoker, proc = spawn_invoker(env, broker, controller, config)
    env.run(until=1)
    # Park messages in the invoker topic while it is busy pulling: publish
    # directly (controller would route here anyway).
    proc.interrupt("sigterm")
    env.run(until=5)
    assert controller.invokers["inv-1"].status is InvokerStatus.GONE
    assert invoker.stats.deregistered_at is not None


def test_a_drain_that_outlasts_the_ping_timeout_deregisters(env):
    """A drain waiting out a non-interruptible run sends "draining" pings
    past ``ping_timeout``; they keep the DRAINING record alive, so the
    invoker leaves by deregistering, not as a loss."""
    config = fast_config(activation_timeout=60.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="long", duration=30.0))
    invoker, proc = spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)
        return (yield from controller.invoke("long", interruptible=False))

    call = env.process(client(env))
    env.run(until=5)
    proc.interrupt("sigterm")
    env.run(until=60)
    assert call.value.status is ActivationStatus.SUCCESS
    assert [(e.kind, e.invoker_id) for e in controller.events] == [
        ("invoker_registered", "inv-1"),
        ("invoker_draining", "inv-1"),
        ("invoker_deregistered", "inv-1"),
    ]
    record = controller.invokers["inv-1"]
    assert record.status is InvokerStatus.GONE
    assert record.gone_at == invoker.stats.deregistered_at + config.publish_latency
    assert record.gone_at - invoker.stats.drain_started_at > config.ping_timeout + 15


def test_drain_requeues_buffered_work_to_fastlane_and_other_invoker_serves(env):
    config = fast_config(activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=5.0))
    # Single invoker first: it will receive the work.
    invoker1, proc1 = spawn_invoker(env, broker, controller, config, "inv-1")

    results = []

    def client(env):
        yield env.timeout(1)
        procs = [env.process(controller.invoke("job")) for _ in range(4)]
        for p in procs:
            results.append((yield p))

    env.process(client(env))

    def second_invoker(env):
        yield env.timeout(2.5)
        spawn_invoker(env, broker, controller, config, "inv-2", node="n0001")

    env.process(second_invoker(env))

    def sigterm(env):
        yield env.timeout(3.0)  # inv-1 executing + buffered work
        proc1.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    statuses = [r.status for r in results]
    assert statuses.count(ActivationStatus.SUCCESS) == 4
    # At least one activation travelled through the fast lane.
    assert any(r.fast_laned for r in results)
    served_by = {r.activation_id: None for r in results}
    assert any(rec.invoker_id == "inv-2" for rec in controller.records)


def test_drain_without_other_invokers_loses_requeued_work_to_timeout(env):
    config = fast_config(activation_timeout=8.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=5.0))
    invoker, proc = spawn_invoker(env, broker, controller, config)

    results = []

    def client(env):
        yield env.timeout(1)
        procs = [env.process(controller.invoke("job")) for _ in range(2)]
        for p in procs:
            results.append((yield p))

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(2.0)
        proc.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    # Requeued messages sat in the fast lane with nobody to serve them.
    statuses = {r.status for r in results}
    assert ActivationStatus.TIMEOUT in statuses


def test_non_interruptible_execution_finishes_during_drain(env):
    config = fast_config(interrupt_running=True, activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=4.0))
    invoker, proc = spawn_invoker(env, broker, controller, config)

    results = []

    def client(env):
        yield env.timeout(1)
        result = yield from controller.invoke("job", interruptible=False)
        results.append(result)

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(2.0)  # mid-execution
        proc.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    assert results[0].status is ActivationStatus.SUCCESS
    # It was NOT fast-laned: the execution ran to completion locally.
    assert invoker.stats.completed == 1


def test_interruptible_execution_requeued_on_drain(env):
    config = fast_config(interrupt_running=True, activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=10.0))
    invoker1, proc1 = spawn_invoker(env, broker, controller, config, "inv-1")
    spawn_stage = {}

    results = []

    def client(env):
        yield env.timeout(1)
        result = yield from controller.invoke("job", interruptible=True)
        results.append(result)

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(3.0)
        proc1.interrupt("sigterm")
        # A second invoker appears and picks the requeued execution up.
        spawn_invoker(env, broker, controller, config, "inv-2", node="n0001")

    env.process(sigterm(env))
    env.run(until=60)
    assert results and results[0].status is ActivationStatus.SUCCESS
    assert results[0].fast_laned
    assert invoker1.stats.requeued_on_drain == 1


def test_every_activation_moved_on_a_drain_notice_reports_fast_laned(env):
    """A waiting invoker's claim takes the first moved message inside
    ``move_all`` itself; it must be flagged like the ones still buffered."""
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    pilots = {
        invoker_id: spawn_invoker(env, broker, controller, config, invoker_id, node)
        for invoker_id, node in (("inv-1", "n0000"), ("inv-2", "n0001"))
    }
    env.run(until=1)
    target = controller.choose_invoker("f")
    (other,) = set(pilots) - {target}
    pilots[target][1].interrupt("sigterm")  # the draining notice lands 10 ms later
    results = []

    def client(env):
        for _ in range(3):
            yield env.timeout(0.002)
            controller.submit("f", results.append)

    env.process(client(env))
    env.run(until=5)
    assert [r.status for r in results] == [ActivationStatus.SUCCESS] * 3
    assert [r.fast_laned for r in results] == [True] * 3
    assert [(r.invoker_id, r.fast_laned) for r in controller.records] == [(other, True)] * 3


def test_submit_reports_through_the_callback(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.05))
    results = []
    controller.submit("ghost", results.append)
    controller.submit("f", results.append)  # no invoker yet: 503 inline
    assert [r.status for r in results] == [
        ActivationStatus.FAILED, ActivationStatus.UNAVAILABLE,
    ]
    spawn_invoker(env, broker, controller, config)
    env.run(until=1)
    controller.submit("f", results.append)
    assert len(results) == 2  # accepted: the result comes at delivery
    env.run(until=5)
    assert results[2].status is ActivationStatus.SUCCESS
    assert results[2].response_time == pytest.approx(
        controller.records[0].completed_at - 1.0
    )
    assert controller.inflight_count == 0


def test_fastlane_served_before_own_topic(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    from repro.faas.messages import ActivationMessage

    # Pre-load both topics before the invoker starts pulling.
    own = ActivationMessage("act-own", "f", None, 0.0, duration=0.01)
    fast = ActivationMessage("act-fast", "f", None, 0.0, duration=0.01)
    broker.topic("invoker-inv-1").put(own)
    broker.topic(FASTLANE_TOPIC).put(fast)

    served = []
    invoker = Invoker(
        env, "inv-1", "n0000", broker, controller.registry,
        config=config, rng=np.random.default_rng(1),
    )
    original = invoker._accept

    def spy(message):
        served.append(message.activation_id)
        original(message)

    invoker._accept = spy

    def lifecycle(env):
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt:
            pass

    env.process(lifecycle(env))
    env.run(until=5)
    assert served[0] == "act-fast"


# ----------------------------------------------------------------------
# activation deadlines
# ----------------------------------------------------------------------

def register_ghost(broker, invoker_id="ghost", cluster=""):
    """An invoker the controller routes to, but which never pulls."""
    broker.publish(HEALTH_TOPIC, PingMessage(invoker_id, "register", 0.0, cluster=cluster))


def fake_invoker(env, broker, delays, invoker_id="ghost"):
    """Pulls its topic and completes each activation after ``delays[i]``
    (the i-th message it receives), concurrently."""

    def complete(message, delay):
        yield env.timeout(delay)
        broker.publish(COMPLETED_TOPIC, CompletionMessage(message.activation_id, invoker_id, True))

    def pull(env):
        for delay in delays:
            message = yield broker.get(f"invoker-{invoker_id}")
            env.process(complete(message, delay))

    return env.process(pull(env))


def submit_at(env, controller, times, results):
    def client(env):
        for at in times:
            # max(): the clock can overshoot a sum of float delays by an ulp
            yield env.timeout(max(0.0, at - env.now))
            env.process(one(env))

    def one(env):
        results.append((yield from controller.invoke("f")))

    return env.process(client(env))


def test_silent_invoker_times_out_exactly_at_deadline(env):
    config = fast_config(activation_timeout=7.0, ping_timeout=1e9)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    register_ghost(broker)
    times = [0.1, 0.7, 1.3, 2.9, 3.3, 9.1, 9.4]  # several deadlines re-arm
    results = []
    submit_at(env, controller, times, results)
    env.run(until=30)
    assert [r.status for r in results] == [ActivationStatus.TIMEOUT] * len(times)
    assert [r.completed_at for r in controller.records] == [t + 7.0 for t in times]
    assert [r.response_time for r in results] == [(t + 7.0) - t for t in times]


def test_late_completion_is_dropped_and_inflight_returns_to_zero(env):
    config = fast_config(activation_timeout=5.0, ping_timeout=1e9, health_check_interval=1e6)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    register_ghost(broker, cluster="alpha")
    results = []
    submit_at(env, controller, [1.0, 1.5], results)
    env.run(until=2)
    assert controller.inflight_count == 2
    assert controller.inflight_count_for("alpha") == 2
    env.run(until=10)
    assert controller.inflight_count == 0
    assert controller.inflight_count_for("alpha") == 0
    for record in controller.records:
        broker.publish(COMPLETED_TOPIC, CompletionMessage(record.activation_id, "ghost", True))
    env.run(until=12)
    assert [r.status for r in results] == [ActivationStatus.TIMEOUT] * 2
    assert [r.status for r in controller.records] == [ActivationStatus.TIMEOUT] * 2
    assert controller.inflight_count == 0
    assert controller.inflight_count_for("alpha") == 0


def test_at_most_one_deadline_timer_is_queued(env):
    """Fifty pending activations keep only the ledger's one timer queued."""
    config = fast_config(activation_timeout=10.0, ping_timeout=1e9, health_check_interval=1e6)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    register_ghost(broker)
    results = []
    times = [0.5 + 0.1 * i for i in range(50)]
    submit_at(env, controller, times, results)
    while env.peek() < 30:
        env.step()
        # ping scanner + client + at most one delivery + the ledger timer
        assert len(env) <= 4
        if env.now == 5.5:
            assert controller.inflight_count == 50
    assert len(results) == 50
    assert {r.status for r in results} == {ActivationStatus.TIMEOUT}
    assert [r.completed_at for r in controller.records] == [t + 10.0 for t in times]


class _UnscannedController(Controller):
    """No ping scanner, so the run ends once the queue drains."""

    def _ping_scanner(self):
        return
        yield


def test_run_ends_soon_after_the_last_completion(env):
    config = fast_config(activation_timeout=60.0)
    broker = Broker(env, publish_latency=config.publish_latency)
    controller = _UnscannedController(env, broker, config=config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    register_ghost(broker)
    fake_invoker(env, broker, [0.3] * 20)
    results = []
    submit_at(env, controller, [1.0 + 0.05 * i for i in range(20)], results)
    env.run()
    assert [r.status for r in results] == [ActivationStatus.SUCCESS] * 20
    # the run ends with the last completion, not a minute later
    assert env.now == max(r.completed_at for r in controller.records)
    assert controller.inflight_count == 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    plan=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        ),
        min_size=1,
        max_size=25,
    )
)
@example(plan=[(1.8, 0.0), (1.8, 0.0), (0.6, 2.0)])
def test_each_invocation_gets_one_outcome_timeout_iff_late(plan):
    """Completion delays on both sides of the timeout: TIMEOUT exactly
    when the delay exceeds it, and never two outcomes for one call."""
    timeout = 10.0
    plan = sorted(plan)
    plan = [(at, delay) for at, delay in plan if abs(delay - timeout) > 1e-6]
    env = Environment()
    config = fast_config(
        publish_latency=0.0, activation_timeout=timeout, ping_timeout=1e9,
        health_check_interval=1e6,
    )
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    register_ghost(broker)
    fake_invoker(env, broker, [delay for _at, delay in plan])
    results = []
    submit_at(env, controller, [at for at, _delay in plan], results)
    env.run(until=60)
    by_id = {r.activation_id: r for r in results}
    assert len(by_id) == len(results) == len(plan)
    for record, (_at, delay) in zip(controller.records, plan):
        expected = ActivationStatus.TIMEOUT if delay > timeout else ActivationStatus.SUCCESS
        assert by_id[record.activation_id].status is expected
        assert record.status is expected
    assert controller.inflight_count == 0
