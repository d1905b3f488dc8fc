"""Integration tests for the controller + slurmd over the DES."""

import pytest

from repro.cluster import JobSpec, JobState, SlurmConfig, SlurmController
from repro.cluster.backfill import SchedulerConfig
from repro.sim import Environment, Interrupt


def make_cluster(env, nodes=4, **sched_kwargs):
    config = SlurmConfig(num_nodes=nodes, scheduler=SchedulerConfig(**sched_kwargs))
    return SlurmController(env, config)


def test_submit_unknown_partition_rejected(env):
    controller = make_cluster(env)
    with pytest.raises(ValueError):
        controller.submit(JobSpec(name="x", partition="nope"))


def test_partition_max_time_enforced_at_submit(env):
    controller = make_cluster(env)
    with pytest.raises(ValueError):
        controller.submit(JobSpec(name="x", partition="whisk", time_limit=7201.0))


def test_tier0_job_wider_than_one_node_rejected(env):
    controller = make_cluster(env)
    with pytest.raises(ValueError, match="tier 0"):
        controller.submit(JobSpec(name="x", partition="whisk", num_nodes=2))


def test_tier0_job_with_begin_time_rejected(env):
    controller = make_cluster(env)
    with pytest.raises(ValueError, match="tier 0"):
        controller.submit(JobSpec(name="x", partition="whisk", begin_time=1000.0))


def test_tier0_job_pinned_to_nodes_rejected(env):
    controller = make_cluster(env)
    with pytest.raises(ValueError, match="tier 0"):
        controller.submit(JobSpec(name="x", partition="whisk", required_nodes=("n0003",)))
    assert controller.pending == []


def test_job_runs_and_completes(env):
    controller = make_cluster(env)
    job = controller.submit(JobSpec(name="j", time_limit=600, actual_runtime=100))
    env.run(until=1000)
    assert job.state is JobState.COMPLETED
    assert job.runtime() == pytest.approx(100.0)


def test_sleep_job_without_actual_runs_to_limit(env):
    controller = make_cluster(env)
    job = controller.submit(JobSpec(name="j", time_limit=300))
    env.run(until=1000)
    assert job.state is JobState.COMPLETED
    assert job.runtime() == pytest.approx(300.0)


def test_job_exceeding_limit_is_timeout(env):
    controller = make_cluster(env)
    job = controller.submit(JobSpec(name="j", time_limit=100, actual_runtime=500))
    env.run(until=1000)
    assert job.state is JobState.TIMEOUT
    assert job.runtime() == pytest.approx(100.0)


def test_cancel_pending_job(env):
    controller = make_cluster(env, nodes=1)
    blocker = controller.submit(JobSpec(name="a", time_limit=1000, actual_runtime=1000))
    waiting = controller.submit(JobSpec(name="b", time_limit=100))
    env.run(until=10)
    controller.cancel(waiting)
    assert waiting.state is JobState.CANCELLED
    assert waiting not in controller.pending


def test_cancel_running_job(env):
    controller = make_cluster(env)
    job = controller.submit(JobSpec(name="j", time_limit=1000, actual_runtime=1000))
    env.run(until=50)
    controller.cancel(job)
    env.run(until=2000)
    assert job.state is JobState.CANCELLED
    assert job.end_time < 1000


def test_jobs_queue_when_cluster_full(env):
    controller = make_cluster(env, nodes=1)
    first = controller.submit(JobSpec(name="a", time_limit=100, actual_runtime=100))
    second = controller.submit(JobSpec(name="b", time_limit=100, actual_runtime=100))
    env.run(until=500)
    assert first.state is JobState.COMPLETED
    assert second.state is JobState.COMPLETED
    assert second.start_time >= first.end_time


def test_begin_time_respected(env):
    controller = make_cluster(env)
    job = controller.submit(
        JobSpec(name="j", time_limit=100, actual_runtime=50, begin_time=400.0)
    )
    env.run(until=1000)
    assert job.start_time >= 400.0
    assert job.state is JobState.COMPLETED


def test_node_exclusive_allocation(env):
    controller = make_cluster(env, nodes=2)
    a = controller.submit(JobSpec(name="a", num_nodes=2, time_limit=100, actual_runtime=100))
    b = controller.submit(JobSpec(name="b", num_nodes=1, time_limit=100, actual_runtime=100))
    env.run(until=500)
    # b could only start after a released its two nodes.
    assert b.start_time >= a.end_time


def test_allocation_log_intervals_close(env):
    controller = make_cluster(env)
    controller.submit(JobSpec(name="j", time_limit=100, actual_runtime=100))
    env.run(until=500)
    assert len(controller.allocation_log) == 1
    interval = controller.allocation_log[0]
    assert interval.end is not None
    assert interval.end - interval.start == pytest.approx(100.0)


def test_utilization_accounting(env):
    controller = make_cluster(env, nodes=2)
    controller.submit(JobSpec(name="j", num_nodes=2, time_limit=500, actual_runtime=500))
    env.run(until=501)
    controller.close_interval_log()
    # 2 nodes busy 1..501 of a 501 s window on 2 nodes ≈ 1.0
    assert controller.utilization(0.0, 501.0) == pytest.approx(2 * 500 / (2 * 501), rel=1e-6)


def test_on_job_callbacks_fire(env):
    controller = make_cluster(env)
    started, ended = [], []
    controller.on_job_start.append(lambda j: started.append(j.job_id))
    controller.on_job_end.append(lambda j: ended.append(j.job_id))
    job = controller.submit(JobSpec(name="j", time_limit=50, actual_runtime=50))
    env.run(until=200)
    assert started == [job.job_id]
    assert ended == [job.job_id]


# ----------------------------------------------------------------------
# preemption end-to-end
# ----------------------------------------------------------------------
def pilot_body_factory(drain_seconds=5.0, record=None):
    def body(env, job, nodes):
        try:
            yield env.timeout(10**9)
        except Interrupt as interrupt:
            if record is not None:
                record.append((env.now, interrupt.cause))
            yield env.timeout(drain_seconds)
            return "drained"

    return body


def test_preemption_delivers_sigterm_then_job_preempted(env):
    controller = make_cluster(env, nodes=1)
    signals = []
    pilot = controller.submit(
        JobSpec(
            name="pilot", partition="whisk", time_limit=3600,
            body=pilot_body_factory(record=signals),
        )
    )
    env.run(until=100)
    assert pilot.state is JobState.RUNNING
    prime = controller.submit(JobSpec(name="prime", time_limit=600, actual_runtime=60))
    env.run(until=1000)
    assert pilot.state is JobState.PREEMPTED
    assert pilot.result == "drained"
    assert prime.state is JobState.COMPLETED
    assert len(signals) == 1
    from repro.cluster.slurmd import TermSignal
    from repro.cluster.job import JobSignal

    cause = signals[0][1]
    assert isinstance(cause, TermSignal)
    assert cause.signal is JobSignal.SIGTERM
    assert cause.reason == "preempt"


def test_preemption_prime_delay_bounded_by_drain(env):
    controller = make_cluster(env, nodes=1)
    pilot = controller.submit(
        JobSpec(name="pilot", partition="whisk", time_limit=3600,
                body=pilot_body_factory(drain_seconds=5.0))
    )
    env.run(until=100)
    arrival = env.now
    prime = controller.submit(JobSpec(name="prime", time_limit=600, actual_runtime=60))
    env.run(until=1000)
    # prime started shortly after the pilot's 5 s drain, not after 3 min.
    assert prime.start_time - arrival < 60.0


def test_slow_drain_killed_at_grace(env):
    controller = make_cluster(env, nodes=1)
    pilot = controller.submit(
        JobSpec(name="pilot", partition="whisk", time_limit=3600,
                body=pilot_body_factory(drain_seconds=10**6))
    )
    env.run(until=100)
    controller.submit(JobSpec(name="prime", time_limit=600, actual_runtime=60))
    env.run(until=2000)
    assert pilot.state is JobState.PREEMPTED
    # grace is 180 s: the pilot ended within grace + epsilon of SIGTERM
    assert pilot.end_time - pilot.sigterm_time == pytest.approx(180.0, abs=1.0)


def test_pilot_timeout_gets_sigterm_at_limit(env):
    controller = make_cluster(env, nodes=1)
    signals = []
    pilot = controller.submit(
        JobSpec(name="pilot", partition="whisk", time_limit=240,
                body=pilot_body_factory(record=signals))
    )
    env.run(until=2000)
    assert pilot.state is JobState.TIMEOUT
    assert signals and signals[0][1].reason == "timeout"
    # SIGTERM arrived at the granted limit (start + 240).
    assert signals[0][0] == pytest.approx(pilot.start_time + 240.0)


def test_higher_tier_never_delayed_by_pilot_placement(env):
    """Submitting pilot jobs must not delay a prime job's start."""
    # Run once without pilots.
    env_a = Environment()
    controller_a = make_cluster(env_a, nodes=2)
    prime_a = controller_a.submit(
        JobSpec(name="p", num_nodes=2, time_limit=300, actual_runtime=300, begin_time=100.0)
    )
    env_a.run(until=1000)

    # And once with a flood of pilots.
    env_b = Environment()
    controller_b = make_cluster(env_b, nodes=2)
    for i in range(20):
        controller_b.submit(
            JobSpec(name=f"pilot{i}", partition="whisk", time_limit=240,
                    body=pilot_body_factory())
        )
    prime_b = controller_b.submit(
        JobSpec(name="p", num_nodes=2, time_limit=300, actual_runtime=300, begin_time=100.0)
    )
    env_b.run(until=1000)

    # The prime start may shift only by the pilots' drain time (≤ ~10 s),
    # never by a pilot's full length.
    assert prime_b.start_time - prime_a.start_time < 30.0
