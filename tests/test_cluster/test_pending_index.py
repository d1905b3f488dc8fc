"""The maintained pending index vs a rescan of the whole queue.

``SlurmController`` keeps its pending queue in a ``PendingIndex``, updated
on submit, start and cancel, and ``BackfillScheduler.plan`` reads it.
These tests drive a live controller through random scripts and, after
every step, plan the same pass twice: once from the maintained index and
once with ``rescan_plan`` below, a frozen copy of the planner body that
rebuilt the tiers, the per-tier sorts and every pinned claim from the
queue on each pass.  Both sides get an identically seeded RNG; the whole
plan and the RNG state afterwards must match.  The index must be a pure
cache of the queue, never an approximation.
"""

import copy
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import JobSpec, JobState, SlurmConfig, SlurmController
from repro.cluster.backfill import BackfillScheduler, SchedulingPlan, StartDecision
from repro.cluster.job import Job
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition, PreemptMode, default_partitions
from repro.scenarios import REGISTRY, load_builtin
from repro.sim import Environment


def rescan_plan(
    scheduler: BackfillScheduler,
    now: float,
    pending: List[Job],
    nodes: Dict[str, Node],
    partitions: Dict[str, Partition],
    committed: Dict[str, int],
    include_tier0: bool = True,
    include_flexible: bool = True,
) -> SchedulingPlan:
    """The reference planner: every pass rescans the whole queue."""
    plan = SchedulingPlan()
    cfg = scheduler.config

    def tier_of(job: Job) -> int:
        return partitions[job.spec.partition].priority_tier

    eligible = [j for j in pending if j.is_pending]
    tiers = sorted({tier_of(j) for j in eligible}, reverse=True)

    free_now: Dict[str, Node] = {
        name: n
        for name, n in nodes.items()
        if n.state is NodeState.IDLE and name not in committed
    }
    claims: Dict[str, float] = {}

    def claim(node_name: str, when: float) -> None:
        prev = claims.get(node_name)
        if prev is None or when < prev:
            claims[node_name] = when

    for job in pending:
        if not job.is_pending:
            continue
        if tier_of(job) == 0:
            continue
        if job.spec.required_nodes:
            start_at = max(now, job.spec.begin_time if job.spec.begin_time is not None else job.submit_time)
            for node_name in job.spec.required_nodes[: job.spec.num_nodes]:
                claim(node_name, start_at)

    reservations_left = cfg.max_reservations
    for tier in tiers:
        if tier == 0:
            continue
        tier_jobs = sorted(
            (j for j in eligible if tier_of(j) == tier),
            key=lambda j: (-j.spec.priority, j.submit_time, j.job_id),
        )
        for job in tier_jobs:
            begin = job.spec.begin_time if job.spec.begin_time is not None else job.submit_time
            if begin > now:
                continue
            placed = scheduler._try_start_or_preempt(
                now, job, tier, nodes, partitions, free_now, committed, plan
            )
            if placed:
                continue
            if reservations_left > 0:
                reservations_left -= 1
                scheduler._reserve(now, job, nodes, partitions, committed, claim)

    if not include_tier0:
        plan.reservations = dict(claims)
        return plan
    fixed_budget = cfg.max_fixed_starts_per_pass
    flex_budget = cfg.max_flex_starts_per_pass if include_flexible else 0
    tier0_jobs = sorted(
        (j for j in eligible if tier_of(j) == 0),
        key=lambda j: (-j.spec.priority, j.submit_time, j.job_id),
    )
    for job in tier0_jobs:
        if not free_now:
            break
        is_flex = job.spec.is_flexible
        if is_flex and flex_budget <= 0:
            continue
        if not is_flex and fixed_budget <= 0:
            continue
        plan.examined_tier0 += 1
        choice = scheduler._fit_tier0(now, job, free_now, claims)
        if choice is None:
            continue
        node, granted = choice
        del free_now[node.name]
        plan.starts.append(StartDecision(job=job, nodes=(node,), granted_time=granted))
        if is_flex:
            flex_budget -= 1
        else:
            fixed_budget -= 1

    plan.reservations = dict(claims)
    return plan


def plan_summary(plan: SchedulingPlan):
    """Everything a plan decided, by job id and node name."""
    return (
        [(d.job.job_id, tuple(n.name for n in d.nodes), d.granted_time) for d in plan.starts],
        [(p.victim.job_id, p.for_job.job_id) for p in plan.preemptions],
        plan.commits,
        plan.reservations,
        plan.examined_tier0,
    )


def assert_plans_agree(controller, seed, include_tier0, include_flexible):
    """Plan the controller's next pass from its index and by rescan."""
    indexed = BackfillScheduler(controller.config.scheduler, rng=np.random.default_rng(seed))
    rescan = BackfillScheduler(controller.config.scheduler, rng=np.random.default_rng(seed))
    inputs = dict(
        now=controller.env.now,
        nodes=controller.nodes,
        partitions=controller.partitions,
        committed=controller.committed,
        include_tier0=include_tier0,
        include_flexible=include_flexible,
    )
    expected = rescan_plan(rescan, pending=list(controller.pending), **inputs)
    got = indexed.plan(pending=controller.queue, **inputs)
    assert plan_summary(got) == plan_summary(expected)
    assert indexed.rng.bit_generator.state == rescan.rng.bit_generator.state


NODES = 5

#: a third tier above the paper's two partitions, so tiers are ordered too
PARTITIONS = {
    **default_partitions(),
    "urgent": Partition(name="urgent", priority_tier=2, preempt_mode=PreemptMode.OFF),
}

_STEPS = st.lists(
    st.one_of(
        # a prime job: partition, width, pinned?, first pinned node,
        # begin offset from now (None: no --begin), priority, limit
        st.tuples(
            st.just("prime"),
            st.sampled_from(["main", "main", "urgent"]),
            st.integers(min_value=1, max_value=3),
            st.booleans(),
            st.integers(min_value=0, max_value=NODES - 1),
            st.sampled_from([None, -40.0, 0.0, 3.0, 45.0, 200.0]),
            st.sampled_from([0.0, 1.0, 5.0]),
            st.sampled_from([60.0, 300.0, 1200.0]),
        ),
        # a pilot: length, flexible?
        st.tuples(st.just("pilot"), st.sampled_from([120.0, 480.0, 1320.0, 5400.0]), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 7.0, 31.0, 61.0, 250.0])),
        st.tuples(st.just("fail"), st.integers(min_value=0, max_value=NODES - 1)),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=NODES - 1)),
    ),
    min_size=1,
    max_size=40,
)


def _apply(controller, step, submitted):
    env = controller.env
    kind = step[0]
    if kind == "prime":
        _kind, partition, width, pinned, first, offset, priority, limit = step
        spec = JobSpec(
            name=f"prime-{len(submitted)}",
            num_nodes=width,
            time_limit=limit,
            actual_runtime=limit / 2,
            partition=partition,
            priority=priority,
            required_nodes=(
                tuple(f"n{(first + i) % NODES:04d}" for i in range(width)) if pinned else None
            ),
            begin_time=None if offset is None else max(0.0, env.now + offset),
        )
        submitted.append(controller.submit(spec))
    elif kind == "pilot":
        _kind, length, flexible = step
        if flexible:
            spec = JobSpec(name="pilot", partition="whisk", time_limit=7200.0, time_min=120.0,
                           priority=1.0)
        else:
            spec = JobSpec(name="pilot", partition="whisk", time_limit=length, priority=length)
        submitted.append(controller.submit(spec))
    elif kind == "cancel":
        pending = controller.pending
        if pending:
            controller.cancel(pending[step[1] % len(pending)])
    elif kind == "advance":
        env.run(until=env.now + step[1])
    elif kind == "fail":
        controller.fail_node(f"n{step[1]:04d}")
    else:
        controller.restore_node(f"n{step[1]:04d}")


@given(steps=_STEPS, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=150, deadline=None)
def test_index_plans_match_rescan_on_a_live_controller(steps, seed):
    env = Environment()
    controller = SlurmController(
        env, SlurmConfig(num_nodes=NODES), partitions=dict(PARTITIONS),
        rng=np.random.default_rng(seed),
    )
    submitted = []
    for step in steps:
        _apply(controller, step, submitted)
        # the queue, read from the index, is every pending job in submit order
        assert controller.pending == [job for job in submitted if job.is_pending]
        for include_tier0, include_flexible in ((False, False), (True, False), (True, True)):
            assert_plans_agree(controller, seed, include_tier0, include_flexible)


def test_job_cancelled_before_its_begin_time_leaves_no_trace(env):
    controller = SlurmController(env, SlurmConfig(num_nodes=2))
    future = controller.submit(
        JobSpec(name="future", time_limit=600.0, required_nodes=("n0000",), begin_time=100.0)
    )
    pilot = controller.submit(JobSpec(name="pilot", partition="whisk", time_limit=1320.0))
    env.run(until=10.0)
    assert_plans_agree(controller, 0, True, True)
    controller.cancel(future)
    # the heap entry of the cancelled job is stale until its begin time passes
    env.run(until=150.0)
    assert_plans_agree(controller, 0, True, True)
    assert controller.pending == []
    assert future.state is JobState.CANCELLED
    assert pilot.is_running
    assert controller.queue.claims(env.now) == {}
    assert controller.queue.due == {}


def test_index_plans_match_rescan_on_every_pass_of_a_300_node_day(monkeypatch):
    """The goldens' 24-node days keep a handful of jobs queued; at 300
    nodes some 250 pinned prime jobs wait ahead of their begin times."""
    load_builtin()
    original = BackfillScheduler.plan
    passes = [0]

    def checked(self, now, pending, nodes, partitions, committed,
                include_tier0=True, include_flexible=True):
        twin = BackfillScheduler(self.config, rng=copy.deepcopy(self.rng))
        expected = rescan_plan(twin, now, list(pending), nodes, partitions, dict(committed),
                               include_tier0, include_flexible)
        got = original(self, now, pending, nodes, partitions, committed,
                       include_tier0, include_flexible)
        assert plan_summary(got) == plan_summary(expected)
        assert self.rng.bit_generator.state == twin.rng.bit_generator.state
        passes[0] += 1
        return got

    monkeypatch.setattr(BackfillScheduler, "plan", checked)
    params = dict(model="fib", nodes=300, hours=0.5, qps=0.5, no_load=False, plot=False, seed=321)
    REGISTRY.run("day", params, scale="full")
    assert passes[0] == 481
