"""The cluster controller: queue, dispatch, preemption, accounting.

:class:`SlurmController` is the ``slurmctld`` of the reproduction.  It owns
the pending queue and the nodes, runs scheduling passes (event-triggered
with a small latency, plus periodic), executes the
:class:`~repro.cluster.backfill.BackfillScheduler`'s decisions through
:class:`~repro.cluster.slurmd.NodeDaemon`, and keeps the per-node
allocation interval log every analysis in this repository reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.backfill import (
    BackfillScheduler,
    PendingIndex,
    SchedulerConfig,
    SchedulingPlan,
)
from repro.cluster.job import Job, JobSpec, JobState
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition, default_partitions
from repro.cluster.slurmd import JobExecution, NodeDaemon
from repro.sim import Environment


@dataclass
class SlurmConfig:
    """Cluster-level configuration."""

    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: SIGTERM → SIGKILL delay at a job's *time limit* (Slurm KillWait)
    kill_wait: float = 30.0
    #: number of nodes when building a uniform cluster
    num_nodes: int = 16
    node_cores: int = 24
    node_memory_mb: int = 131072
    #: federation member id; "" means "unnamed" (resolves to ``c0``)
    cluster_id: str = ""


@dataclass
class AllocationInterval:
    """One contiguous allocation of a node by a job (for the interval log)."""

    node: str
    start: float
    end: Optional[float]
    job_id: int
    partition: str


class SlurmController:
    """Central workload manager for a simulated cluster."""

    def __init__(
        self,
        env: Environment,
        config: Optional[SlurmConfig] = None,
        partitions: Optional[Dict[str, Partition]] = None,
        nodes: Optional[Sequence[Node]] = None,
        rng=None,
    ) -> None:
        self.env = env
        self.config = config or SlurmConfig()
        #: federation member id this controller answers to
        self.cluster_id = self.config.cluster_id or "c0"
        self.partitions = partitions or default_partitions()
        if nodes is None:
            nodes = [
                Node(
                    name=f"n{i:04d}",
                    cores=self.config.node_cores,
                    memory_mb=self.config.node_memory_mb,
                )
                for i in range(self.config.num_nodes)
            ]
        self.nodes: Dict[str, Node] = {n.name: n for n in nodes}
        self.scheduler = BackfillScheduler(self.config.scheduler, rng=rng)
        self.daemon = NodeDaemon(env, kill_wait=self.config.kill_wait)

        #: the pending queue, indexed for the backfill planner
        self.queue = PendingIndex()
        self.running: Dict[int, JobExecution] = {}
        self.completed: List[Job] = []
        #: node name -> job id of the waiting job the node is being freed for
        self.committed: Dict[str, int] = {}

        #: per-node allocation history (closed and open intervals)
        self.allocation_log: List[AllocationInterval] = []
        self._open_intervals: Dict[Tuple[str, int], AllocationInterval] = {}

        #: subscribers called as ``fn(job)`` when a job reaches a final state
        self.on_job_end: List[Callable[[Job], None]] = []
        #: subscribers called as ``fn(job)`` when a job starts running
        self.on_job_start: List[Callable[[Job], None]] = []

        self._pass_pending = False
        self._sched_proc = env.process(self._scheduler_loop())
        self._flex_proc = env.process(self._flex_loop())

    # ------------------------------------------------------------------
    # public job API (sbatch / scancel / squeue)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """``sbatch``: enqueue a job and trigger a scheduling pass."""
        partition = self.partitions.get(spec.partition)
        if partition is None:
            raise ValueError(f"unknown partition {spec.partition!r}")
        partition.validate_time_limit(spec.time_limit)
        if partition.priority_tier == 0 and (
            spec.num_nodes > 1 or spec.required_nodes is not None or spec.begin_time is not None
        ):
            # Backfill places a tier-0 job on one free node as soon as it
            # fits; it would silently ignore width, pins and begin time.
            raise ValueError(
                f"partition {spec.partition!r} is tier 0: its jobs take one node,"
                " no required_nodes and no begin_time"
            )
        job = Job(spec, submit_time=self.env.now)
        self.queue.add(job, partition.priority_tier)
        self.request_pass()
        return job

    def cancel(self, job: Job) -> None:
        """``scancel``: withdraw a pending job or kill a running one."""
        if job.is_pending:
            self.queue.remove(job)
            job.state = JobState.CANCELLED
            job.end_time = self.env.now
            self.completed.append(job)
            self.committed = {
                name: jid for name, jid in self.committed.items() if jid != job.job_id
            }
        elif job.is_running:
            self.running[job.job_id].cancel()

    @property
    def pending(self) -> List[Job]:
        """The pending jobs in submit order."""
        return list(self.queue)

    def pending_jobs(self, partition: Optional[str] = None) -> List[Job]:
        """``squeue -t PD``-ish view."""
        jobs = self.pending
        if partition is not None:
            jobs = [j for j in jobs if j.spec.partition == partition]
        return jobs

    def running_jobs(self, partition: Optional[str] = None) -> List[Job]:
        jobs = [execution.job for execution in self.running.values()]
        if partition is not None:
            jobs = [j for j in jobs if j.spec.partition == partition]
        return jobs

    # ------------------------------------------------------------------
    # node views
    # ------------------------------------------------------------------
    def nodes_in_state(self, state: NodeState) -> List[Node]:
        return [n for n in self.nodes.values() if n.state is state]

    def idle_node_names(self) -> List[str]:
        return sorted(n.name for n in self.nodes.values() if n.state is NodeState.IDLE)

    def nodes_running_partition(self, partition: str) -> List[str]:
        return sorted(
            n.name
            for n in self.nodes.values()
            if n.state is NodeState.ALLOCATED
            and n.job is not None
            and n.job.spec.partition == partition
        )

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_node(self, name: str) -> None:
        """Take a node down, killing whatever runs there (NODE_FAIL).

        The job's body gets an immediate SIGKILL — no SIGTERM, no drain:
        this is the ungraceful loss path.  A pilot's invoker simply stops
        pinging; the FaaS controller must detect it via the ping timeout,
        and the stranded messages time out (stock-OpenWhisk behaviour the
        drain protocol normally avoids).
        """
        node = self.nodes[name]
        if node.state is NodeState.ALLOCATED and node.job is not None:
            execution = self.running.get(node.job.job_id)
            if execution is not None:
                execution.node_fail()

        def downer():
            # Teardown runs within the current instant's event cascade;
            # give it one tick, then flip the node to DOWN.
            while self.nodes[name].state is NodeState.ALLOCATED:
                yield self.env.timeout(0.01)
            if self.nodes[name].state is NodeState.IDLE:
                self.nodes[name].set_down()
            self.request_pass()

        self.env.process(downer())

    def restore_node(self, name: str) -> None:
        """Return a DOWN node to service."""
        node = self.nodes[name]
        if node.state is NodeState.DOWN:
            node.set_idle(self.env.now)
            self.request_pass()

    # ------------------------------------------------------------------
    # scheduling machinery
    # ------------------------------------------------------------------
    def request_pass(self) -> None:
        """Ask for a scheduling pass `sched_latency` seconds from now.

        Multiple requests within the same latency window coalesce into one
        pass, mimicking Slurm's batched event-driven scheduling.
        """
        self._pass_pending = True

    def _scheduler_loop(self):
        """Main scheduler: event-triggered + periodic, prime tiers only.

        Tier-0 (pilot) placement is deliberately *not* done here: real
        Slurm's backfill is a separate, slower cycle, and the paper's
        coverage numbers reflect that placement latency.
        """
        cfg = self.config.scheduler
        env = self.env
        next_periodic = env.now
        while True:
            if self._pass_pending:
                self._pass_pending = False
                yield env.timeout(cfg.sched_latency)
                self._run_pass(include_tier0=False, include_flexible=False)
            elif env.now >= next_periodic:
                next_periodic = env.now + cfg.sched_interval
                self._run_pass(include_tier0=False, include_flexible=False)
            else:
                # Sleep until the next periodic tick, but poll for event
                # requests at a fine grain so event-triggered passes keep
                # their low latency.
                yield env.timeout(min(cfg.sched_latency, max(next_periodic - env.now, 0.01)))

    def _flex_loop(self):
        """The backfill cycle: places tier-0 jobs; flexible ones less often."""
        cfg = self.config.scheduler
        env = self.env
        since_flex = 0.0
        while True:
            yield env.timeout(cfg.bf_interval)
            since_flex += cfg.bf_interval
            include_flexible = since_flex >= cfg.bf_flex_interval
            if include_flexible:
                since_flex = 0.0
            self._run_pass(include_tier0=True, include_flexible=include_flexible)

    def _run_pass(self, include_tier0: bool, include_flexible: bool) -> SchedulingPlan:
        plan = self.scheduler.plan(
            now=self.env.now,
            pending=self.queue,
            nodes=self.nodes,
            partitions=self.partitions,
            committed=self.committed,
            include_tier0=include_tier0,
            include_flexible=include_flexible,
        )
        # Preemptions first: they free nodes for committed starts.
        self.committed.update(plan.commits)
        for decision in plan.preemptions:
            victim = decision.victim
            execution = self.running.get(victim.job_id)
            if execution is None:
                continue
            grace = self.partitions[victim.spec.partition].grace_time
            for node in victim.nodes:
                self.committed[node.name] = decision.for_job.job_id
            execution.preempt(reason="preempt", grace=grace)
        for decision in plan.starts:
            self._start_job(decision.job, decision.nodes, decision.granted_time)
        return plan

    def _start_job(self, job: Job, nodes: Tuple[Node, ...], granted: float) -> None:
        if not job.is_pending:  # pragma: no cover - defensive
            return
        self.queue.remove(job)
        # Release every node held on this job's behalf (it is starting now,
        # possibly on a different set than was originally committed).
        self.committed = {
            name: jid for name, jid in self.committed.items() if jid != job.job_id
        }
        for node in nodes:
            self.committed.pop(node.name, None)
        execution = self.daemon.execute(job, nodes, granted, self._job_ended)
        self.running[job.job_id] = execution
        for node in nodes:
            interval = AllocationInterval(
                node=node.name,
                start=self.env.now,
                end=None,
                job_id=job.job_id,
                partition=job.spec.partition,
            )
            self.allocation_log.append(interval)
            self._open_intervals[(node.name, job.job_id)] = interval
        for callback in self.on_job_start:
            callback(job)

    def _job_ended(self, job: Job) -> None:
        self.running.pop(job.job_id, None)
        self.completed.append(job)
        for node in job.nodes:
            interval = self._open_intervals.pop((node.name, job.job_id), None)
            if interval is not None:
                interval.end = self.env.now
        for callback in self.on_job_end:
            callback(job)
        self.request_pass()

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def close_interval_log(self) -> None:
        """Close still-open allocation intervals at the current time."""
        for interval in self._open_intervals.values():
            interval.end = self.env.now
        self._open_intervals.clear()

    def utilization(self, start: float, end: float, partition: Optional[str] = None) -> float:
        """Fraction of node-time allocated over [start, end]."""
        if end <= start:
            raise ValueError("empty accounting window")
        total = (end - start) * len(self.nodes)
        busy = 0.0
        for interval in self.allocation_log:
            if partition is not None and interval.partition != partition:
                continue
            s = max(interval.start, start)
            e = min(interval.end if interval.end is not None else end, end)
            if e > s:
                busy += e - s
        return busy / total
