"""Priority-tier scheduling with EASY-style backfill.

The pending queue lives in a :class:`PendingIndex`, kept between passes in
the shapes a pass reads; the controller (:mod:`repro.cluster.slurmctld`)
updates it on submit, start and cancel.  :meth:`BackfillScheduler.plan`
reads it, with the clock, the nodes and the commitments, and returns
*decisions*: jobs to start now (with granted time limits) and preemptions
to issue.  The controller owns all side effects.  Each pass still
recomputes the free nodes, because slurmd, node failures and reservations
change node states between passes, and each node's claim, which is
clamped to the clock.  So a pass costs O(due jobs + nodes), not a walk
and a sort of the whole queue.

Semantics reproduced from the paper's Slurm configuration (Sec. III-D):

* Higher priority tiers are planned first; a lower-tier job is started only
  where it cannot delay any known higher-tier start ("Slurm never allots a
  job with a lower priority tier if it would delay any job with a higher
  priority tier").
* Tier-0 jobs in a ``PreemptMode=CANCEL`` partition are *invisible* to
  higher-tier planning: a node running one counts as preemptable-now.
* Backfill operates on 2-minute slots over a 120-minute window: granted
  times of flexible jobs are rounded down to whole slots.
* Variable-length (``--time-min``) jobs are granted
  ``clamp(window, time_min, time_limit)``; their placement procedure is
  costlier, which we model with a per-pass budget
  (``max_flex_starts_per_pass``) and by restricting them to periodic
  backfill passes — the mechanism the paper blames for var's coverage gap
  (Sec. V-B2).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cluster.job import Job
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition


@dataclass
class SchedulerConfig:
    """Tunables of the scheduling machinery.

    Defaults reproduce the Prometheus configuration described in the paper;
    ablation benchmarks sweep them.
    """

    #: backfill slot granularity, seconds (the paper: 2-minute slots)
    slot: float = 120.0
    #: backfill planning window, seconds (the paper: 120 minutes)
    bf_window: float = 7200.0
    #: delay between a triggering event and the pass taking effect, seconds
    sched_latency: float = 1.0
    #: periodic main-scheduler pass interval, seconds
    sched_interval: float = 15.0
    #: periodic backfill pass interval, seconds: tier-0 (pilot) jobs are
    #: placed only by these passes, never by event-triggered main passes —
    #: matching real Slurm, where backfill is a separate, slower cycle
    bf_interval: float = 30.0
    #: interval between backfill passes that also consider *flexible*
    #: (``--time-min``) jobs, seconds.  Scheduling a flexible job means
    #: "schedule at minimum time, then extend" (Sec. V-B2) — costly enough
    #: that the paper blames it for var's coverage gap; we model the cost
    #: as a slower cadence plus the per-pass start budget below.
    bf_flex_interval: float = 60.0
    #: max flexible-job starts per pass (extension procedure is expensive)
    max_flex_starts_per_pass: int = 4
    #: flexible-job extension success: Slurm grants ``time_min`` first and
    #: extends "until the time limit is reached or available resources are
    #: exhausted" (Sec. III-D).  With ~100 pending flexible pilots, their
    #: own reservations collide with the extension, so only a uniform
    #: fraction in [flex_extension_min, 1] of the feasible window is
    #: granted.  (1, 1) disables the pathology for ablations.
    flex_extension_min: float = 0.15
    flex_extension_max: float = 1.0
    #: max fixed tier-0 starts per pass (effectively unlimited by default)
    max_fixed_starts_per_pass: int = 1000
    #: reservations computed per pass for blocked unpinned jobs (EASY = 1)
    max_reservations: int = 8

    def floor_slot(self, seconds: float) -> float:
        """Round *seconds* down to a whole number of backfill slots."""
        return math.floor(seconds / self.slot) * self.slot


@dataclass
class StartDecision:
    """Start *job* on *nodes* with the given granted time limit."""

    job: Job
    nodes: Tuple[Node, ...]
    granted_time: float


@dataclass
class PreemptDecision:
    """Evict *victim* (a preemptible lower-tier job) to free nodes for *for_job*."""

    victim: Job
    for_job: Job


@dataclass
class SchedulingPlan:
    """Everything one pass decided."""

    starts: List[StartDecision] = field(default_factory=list)
    preemptions: List[PreemptDecision] = field(default_factory=list)
    #: node name -> job id: nodes to hold for a job awaiting preemptions
    commits: Dict[str, int] = field(default_factory=dict)
    #: node name -> earliest known higher-tier claim (diagnostics/tests)
    reservations: Dict[str, float] = field(default_factory=dict)
    #: tier-0 jobs examined (budget accounting, diagnostics)
    examined_tier0: int = 0


#: a queued job with its queue-order key: ``(-priority, submit_time, job_id, job)``
QueueEntry = Tuple[float, float, int, Job]


def _queue_entry(job: Job) -> QueueEntry:
    # job_id is unique, so ordering entries never compares two Jobs, and
    # bisect needs no key= (which Python 3.9 lacks).
    return (-job.spec.priority, job.submit_time, job.job_id, job)


def _begin(job: Job) -> float:
    """Earliest start of *job*: its ``--begin``, else its submit time."""
    return job.spec.begin_time if job.spec.begin_time is not None else job.submit_time


def _pins(job: Job) -> Sequence[str]:
    """The nodes a pinned job claims (none for an unpinned one)."""
    spec = job.spec
    return spec.required_nodes[: spec.num_nodes] if spec.required_nodes else ()


class PendingIndex:
    """The pending queue, kept between passes in the shapes a pass reads.

    * every job, in submit order (the ``squeue`` view);
    * :attr:`tier0`: tier-0 jobs in queue order ``(-priority, submit_time,
      job_id)``;
    * higher-tier jobs in a begin-time heap until they are due, then in
      :attr:`due`, one list per tier in queue order;
    * per node, the sorted begin times of pending pinned higher-tier jobs;
      their minimum, clamped to the clock, is the node's claim.

    The owner calls :meth:`add` and :meth:`remove`; :meth:`promote` moves
    due jobs out of the heap.  A job removed while still in the heap leaves
    its heap entry behind, and :meth:`promote` drops it.
    """

    def __init__(self) -> None:
        #: job_id -> (job, tier), in submit order
        self._jobs: Dict[int, Tuple[Job, int]] = {}
        self.tier0: List[QueueEntry] = []
        self.due: Dict[int, List[QueueEntry]] = {}
        #: (begin, job_id) of higher-tier jobs not yet due
        self._future: List[Tuple[float, int]] = []
        #: node name -> sorted begin times of the pinned jobs claiming it
        self._begins: Dict[str, List[float]] = {}

    @classmethod
    def of(cls, jobs: Sequence[Job], partitions: Dict[str, Partition]) -> "PendingIndex":
        """Index the pending jobs of a plain sequence."""
        index = cls()
        for job in jobs:
            if job.is_pending:
                index.add(job, partitions[job.spec.partition].priority_tier)
        return index

    def __iter__(self) -> Iterator[Job]:
        """The pending jobs in submit order."""
        return (job for job, _tier in self._jobs.values())

    def add(self, job: Job, tier: int) -> None:
        """Queue *job*, whose partition has priority tier *tier*."""
        self._jobs[job.job_id] = (job, tier)
        if tier == 0:
            insort(self.tier0, _queue_entry(job))
            return
        begin = _begin(job)
        heapq.heappush(self._future, (begin, job.job_id))
        for name in _pins(job):
            insort(self._begins.setdefault(name, []), begin)

    def remove(self, job: Job) -> None:
        """Drop *job*, which started or was cancelled."""
        _job, tier = self._jobs.pop(job.job_id)
        if tier == 0:
            del self.tier0[bisect_left(self.tier0, _queue_entry(job))]
            return
        queue = self.due.get(tier, [])
        at = bisect_left(queue, _queue_entry(job))
        if at < len(queue) and queue[at][3] is job:
            del queue[at]
            if not queue:
                del self.due[tier]
        begin = _begin(job)
        for name in _pins(job):
            begins = self._begins[name]
            del begins[bisect_left(begins, begin)]
            if not begins:
                del self._begins[name]

    def promote(self, now: float) -> None:
        """Move higher-tier jobs whose begin time has come into :attr:`due`."""
        future = self._future
        while future and future[0][0] <= now:
            held = self._jobs.get(heapq.heappop(future)[1])
            if held is not None:
                job, tier = held
                insort(self.due.setdefault(tier, []), _queue_entry(job))

    def claims(self, now: float) -> Dict[str, float]:
        """node name -> earliest instant a pending pinned higher-tier job
        needs it (never before *now*): pinned jobs announce their begin
        times as soon as they are submitted, so these bound tier-0 windows
        even before the jobs become due."""
        return {name: max(now, begins[0]) for name, begins in self._begins.items()}


class BackfillScheduler:
    """Plans one scheduling pass.

    The queue state a pass reads between passes lives in the
    :class:`PendingIndex` the controller maintains; the scheduler itself
    keeps only its RNG, which feeds the flexible-extension model.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None, rng=None) -> None:
        self.config = config or SchedulerConfig()
        if rng is None:
            import numpy as np

            rng = np.random.default_rng(0)
        self.rng = rng

    # ------------------------------------------------------------------
    def plan(
        self,
        now: float,
        pending: Union[PendingIndex, Sequence[Job]],
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        committed: Dict[str, int],
        include_tier0: bool = True,
        include_flexible: bool = True,
    ) -> SchedulingPlan:
        """Compute one pass.

        ``pending`` is the controller's :class:`PendingIndex`; a plain
        sequence of jobs is indexed first.  ``committed`` maps node name →
        job id for nodes whose pilots are already being preempted on behalf
        of a waiting job; such nodes are untouchable by this pass (except
        by that waiting job itself).
        """
        plan = SchedulingPlan()
        cfg = self.config
        index = pending
        if not isinstance(index, PendingIndex):
            index = PendingIndex.of(pending, partitions)
        index.promote(now)

        # -- availability maps -----------------------------------------
        # free_now: nodes idle and not committed to a waiting preemptor
        free_now: Dict[str, Node] = {
            name: n
            for name, n in nodes.items()
            if n.state is NodeState.IDLE and name not in committed
        }
        # claims[node] = earliest future instant a higher-tier job needs it
        claims = index.claims(now)

        def claim(node_name: str, when: float) -> None:
            prev = claims.get(node_name)
            if prev is None or when < prev:
                claims[node_name] = when

        # -- Phase A: due higher-tier jobs, highest tier first -----------
        reservations_left = cfg.max_reservations
        for tier in sorted(index.due, reverse=True):
            for entry in index.due[tier]:
                job = entry[3]
                placed = self._try_start_or_preempt(
                    now, job, tier, nodes, partitions, free_now, committed, plan
                )
                if placed:
                    continue
                # Blocked: record a reservation so lower tiers cannot delay it.
                if reservations_left > 0:
                    reservations_left -= 1
                    self._reserve(now, job, nodes, partitions, committed, claim)

        # -- Phase B: tier-0 backfill ------------------------------------
        if not include_tier0:
            plan.reservations = claims
            return plan
        fixed_budget = cfg.max_fixed_starts_per_pass
        flex_budget = cfg.max_flex_starts_per_pass if include_flexible else 0
        # window(node) = time until the earliest higher-tier claim
        for entry in index.tier0:
            if not free_now:
                break
            job = entry[3]
            is_flex = job.spec.is_flexible
            if is_flex and flex_budget <= 0:
                continue
            if not is_flex and fixed_budget <= 0:
                continue
            plan.examined_tier0 += 1
            choice = self._fit_tier0(now, job, free_now, claims)
            if choice is None:
                continue
            node, granted = choice
            del free_now[node.name]
            plan.starts.append(StartDecision(job=job, nodes=(node,), granted_time=granted))
            if is_flex:
                flex_budget -= 1
            else:
                fixed_budget -= 1

        plan.reservations = claims
        return plan

    # ------------------------------------------------------------------
    def _try_start_or_preempt(
        self,
        now: float,
        job: Job,
        tier: int,
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        free_now: Dict[str, Node],
        committed: Dict[str, int],
        plan: SchedulingPlan,
    ) -> bool:
        """Start *job* now, possibly by preempting lower-tier jobs.

        Returns True if the job was started or its nodes were committed via
        preemption; False if it stays blocked.
        """
        want = job.spec.num_nodes

        def claimed_by_other(name: str) -> bool:
            """Node already committed to another job — by a previous pass
            (the ``committed`` input) or earlier in THIS pass (the plan's
            accumulating commits)."""
            for claim_map in (committed, plan.commits):
                owner = claim_map.get(name)
                if owner is not None and owner != job.job_id:
                    return True
            return False

        if job.spec.required_nodes:
            candidates = list(job.spec.required_nodes[:want])
            usable: List[Node] = []
            preemptable: List[Job] = []
            for name in candidates:
                node = nodes[name]
                if claimed_by_other(name):
                    return False  # someone else already claimed this node
                if node.state is NodeState.IDLE:
                    # The node must also still be unclaimed within THIS
                    # pass: an earlier start decision pops it from
                    # free_now while the live state stays IDLE until the
                    # controller executes the plan.  (Reachable when an
                    # outage window delays one pinned job into the
                    # next one's slot on the same node.)
                    if name not in free_now and committed.get(name) != job.job_id:
                        return False
                    usable.append(node)
                elif node.state is NodeState.ALLOCATED and node.job is not None:
                    victim = node.job
                    vpart = partitions[victim.spec.partition]
                    if vpart.preemptible and vpart.priority_tier < tier:
                        preemptable.append(victim)
                    else:
                        return False  # busy with an equal/higher tier job
                else:
                    return False  # down / reserved
            if preemptable:
                for victim in preemptable:
                    plan.preemptions.append(PreemptDecision(victim=victim, for_job=job))
                for name in candidates:
                    plan.commits[name] = job.job_id
                    free_now.pop(name, None)
                return True  # will start once nodes free (controller commits)
            if len(usable) == want:
                for node in usable:
                    free_now.pop(node.name, None)
                plan.starts.append(
                    StartDecision(job=job, nodes=tuple(usable), granted_time=job.spec.time_limit)
                )
                return True
            return False

        # Unpinned: idle nodes already committed to this job (earlier
        # preemption round) come first, then any free node, then preempt
        # lower tiers for the remainder.
        mine = [
            nodes[name]
            for name in sorted(nodes)
            if committed.get(name) == job.job_id and nodes[name].state is NodeState.IDLE
        ]
        pool = mine + [free_now[name] for name in sorted(free_now) if free_now[name] not in mine]
        chosen = pool[:want]
        if len(chosen) == want:
            for node in chosen:
                free_now.pop(node.name, None)
            plan.starts.append(
                StartDecision(job=job, nodes=tuple(chosen), granted_time=job.spec.time_limit)
            )
            return True
        victims: List[Job] = []
        needed = want - len(chosen)
        for name in sorted(nodes):
            if needed <= len(victims):
                break
            node = nodes[name]
            if node.state is not NodeState.ALLOCATED or node.job is None:
                continue
            if claimed_by_other(name):
                continue
            vpart = partitions[node.job.spec.partition]
            if vpart.preemptible and vpart.priority_tier < tier and node.job not in victims:
                victims.append(node.job)
        if len(victims) >= needed:
            for victim in victims[:needed]:
                plan.preemptions.append(PreemptDecision(victim=victim, for_job=job))
                for node in victim.nodes:
                    plan.commits[node.name] = job.job_id
            # Hold the idle part of the allocation as well, so no pilot
            # slips onto it while the victims drain.
            for node in chosen:
                plan.commits[node.name] = job.job_id
                free_now.pop(node.name, None)
            return True
        return False

    def _reserve(
        self,
        now: float,
        job: Job,
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        committed: Dict[str, int],
        claim,
    ) -> None:
        """Claim the nodes a blocked job will use at its earliest start."""
        want = job.spec.num_nodes
        if job.spec.required_nodes:
            names = list(job.spec.required_nodes[:want])
            start = now
            for name in names:
                node = nodes[name]
                if node.state is NodeState.ALLOCATED and node.job is not None:
                    end = node.job.planned_end or now
                    vpart = partitions[node.job.spec.partition]
                    if vpart.preemptible:
                        end = now  # preemptable: effectively free now
                    start = max(start, end)
            start = max(start, _begin(job))
            for name in names:
                claim(name, start)
            return
        # Unpinned: earliest instant `want` nodes are free, claiming the
        # earliest-freeing nodes (classic EASY shadow computation).
        frees: List[Tuple[float, str]] = []
        for name, node in nodes.items():
            if node.state is NodeState.IDLE:
                if committed.get(name) is None:
                    frees.append((now, name))
            elif node.state is NodeState.ALLOCATED and node.job is not None:
                vpart = partitions[node.job.spec.partition]
                end = now if vpart.preemptible else (node.job.planned_end or now)
                frees.append((end, name))
        frees.sort()
        if len(frees) < want:
            return
        shadow = max(t for t, _ in frees[:want])
        shadow = max(shadow, _begin(job))
        for _, name in frees[:want]:
            claim(name, shadow)

    def _fit_tier0(
        self,
        now: float,
        job: Job,
        free_now: Dict[str, Node],
        claims: Dict[str, float],
    ) -> Optional[Tuple[Node, float]]:
        """Best-fit placement of a single-node tier-0 job.

        Picks the free node with the *smallest adequate* window, so long
        windows are preserved for long jobs.  Returns (node, granted_time)
        or None.
        """
        cfg = self.config
        spec = job.spec
        best: Optional[Tuple[float, Node, float]] = None
        for name in sorted(free_now):
            node = free_now[name]
            claim_at = claims.get(name)
            window = math.inf if claim_at is None else claim_at - now
            if window <= 0:
                continue
            if spec.is_flexible:
                fit = cfg.floor_slot(min(window, spec.time_limit))
                time_min = spec.time_min or fit
                if fit < time_min:
                    continue
                # Extension model: grant time_min plus a random share of
                # the remaining feasible window (see SchedulerConfig).
                share = float(
                    self.rng.uniform(cfg.flex_extension_min, cfg.flex_extension_max)
                )
                granted = cfg.floor_slot(time_min + share * (fit - time_min))
                granted = max(granted, time_min)
            else:
                if window < spec.time_limit:
                    continue
                granted = spec.time_limit
            key = window
            if best is None or key < best[0]:
                best = (key, node, granted)
        if best is None:
            return None
        return best[1], best[2]
