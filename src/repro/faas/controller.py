"""The OpenWhisk-like controller with dynamic invoker support.

Stock OpenWhisk assumes the invoker set never shrinks; a vanished invoker
means timeouts for everything routed to it (Sec. II).  The paper's
modified controller — reproduced here — instead:

* maintains a **dynamic registry** driven by status messages (register /
  draining / deregister) plus a ping-timeout scanner for ungraceful
  losses; a healthy invoker's regular pings are the schedule its
  register message carries, which the scanner reads;
* on a *draining* notice, immediately moves the invoker's **unpulled**
  messages to the global fast-lane topic (the invoker republishes its own
  internal buffer);
* answers **503** instantly when no healthy invoker exists, enabling the
  client-side commercial fallback of Alg. 1.

Routing keeps OpenWhisk's hash-by-function-name affinity over the sorted
list of currently-healthy invokers, maximizing warm-container hits.
"""

from __future__ import annotations

import enum

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.faas.activation import ActivationRecord, ActivationResult, ActivationStatus
from repro.faas.broker import Broker, COMPLETED_TOPIC, FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.config import FaaSConfig
from repro.faas.functions import FunctionDef, FunctionRegistry
from repro.faas.messages import (
    ActivationMessage,
    CompletionMessage,
    PingMessage,
    PingSchedule,
    next_activation_id,
)
from repro.sim import Environment, Event

#: what :meth:`Controller.submit` calls with the activation's outcome
ResultCallback = Callable[[ActivationResult], None]


class InvokerStatus(enum.Enum):
    """Controller-side view of an invoker."""

    HEALTHY = "healthy"
    DRAINING = "draining"
    GONE = "gone"


@dataclass
class InvokerRecord:
    """Registry entry for one (current or past) invoker."""

    invoker_id: str
    node: str
    status: InvokerStatus
    registered_at: float
    #: when the latest ping was heard; the scanner brings a HEALTHY
    #: record's value up to date from its schedule
    last_ping: float
    status_since: float
    gone_at: Optional[float] = None
    #: federation member the worker belongs to ("" = unfederated)
    cluster_id: str = ""
    #: the healthy pings the register message announced (read while the
    #: record is HEALTHY)
    schedule: Optional[PingSchedule] = None


@dataclass
class ControllerEvent:
    """One entry of the OpenWhisk-level, second-accurate event log."""

    time: float
    kind: str
    invoker_id: str = ""
    detail: dict = field(default_factory=dict)


class Controller:
    """Routes invocations, tracks invokers, resolves completions.

    Activation deadlines live in one FIFO ledger with at most one armed
    timer.  The ledger relies on ``config.activation_timeout`` staying
    constant for the controller's lifetime: deadlines are then entered
    in the order they fall due, and only the ledger's head needs a
    timer.  Each activation still times out at exactly
    ``submitted + activation_timeout``.
    """

    def __init__(
        self,
        env: Environment,
        broker: Broker,
        config: Optional[FaaSConfig] = None,
        rng: Optional[np.random.Generator] = None,
        load_balancer=None,
        router=None,
        cluster_order: Optional[List[str]] = None,
    ) -> None:
        from repro.faas.loadbalancer import HashAffinity

        self.env = env
        self.broker = broker
        self.config = config or FaaSConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.load_balancer = load_balancer or HashAffinity()
        #: cross-cluster routing policy; None = flat single-pool routing
        self.router = router
        #: federation member ids in declaration order (failover order)
        self.cluster_order: List[str] = list(cluster_order or [])
        #: activations routed per member cluster (federation accounting)
        self.routed_counts: Dict[str, int] = {}
        self.registry = FunctionRegistry()
        self.invokers: Dict[str, InvokerRecord] = {}
        # Incrementally-maintained healthy views: the invoke hot path
        # must not rescan the whole registry per call.  `_healthy_pools`
        # holds one sorted id list per cluster, `_healthy_all` the flat
        # sorted fleet; both are updated on status transitions only.
        # `_healthy_view` caches the dict `healthy_by_cluster()` returns
        # and is dropped (never mutated in place) on any transition, so
        # downstream routers can key per-view caches on dict identity.
        self._healthy_pools: Dict[str, List[str]] = {}
        self._healthy_all: List[str] = []
        self._healthy_view: Optional[Dict[str, List[str]]] = None
        #: in-flight activation count per member cluster ("" = unfederated)
        self._inflight_by_cluster: Dict[str, int] = {}
        #: activation_id -> (result callback, record) per accepted activation
        self._pending: Dict[str, Tuple[ResultCallback, ActivationRecord]] = {}
        #: ``(deadline, activation_id)`` per accepted activation, in
        #: submit order (and so in deadline order)
        self._deadlines: Deque[Tuple[float, str]] = deque()
        #: the ledger's one armed timer; None while nothing is pending
        self._deadline_timer: Optional[Event] = None
        #: every accepted activation, in submit order (the request ledger)
        self.records: List[ActivationRecord] = []
        #: count of immediate 503 rejections
        self.unavailable_count = 0
        #: second-accurate event log (registrations, drains, losses, 503s)
        self.events: List[ControllerEvent] = []

        broker.subscribe(COMPLETED_TOPIC, self._on_completion)
        env.process(self._health_consumer())
        env.process(self._ping_scanner())

    # ------------------------------------------------------------------
    # deployment & views
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionDef) -> None:
        self.registry.deploy(function)

    def healthy_invokers(self, cluster: Optional[str] = None) -> List[str]:
        if cluster is None:
            return list(self._healthy_all)
        return list(self._healthy_pools.get(cluster, ()))

    def healthy_by_cluster(self) -> Dict[str, List[str]]:
        """Healthy invoker ids per member cluster, declaration order.

        Every declared member appears (possibly with an empty list), so
        routers see outages as empty pools, not missing keys; workers
        from undeclared clusters are appended in sorted-id order.

        The returned dict is cached and shared between calls until the
        next invoker status transition, at which point a *new* dict is
        built — it is never mutated in place, so consumers (the
        federation routers) may key derived-state caches on its
        identity.  Treat it as read-only.
        """
        view = self._healthy_view
        if view is None:
            pools = self._healthy_pools
            view = {cid: list(pools.get(cid, ())) for cid in self.cluster_order}
            # Undeclared clusters appear only while non-empty, ordered
            # by their smallest healthy invoker id (the order the old
            # sorted-rescan produced).
            extras = [
                (pool[0], cid)
                for cid, pool in pools.items()
                if pool and cid not in view
            ]
            extras.sort()
            for _first_id, cid in extras:
                view[cid] = list(pools[cid])
            self._healthy_view = view
        return view

    def _pool_add(self, record: InvokerRecord) -> None:
        """Status transition -> HEALTHY: insert into the sorted pools."""
        pool = self._healthy_pools.get(record.cluster_id)
        if pool is None:
            pool = self._healthy_pools[record.cluster_id] = []
        insort(pool, record.invoker_id)
        insort(self._healthy_all, record.invoker_id)
        self._healthy_view = None

    def _pool_remove(self, record: InvokerRecord) -> None:
        """Status transition HEALTHY -> *: drop from the sorted pools."""
        pool = self._healthy_pools.get(record.cluster_id)
        invoker_id = record.invoker_id
        if pool is not None:
            i = bisect_left(pool, invoker_id)
            if i < len(pool) and pool[i] == invoker_id:
                del pool[i]
        flat = self._healthy_all
        i = bisect_left(flat, invoker_id)
        if i < len(flat) and flat[i] == invoker_id:
            del flat[i]
        self._healthy_view = None

    def invoker_topic(self, invoker_id: str) -> str:
        return f"invoker-{invoker_id}"

    def snapshot(self) -> Dict[str, Any]:
        """A pure-read state summary (the live-mode health endpoint).

        Touches only incrementally-maintained counters — no registry
        rescan, no simulation side effects — so a wall-clock service can
        answer ``/healthz`` and ``/stats`` probes at any rate without
        perturbing the control plane.
        """
        return {
            "functions_deployed": len(self.registry),
            "invokers_total": len(self.invokers),
            "healthy_invokers": len(self._healthy_all),
            "healthy_by_cluster": {
                cid: len(pool) for cid, pool in self._healthy_pools.items() if pool
            },
            "inflight": len(self._pending),
            "activations_total": len(self.records),
            "unavailable_total": self.unavailable_count,
        }

    @property
    def inflight_count(self) -> int:
        """Fleet-wide :meth:`inflight_count_for` (observability sugar)."""
        return self.inflight_count_for()

    def inflight_count_for(self, cluster: Optional[str] = None) -> int:
        """In-flight activations routed to one member cluster's invokers.

        ``None`` returns the fleet total; also a pure read.  Federated
        supply managers use this so one member's controller never reacts
        to demand another member is already executing.
        """
        if cluster is None:
            return len(self._pending)
        return self._inflight_by_cluster.get(cluster, 0)

    def _pending_add(self, on_result: ResultCallback, record: ActivationRecord) -> None:
        """Track an accepted activation (and its member inflight count)."""
        self._pending[record.activation_id] = (on_result, record)
        self._inflight_by_cluster[record.cluster_id] = (
            self._inflight_by_cluster.get(record.cluster_id, 0) + 1
        )

    def _inflight_dec(self, record: ActivationRecord) -> None:
        counts = self._inflight_by_cluster
        cluster_id = record.cluster_id
        remaining = counts.get(cluster_id, 0) - 1
        if remaining > 0:
            counts[cluster_id] = remaining
        else:
            counts.pop(cluster_id, None)

    # ------------------------------------------------------------------
    # deadline ledger
    # ------------------------------------------------------------------
    def _deadline_add(self, activation_id: str) -> None:
        timeout = self.config.activation_timeout
        self._deadlines.append((self.env.now + timeout, activation_id))
        if self._deadline_timer is None:
            self._deadline_arm(timeout)

    def _deadline_arm(self, delay: float) -> None:
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._expire_deadlines)
        self._deadline_timer = timer

    def _deadlines_clear(self) -> None:
        """Nothing is pending: empty the ledger and withdraw its timer."""
        self._deadlines.clear()
        if self._deadline_timer is not None:
            self.env.cancel(self._deadline_timer)
            self._deadline_timer = None

    def _expire_deadlines(self, _timer: Event) -> None:
        """Time out every due activation, then re-arm for the next one.

        Completed heads are dropped on the way.  A timed-out activation
        leaves ``_pending`` here, at its deadline, so a completion that
        arrives later is dropped by :meth:`_on_completion`.  The result
        callbacks run last, once the ledger is consistent again.
        """
        self._deadline_timer = None
        now = self.env.now
        deadlines = self._deadlines
        pending = self._pending
        expired = []
        while deadlines:
            due, activation_id = deadlines[0]
            entry = pending.get(activation_id)
            if entry is None:
                deadlines.popleft()
                continue
            if due > now:
                # due = submitted + timeout with submitted <= now, and
                # now >= timeout as it is itself a deadline, so
                # due <= 2 * now: the difference is exact (Sterbenz)
                # and the timer lands on `due` itself.
                self._deadline_arm(due - now)
                break
            deadlines.popleft()
            del pending[activation_id]
            record = entry[1]
            self._inflight_dec(record)
            record.status = ActivationStatus.TIMEOUT
            record.completed_at = now
            expired.append(entry)
        for on_result, record in expired:
            on_result(
                ActivationResult(
                    activation_id=record.activation_id,
                    function=record.function,
                    status=ActivationStatus.TIMEOUT,
                    error="activation timed out",
                    response_time=now - record.submitted_at,
                    fast_laned=record.fast_laned,
                )
            )

    # ------------------------------------------------------------------
    # invocation path
    # ------------------------------------------------------------------
    def choose_invoker(
        self, function: str, cluster: Optional[str] = None
    ) -> Optional[str]:
        """Two-stage federated routing, or the flat single-pool default.

        With a :class:`~repro.faas.router.FederationRouter` configured,
        the router picks the member cluster and the load balancer picks
        among that cluster's healthy invokers.  Without a router the
        behaviour is exactly stock: the load balancer sees the whole
        healthy list.  An explicit ``cluster`` preference (region-tagged
        streaming invocations) short-circuits the router while that
        member has healthy invokers; an empty preferred pool falls back
        to the normal path rather than 503ing.
        """
        if cluster is not None:
            preferred = self.healthy_invokers(cluster=cluster)
            if preferred:
                return self.load_balancer.choose(function, preferred, self.broker)
        if self.router is not None:
            pools = self.healthy_by_cluster()
            cluster = self.router.choose(function, pools, self.broker)
            if cluster is None:
                return None
            return self.load_balancer.choose(function, pools[cluster], self.broker)
        return self.load_balancer.choose(function, self.healthy_invokers(), self.broker)

    def submit(
        self,
        function: str,
        on_result: ResultCallback,
        params: Any = None,
        duration: Optional[float] = None,
        interruptible: bool = True,
        cluster: Optional[str] = None,
    ) -> None:
        """Start one invocation; ``on_result`` receives its outcome.

        The callback runs with the :class:`ActivationResult` when the
        completion is delivered or the activation times out, or before
        ``submit`` returns for an undeployed function or a 503 (no healthy
        invoker).
        """
        env = self.env
        submitted = env.now
        if function not in self.registry:
            on_result(
                ActivationResult(
                    activation_id="",
                    function=function,
                    status=ActivationStatus.FAILED,
                    error=f"function {function!r} is not deployed",
                )
            )
            return
        target = self.choose_invoker(function, cluster=cluster)
        if target is None:
            self.unavailable_count += 1
            if self.config.record_history:
                self.events.append(
                    ControllerEvent(
                        time=env.now, kind="503", detail={"function": function}
                    )
                )
            on_result(
                ActivationResult(
                    activation_id="",
                    function=function,
                    status=ActivationStatus.UNAVAILABLE,
                    error="no healthy invoker (503)",
                    response_time=0.0,
                )
            )
            return

        activation_id = next_activation_id()
        message = ActivationMessage(
            activation_id=activation_id,
            function=function,
            params=params,
            submitted_at=submitted,
            duration=duration,
            interruptible=interruptible,
        )
        target_record = self.invokers.get(target)
        target_cluster = target_record.cluster_id if target_record else ""
        if target_cluster:
            self.routed_counts[target_cluster] = (
                self.routed_counts.get(target_cluster, 0) + 1
            )
        record = ActivationRecord(
            activation_id=activation_id,
            function=function,
            submitted_at=submitted,
            invoker_id=target,
            cluster_id=target_cluster,
        )
        if self.config.record_history:
            self.records.append(record)
        self._pending_add(on_result, record)
        self.broker.publish(self.invoker_topic(target), message)
        self._deadline_add(activation_id)

    def invoke(
        self,
        function: str,
        params: Any = None,
        duration: Optional[float] = None,
        interruptible: bool = True,
        cluster: Optional[str] = None,
    ):
        """A process generator: :meth:`submit`, then wait for the result.

        Yields until the result arrives, the activation times out, or —
        with no healthy invoker — the 503 result is ready.
        """
        done = self.env.event()
        self.submit(
            function,
            done.succeed,
            params=params,
            duration=duration,
            interruptible=interruptible,
            cluster=cluster,
        )
        result = yield done
        return result

    # ------------------------------------------------------------------
    # consumers
    # ------------------------------------------------------------------
    def _on_completion(self, completion: CompletionMessage) -> None:
        """Resolve an activation when its completion is delivered."""
        entry = self._pending.pop(completion.activation_id, None)
        if entry is None:
            return  # late completion after timeout: dropped
        on_result, record = entry
        self._inflight_dec(record)
        if not self._pending:
            self._deadlines_clear()
        now = self.env.now
        status = ActivationStatus.SUCCESS if completion.success else ActivationStatus.FAILED
        record.completed_at = now
        record.status = status
        record.wait_time = completion.wait_time
        record.init_time = completion.init_time
        record.duration = completion.duration
        record.invoker_id = completion.invoker_id
        record.fast_laned = record.fast_laned or completion.fast_laned
        on_result(
            ActivationResult(
                activation_id=record.activation_id,
                function=record.function,
                status=status,
                result=completion.result,
                error=completion.error,
                response_time=now - record.submitted_at,
                fast_laned=record.fast_laned,
            )
        )

    # ------------------------------------------------------------------
    # consumers
    # ------------------------------------------------------------------
    def _health_consumer(self):
        env = self.env
        while True:
            ping: PingMessage = yield self.broker.get(HEALTH_TOPIC)
            if ping.kind == "register":
                previous = self.invokers.get(ping.invoker_id)
                if previous is not None and previous.status is InvokerStatus.HEALTHY:
                    # Re-registration overwrites the record (possibly
                    # under a different cluster): retract the old pool
                    # entry before inserting the fresh one.
                    self._pool_remove(previous)
                record = InvokerRecord(
                    invoker_id=ping.invoker_id,
                    node=ping.node,
                    status=InvokerStatus.HEALTHY,
                    registered_at=env.now,
                    last_ping=env.now,
                    status_since=env.now,
                    cluster_id=ping.cluster,
                    schedule=ping.schedule,
                )
                self.invokers[ping.invoker_id] = record
                self._pool_add(record)
                self.events.append(
                    ControllerEvent(env.now, "invoker_registered", ping.invoker_id)
                )
            elif ping.kind == "draining":
                record = self.invokers.get(ping.invoker_id)
                if record is None or record.status is InvokerStatus.GONE:
                    continue
                # Every draining ping keeps the record alive: a drain that
                # waits out a long run must not be taken for a loss.
                record.last_ping = env.now
                if record.status is InvokerStatus.HEALTHY:
                    record.status = InvokerStatus.DRAINING
                    record.status_since = env.now
                    self._pool_remove(record)
                    moved = 0
                    if self.config.use_fast_lane:
                        # Flag before the move: a waiting invoker's claim
                        # may take a message inside move_all itself.
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
        """Detect ungraceful losses (SIGKILL before drain finished).

        A HEALTHY record's pings are read from its schedule: the ones
        heard before this instant count, as the health consumer would
        have taken their messages by now.
        """
        env = self.env
        while True:
            yield env.timeout(self.config.health_check_interval)
            now = env.now
            deadline = now - self.config.ping_timeout
            for record in self.invokers.values():
                if record.status is InvokerStatus.GONE:
                    continue
                healthy = record.status is InvokerStatus.HEALTHY
                if healthy and record.schedule is not None:
                    heard = record.schedule.heard_before(now)
                    if heard is not None:
                        record.last_ping = heard
                if record.last_ping < deadline:
                    if healthy:
                        self._pool_remove(record)
                    record.status = InvokerStatus.GONE
                    record.status_since = env.now
                    record.gone_at = env.now
                    # Stock-OpenWhisk behaviour for a crashed worker: its
                    # unpulled messages are stranded and their activations
                    # will time out — the failure mode the drain protocol
                    # exists to avoid.
                    stranded = self.broker.peek_depth(self.invoker_topic(record.invoker_id))
                    self.events.append(
                        ControllerEvent(
                            env.now, "invoker_lost", record.invoker_id, {"stranded": stranded}
                        )
                    )
