"""The invoker: one FaaS worker on one (transiently idle) node.

Work reaches the invoker without a process of its own.  While serving it
holds one :class:`~repro.sim.resources.StoreClaim` on the fast lane and
one on its own topic (Sec. III-C).  The first message either claim takes
schedules one wake-up event; the wake accepts the claimed messages, fast
lane first, and claims again.  Each accepted activation becomes an
:class:`_Execution` record that steps through pool wait, warm or cold
start and the function run on kernel timers; the pool never blocks.

On SIGTERM the pilot job calls :meth:`drain`:

1. notify the controller (it stops routing here and moves the unpulled
   topic remainder to the fast lane),
2. republish what the claims had taken and the executions that have not
   started a function body to the fast lane,
3. stop the *running* executions too, when both the deployment and the
   message allow it, and republish them,
4. wait out non-interruptible executions (SIGKILL may cut this short —
   then those activations are simply lost and time out at the controller),
5. deregister.

Stopping an execution is a state change: its pending timer is cancelled,
a pool wait is withdrawn, a half-built cold container is discarded and a
held container is released.  The whole handoff takes "a few seconds" in
the paper; the step delays are configurable in
:class:`~repro.faas.config.FaaSConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.faas.broker import Broker, COMPLETED_TOPIC, FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.config import FaaSConfig
from repro.faas.containers import Container, ContainerPool
from repro.faas.functions import FunctionDef, FunctionRegistry
from repro.faas.messages import ActivationMessage, CompletionMessage, PingMessage
from repro.faas.runtime import ContainerRuntime, SingularityRuntime
from repro.sim import Environment, Event, Interrupt
from repro.sim.resources import StoreClaim


@dataclass
class InvokerStats:
    """Lifecycle + work statistics one invoker leaves behind."""

    invoker_id: str
    node: str
    started_at: float
    registered_at: Optional[float] = None
    drain_started_at: Optional[float] = None
    deregistered_at: Optional[float] = None
    completed: int = 0
    failed: int = 0
    rejected_overload: int = 0
    requeued_on_drain: int = 0
    abandoned_on_kill: int = 0
    cold_starts: int = 0
    warm_hits: int = 0

    @property
    def serving_time(self) -> float:
        """Seconds the invoker was registered and accepting work."""
        if self.registered_at is None:
            return 0.0
        end = self.drain_started_at or self.deregistered_at
        if end is None:
            return 0.0
        return max(0.0, end - self.registered_at)


class _Execution:
    """One accepted activation, stepped by kernel callbacks.

    Phases: waiting for a container (``event`` is a pool waiter and
    ``container`` is None), starting (``event`` is the warm- or
    cold-start timer), running (``running`` is True and ``event`` is the
    run timer), finished (``event`` is None and the record has left the
    invoker's table).
    """

    __slots__ = (
        "invoker",
        "message",
        "function",
        "accepted_at",
        "container",
        "cold",
        "init_time",
        "wait_time",
        "duration",
        "running",
        "event",
    )

    def __init__(self, invoker: "Invoker", message: ActivationMessage) -> None:
        self.invoker = invoker
        self.message = message
        self.function: Optional[FunctionDef] = None
        self.accepted_at = invoker.env.now
        self.container: Optional[Container] = None
        self.cold = False
        self.init_time = 0.0
        self.wait_time = 0.0
        self.duration = 0.0
        self.running = False
        self.event: Optional[Event] = None

    def start(self) -> None:
        """The first step, run inline when the invoker accepts the message."""
        invoker = self.invoker
        try:
            self.function = invoker.registry.get(self.message.function)
        except KeyError as exc:
            invoker._complete(self.message, success=False, error=str(exc))
            invoker._finish(self)
            return
        self._acquire()

    def _acquire(self, _event: Optional[Event] = None) -> None:
        pool = self.invoker.pool
        taken = pool.take(self.function.name)
        if taken is None:
            waiter = pool.wait()
            waiter.callbacks.append(self._acquire)
            self.event = waiter
            return
        self.container, self.cold = taken
        if self.cold:
            self.init_time = pool.runtime.cold_start_delay()
            self._arm(self.init_time, self._started)
            return
        delay = pool.runtime.warm_start_delay()
        if delay:
            self._arm(delay, self._started)
        else:
            self._run()

    def _started(self, _timer: Event) -> None:
        if self.cold:
            self.invoker.pool.started(self.container)
        self._run()

    def _run(self) -> None:
        invoker = self.invoker
        self.running = True
        self.wait_time = invoker.env.now - self.accepted_at
        message = self.message
        self.duration = (
            message.duration
            if message.duration is not None
            else self.function.sample_duration(invoker.rng)
        )
        overhead = invoker._sample_overhead()
        self._arm(self.duration + overhead, self._done)

    def _done(self, _timer: Event) -> None:
        invoker = self.invoker
        self.event = None
        invoker.pool.release(self.container)
        self.container = None
        invoker._complete(
            self.message,
            success=True,
            result={"ok": True},
            wait_time=self.wait_time,
            init_time=self.init_time,
            duration=self.duration,
        )
        invoker.stats.completed += 1
        invoker._finish(self)

    def _arm(self, delay: float, callback: Callable[[Event], None]) -> None:
        timer = self.invoker.env.timeout(delay)
        timer.callbacks.append(callback)
        self.event = timer

    def stop(self) -> None:
        """Drop the execution where it stands (drain requeue or kill)."""
        event, self.event = self.event, None
        if event is None:
            return
        pool = self.invoker.pool
        container, self.container = self.container, None
        if container is None:
            pool.withdraw(event)
            return
        self.invoker.env.cancel(event)
        if self.cold and not self.running:
            pool.discard(container)
        else:
            pool.release(container)


class Invoker:
    """One OpenWhisk worker process."""

    def __init__(
        self,
        env: Environment,
        invoker_id: str,
        node: str,
        broker: Broker,
        registry: FunctionRegistry,
        config: Optional[FaaSConfig] = None,
        rng: Optional[np.random.Generator] = None,
        runtime: Optional[ContainerRuntime] = None,
        cluster_id: str = "",
    ) -> None:
        self.env = env
        self.invoker_id = invoker_id
        self.node = node
        #: federation member this worker's node belongs to
        self.cluster_id = cluster_id
        self.broker = broker
        self.registry = registry
        self.config = config or FaaSConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.runtime = runtime or SingularityRuntime(self.rng)
        self.pool = ContainerPool(env, self.runtime, self.config.max_containers)
        self.topic = f"invoker-{invoker_id}"
        self.stats = InvokerStats(invoker_id=invoker_id, node=node, started_at=env.now)
        self._draining = False
        #: activation_id -> execution, in accept order
        self._executions: Dict[str, _Execution] = {}
        #: the heartbeat's pending timer
        self._ping_timer: Optional[Event] = None
        #: the serving claims, fast lane first
        self._claims: List[StoreClaim] = []
        #: the one pending wake-up for claimed messages
        self._wake: Optional[Event] = None
        #: messages claimed but not accepted when SIGTERM came (drain handles them)
        self._orphans: List[ActivationMessage] = []
        #: what the drain waits on until the last non-interruptible run ends
        self._idle: Optional[Event] = None

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._executions)

    def register(self):
        """Announce this worker; start heartbeats.  (Generator.)"""
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id,
                "register",
                self.env.now,
                node=self.node,
                cluster=self.cluster_id,
            ),
        )
        self.stats.registered_at = self.env.now
        self._arm_heartbeat()
        # Registration becomes effective when the controller consumes the
        # ping — one publish latency away.
        yield self.env.timeout(self.broker.publish_latency)

    def serve(self):
        """Serve until the pilot's SIGTERM (generator).

        Claims and their wake-ups do the work; this only parks the pilot
        process.  On the interrupt, messages the claims already took
        become orphans, which the drain republishes instead of losing.
        """
        self._claim()
        try:
            yield self.env.event()
        except Interrupt:
            for claim in self._claims:
                if claim.taken:
                    self._orphans.append(claim.item)
                else:
                    claim.cancel()
            self._claims = []
            if self._wake is not None:
                self.env.cancel(self._wake)
                self._wake = None
            raise  # the pilot's SIGTERM; drain() takes over

    def drain(self):
        """The SIGTERM handoff (generator).  Returns the final stats."""
        env = self.env
        cfg = self.config
        if self._draining:
            return self.stats
        self._draining = True
        self.stats.drain_started_at = env.now
        try:
            # 1. Tell the controller: no new work; it re-routes our topic.
            yield env.timeout(cfg.drain_notify_delay)
            self.broker.publish(
                HEALTH_TOPIC,
                PingMessage(
                    self.invoker_id,
                    "draining",
                    env.now,
                    node=self.node,
                    cluster=self.cluster_id,
                ),
            )

            # 2. + 3. Stop the executions that may be requeued.
            stopped = []
            for execution in self._executions.values():
                if execution.running and not (
                    cfg.interrupt_running and execution.message.interruptible
                ):
                    continue  # must let it finish
                execution.stop()
                stopped.append(execution)

            # Republish rescued + requeued messages onto the fast lane.
            requeue = list(self._orphans)
            self._orphans.clear()
            # Republishing starts one zero-delay tick after the stops, which
            # fixes where it falls among other same-instant events.
            yield env.timeout(0.0)
            for execution in stopped:
                requeue.append(execution.message)
                del self._executions[execution.message.activation_id]
            for message in requeue:
                if not cfg.use_fast_lane:
                    # Stock OpenWhisk: the message is simply lost; the
                    # activation will time out at the controller.
                    continue
                message.retries += 1
                message.fast_laned = True
                self.stats.requeued_on_drain += 1
                if message.retries <= cfg.max_retries:
                    self.broker.publish(FASTLANE_TOPIC, message)
                else:
                    self._complete(message, success=False, error="too many requeues")
                yield env.timeout(cfg.drain_republish_delay)

            # 4. Wait for non-interruptible executions to finish.
            if self._executions:
                self._idle = env.event()
                yield self._idle

            # 5. Deregister.
            yield env.timeout(cfg.drain_deregister_delay)
        except Interrupt:
            # SIGKILL arrived mid-drain: everything still tracked is lost.
            self.stats.abandoned_on_kill += len(self._executions) + len(self._orphans)
            self._kill_executions()
            self._orphans.clear()
        self._shutdown()
        return self.stats

    def vanish(self) -> None:
        """Crash teardown: the node died.  Nothing is published — the
        controller must discover the loss via missed pings, and anything
        in flight is simply gone."""
        self._draining = True
        self._stop_heartbeat()
        self.stats.abandoned_on_kill += len(self._executions) + len(self._orphans)
        self._kill_executions()
        self._orphans.clear()
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _kill_executions(self) -> None:
        """Stop every in-flight execution without completions: nothing may
        keep computing (and publishing!) after the worker is gone."""
        for execution in self._executions.values():
            execution.stop()
        self._executions.clear()
        self._idle = None

    def abort(self) -> None:
        """Immediate teardown without the handoff (e.g. SIGTERM arrived
        before the invoker ever became healthy).  Deregisters so a
        register ping already in flight does not leave a ghost entry."""
        self._draining = True
        self._shutdown()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        env = self.env
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id,
                "deregister",
                env.now,
                node=self.node,
                cluster=self.cluster_id,
            ),
        )
        self.stats.deregistered_at = env.now
        self._stop_heartbeat()
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _arm_heartbeat(self) -> None:
        timer = self.env.timeout(self.config.ping_interval)
        timer.callbacks.append(self._heartbeat)
        self._ping_timer = timer

    def _stop_heartbeat(self) -> None:
        if self._ping_timer is not None:
            self.env.cancel(self._ping_timer)
            self._ping_timer = None

    def _heartbeat(self, _timer: Event) -> None:
        kind = "healthy" if not self._draining else "draining"
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id,
                kind,
                self.env.now,
                node=self.node,
                cluster=self.cluster_id,
                free_slots=self.config.max_containers - self.pool.busy_count,
            ),
        )
        self._arm_heartbeat()

    def _claim(self) -> None:
        """Claim the next message of each topic, fast lane first."""
        claims = []
        if self.config.use_fast_lane:
            claims.append(self.broker.topic(FASTLANE_TOPIC).claim(self._on_claim))
        claims.append(self.broker.topic(self.topic).claim(self._on_claim))
        self._claims = claims

    def _on_claim(self, _message: ActivationMessage) -> None:
        """A claim took a message: make sure one wake-up is pending."""
        if self._wake is None:
            wake = self.env.timeout(0.0)
            wake.callbacks.append(self._on_wake)
            self._wake = wake

    def _on_wake(self, _wake: Event) -> None:
        """Accept what the claims took (at most one per topic), claim again."""
        self._wake = None
        messages = []
        for claim in self._claims:
            if claim.taken:
                messages.append(claim.item)
            else:
                claim.cancel()
        for message in messages:
            self._accept(message)
        self._claim()

    def _accept(self, message: ActivationMessage) -> None:
        """Admission control, then the execution's first step."""
        if self._draining:
            self._orphans.append(message)
            return
        if self.in_flight >= self.config.buffer_limit:
            # "the upper limit of concurrently running container
            # processes" (Sec. V-C): the activation fails outright.
            self.stats.rejected_overload += 1
            self._complete(message, success=False, error="invoker overloaded")
            return
        execution = _Execution(self, message)
        self._executions[message.activation_id] = execution
        execution.start()

    def _finish(self, execution: _Execution) -> None:
        """An execution completed: drop it, and end the drain's wait."""
        del self._executions[execution.message.activation_id]
        if self._idle is not None and not self._executions:
            idle, self._idle = self._idle, None
            idle.succeed()

    def _sample_overhead(self) -> float:
        cfg = self.config
        if cfg.system_overhead <= 0:
            return 0.0
        return float(
            self.rng.lognormal(math.log(cfg.system_overhead), cfg.overhead_sigma)
        )

    def _complete(
        self,
        message: ActivationMessage,
        success: bool,
        result=None,
        error: Optional[str] = None,
        wait_time: float = 0.0,
        init_time: float = 0.0,
        duration: float = 0.0,
    ) -> None:
        if not success:
            self.stats.failed += 1
        self.broker.publish(
            COMPLETED_TOPIC,
            CompletionMessage(
                activation_id=message.activation_id,
                invoker_id=self.invoker_id,
                success=success,
                result=result,
                error=error,
                wait_time=wait_time,
                init_time=init_time,
                duration=duration,
                fast_laned=message.fast_laned,
            ),
        )
