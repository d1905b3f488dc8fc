"""The live control plane: a stack served as a long-running service.

:class:`LiveControlPlane` builds the **same** system a simulated run
builds — ``Stack.build()`` wires cluster, supply, middleware and router
exactly as ``repro run`` does — but instead of attaching workloads and
calling ``env.run(until=horizon)``, it parks the environment on a
:class:`~repro.live.kernel.LiveKernel` and exposes invocation as an
``async`` call.  Broker, Controller, LoadBalancer and supply policies
execute unmodified; only the pacing differs.

Two worlds meet here:

* the **kernel world** — generators yielding simulation events, single
  threaded, driven by the live kernel's step loop;
* the **asyncio world** — HTTP handlers and the replay driver awaiting
  results.

The bridge is one pattern: an async caller submits a thunk that starts
an invocation *process* on the environment; a callback appended to the
process resolves an :class:`asyncio.Future` when the process settles.
Arrival timestamps map wall→kernel via ``max(0, clock.kernel_now() -
env.now)``: the invocation generator first yields a timeout that carries
the environment up to "now" under the wall clock, so an event is never
scheduled in the past.  Idle periods are not free: the kernel still
steps the Slurm scheduler's poll and the controller's ping scanner, at
``--speed 1000`` about 1,500 steps and a tenth of a CPU per wall second
(measured on a 2-vCPU host).

Workload specs in the stack are **not** attached — in live mode the
workload section of a config describes the *replay traffic* (see
:class:`~repro.live.replay.ReplayDriver`), not server-internal load —
but their function catalogue is deployed at startup so replayed requests
find their targets.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.api.registry import COMPONENTS, ComponentRegistry
from repro.api.stack import Stack, StackContext
from repro.faas.activation import ActivationResult
from repro.faas.functions import FunctionDef, sleep_functions
from repro.live.clock import WallClock
from repro.live.kernel import LiveKernel


class ServiceStopped(RuntimeError):
    """Raised to callers who invoke after shutdown began."""


class LiveControlPlane:
    """Runs one stack's control plane against the wall clock.

    ``speed`` is kernel seconds per wall second (see
    :class:`~repro.live.clock.WallClock`).  The service deploys the
    function catalogue implied by the stack's ``faas-stream`` workload
    specs (count × duration → the same deterministic ``sleep-NNN``
    catalogue the simulator deploys), so a replay of that workload
    finds every function it invokes.
    """

    def __init__(
        self,
        stack: Stack,
        speed: float = 1.0,
        registry: ComponentRegistry = COMPONENTS,
        clock: Optional[WallClock] = None,
        max_batch: int = 256,
    ) -> None:
        #: the stack as served: same components, workloads/probes stripped
        self.stack = replace(stack, workloads=(), probes=())
        #: the original stack (replay reads workload specs from here)
        self.source_stack = stack
        self.ctx: StackContext = self.stack.build(registry)
        if self.ctx.system.controller is None:
            raise ValueError("live mode needs middleware in the stack")
        self.kernel = LiveKernel(
            self.ctx.env, clock or WallClock(speed), max_batch=max_batch
        )
        self._task: Optional[asyncio.Task] = None
        self._accepting = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: requests accepted by :meth:`invoke` over the service lifetime
        self.requests_total = 0
        for fn in catalogue_functions(stack):
            self.ctx.system.controller.deploy(fn)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler loop; returns once it is running."""
        if self._task is not None:
            raise RuntimeError("service already started")
        self._accepting = True
        self._task = asyncio.ensure_future(self.kernel.run())
        # Yield once so the kernel task anchors its clock before the
        # first invocation computes an arrival delay.
        await asyncio.sleep(0)

    async def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, halt.

        With ``drain`` the call waits (bounded by ``timeout`` wall
        seconds) until every accepted invocation has settled before the
        kernel stops — the nanofaas ``stop()``/``awaitTermination``
        contract.
        """
        self._accepting = False
        if drain and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        for manager in self.ctx.system.managers.values():
            manager.stop()
        self.kernel.stop()
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def inflight(self) -> int:
        """Invocations accepted by the service and not yet settled."""
        return self._inflight

    # ------------------------------------------------------------------
    # invocation bridge (asyncio -> kernel process -> asyncio)
    # ------------------------------------------------------------------
    async def invoke(
        self,
        function: str,
        duration: Optional[float] = None,
        cluster: Optional[str] = None,
    ) -> ActivationResult:
        """One blocking invocation through the real control plane.

        Submits onto the scheduler loop, runs the same
        ``FaaSClient.invoke`` generator the simulator runs, and resolves
        when the activation settles.  The environment's clock is pulled
        up to the wall-mapped arrival time first.
        """
        if not self._accepting:
            raise ServiceStopped("control plane is shutting down")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ActivationResult]" = loop.create_future()
        self._inflight += 1
        self._idle.clear()
        self.requests_total += 1

        env = self.ctx.env
        clock = self.kernel.clock
        client = self.ctx.system.client

        def request():
            delay = max(0.0, clock.kernel_now() - env.now)
            if delay > 0:
                yield env.timeout(delay)
            result = yield from client.invoke(
                function, duration=duration, cluster=cluster
            )
            return result

        def settle(event) -> None:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            if future.cancelled():  # pragma: no cover - caller went away
                event.defused = True
                return
            if event.failed:
                event.defused = True
                future.set_exception(event.value)
            else:
                future.set_result(event.value)

        def inject() -> None:
            process = env.process(request())
            process.callbacks.append(settle)

        self.kernel.submit(inject)
        return await future

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A pure-read health/stats view (the /healthz + /stats payload)."""
        controller = self.ctx.system.controller
        state = controller.snapshot()
        state.update(
            kernel_now=self.ctx.env.now,
            clock_now=(
                self.kernel.clock.kernel_now() if self.kernel.clock.started else 0.0
            ),
            speed=self.kernel.clock.speed,
            accepting=self._accepting,
            service_inflight=self._inflight,
            requests_total=self.requests_total,
            kernel_steps=self.kernel.steps,
        )
        return state


def catalogue_functions(stack: Stack) -> "list[FunctionDef]":
    """The function catalogue a stack's stream workloads imply.

    Mirrors :func:`repro.api.components.build_stream_plan`'s catalogue
    derivation (``functions`` count × fixed ``duration`` →
    ``sleep-NNN`` defs) without consuming any random stream, so serving
    deploys exactly the functions a seeded replay will call.
    """
    catalogue: Dict[str, FunctionDef] = {}
    for spec in stack.workloads:
        if spec.name != "faas-stream":
            continue
        count = int(spec.options.get("functions", 100))
        fn_duration = float(spec.options.get("duration", 0.010))
        for fn in sleep_functions(count, fn_duration):
            catalogue[fn.name] = fn
    return list(catalogue.values())
