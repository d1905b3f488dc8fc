"""Client-side pieces: plain client, commercial cloud, and Alg. 1.

During full-cluster-utilization windows (10.11% of the analysed week) no
invoker exists and the controller answers 503 immediately.  Alg. 1 of the
paper wraps every call: after a 503, calls are off-loaded to a commercial
FaaS service (e.g. AWS Lambda) for 60 seconds before the HPC endpoint is
probed again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.faas.activation import ActivationResult, ActivationStatus
from repro.faas.controller import Controller, ResultCallback
from repro.faas.messages import next_activation_id
from repro.sim import Environment


class FaaSClient:
    """A thin client over the controller (the ``wsk``-CLI / HTTP path)."""

    def __init__(self, controller: Controller) -> None:
        self.controller = controller

    def submit(
        self,
        function: str,
        on_result: ResultCallback,
        params: Any = None,
        duration: Optional[float] = None,
        interruptible: bool = True,
        cluster: Optional[str] = None,
    ) -> None:
        """Non-blocking invocation: ``on_result`` receives the outcome.

        ``cluster`` is an optional federation-member placement
        preference (see :meth:`Controller.choose_invoker`).
        """
        self.controller.submit(
            function,
            on_result,
            params=params,
            duration=duration,
            interruptible=interruptible,
            cluster=cluster,
        )

    def invoke(
        self,
        function: str,
        params: Any = None,
        duration: Optional[float] = None,
        interruptible: bool = True,
        cluster: Optional[str] = None,
    ):
        """Blocking invocation (generator); see :meth:`submit`."""
        result = yield from self.controller.invoke(
            function,
            params=params,
            duration=duration,
            interruptible=interruptible,
            cluster=cluster,
        )
        return result


class CommercialCloud:
    """An always-available commercial FaaS endpoint (AWS-Lambda-like).

    Modeled as: never rejects, executes the function's compute at a
    relative speed factor (the paper measured Prometheus nodes ≈15% faster
    than Lambda's fastest 2 GB configuration, so the default factor is
    1.15), plus its own system overhead.
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        slowdown: float = 1.15,
        overhead_median: float = 0.82,
        overhead_sigma: float = 0.25,
    ) -> None:
        if slowdown <= 0:
            raise ValueError("slowdown must be positive")
        self.env = env
        self.rng = rng
        self.slowdown = slowdown
        self.overhead_median = overhead_median
        self.overhead_sigma = overhead_sigma
        self.invocations = 0

    def submit(
        self,
        function: str,
        on_result: ResultCallback,
        params: Any = None,
        duration: float = 0.01,
    ) -> None:
        """Non-blocking invocation; always succeeds."""
        env = self.env
        submitted = env.now
        self.invocations += 1
        overhead = float(
            self.rng.lognormal(math.log(self.overhead_median), self.overhead_sigma)
        )

        def finished(_timer) -> None:
            on_result(
                ActivationResult(
                    activation_id=next_activation_id(),
                    function=function,
                    status=ActivationStatus.SUCCESS,
                    result={"ok": True},
                    response_time=env.now - submitted,
                    backend="commercial",
                )
            )

        env.timeout(duration * self.slowdown + overhead).callbacks.append(finished)

    def invoke(self, function: str, params: Any = None, duration: float = 0.01):
        """Blocking invocation (generator); see :meth:`submit`."""
        done = self.env.event()
        self.submit(function, done.succeed, params=params, duration=duration)
        result = yield done
        return result


@dataclass
class Alg1Stats:
    """Bookkeeping of the wrapper's routing decisions."""

    hpc_calls: int = 0
    commercial_calls: int = 0
    rejections_503: int = 0


class Alg1Wrapper:
    """The paper's Algorithm 1: 60-second commercial fallback after a 503.

    State is one timestamp (``Last_503``).  A call within ``backoff``
    seconds of the last 503 goes straight to the commercial endpoint;
    otherwise the HPC endpoint is tried, and on a 503 the timestamp is
    refreshed and the call retried (which then lands commercially).
    """

    def __init__(
        self,
        client: FaaSClient,
        commercial: CommercialCloud,
        backoff: float = 60.0,
    ) -> None:
        if backoff <= 0:
            raise ValueError("backoff must be positive")
        self.client = client
        self.commercial = commercial
        self.backoff = backoff
        self.last_503: float = -math.inf
        self.stats = Alg1Stats()

    def submit(
        self,
        function: str,
        on_result: ResultCallback,
        params: Any = None,
        duration: Optional[float] = None,
    ) -> None:
        """Non-blocking wrapped invocation.  Mirrors Alg. 1."""
        env = self.client.controller.env
        if env.now - self.last_503 <= self.backoff:
            self.stats.commercial_calls += 1
            self.commercial.submit(
                function,
                on_result,
                params=params,
                duration=duration if duration is not None else 0.01,
            )
            return

        def hpc_result(result: ActivationResult) -> None:
            if result.status is ActivationStatus.UNAVAILABLE:
                self.stats.rejections_503 += 1
                self.last_503 = env.now
                self.submit(function, on_result, params=params, duration=duration)
                return
            on_result(result)

        self.stats.hpc_calls += 1
        self.client.submit(function, hpc_result, params=params, duration=duration)

    def invoke(self, function: str, params: Any = None, duration: Optional[float] = None):
        """Blocking wrapped invocation (generator); see :meth:`submit`."""
        done = self.client.controller.env.event()
        self.submit(function, done.succeed, params=params, duration=duration)
        result = yield done
        return result
