"""A Gatling-like constant-rate load client (Sec. V-C).

The paper's responsiveness experiment: 100 identical 10 ms sleep functions
called from outside the cluster at a constant 10 calls per second —
864,000 requests over 24 hours — with Gatling recording every response.
This module reproduces the open-model injection and the per-minute
aggregation of Figs 5b/6b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.faas.activation import ActivationResult, ActivationStatus
from repro.sim import Environment


@dataclass
class RequestOutcome:
    """One logged request."""

    submitted_at: float
    function: str
    status: ActivationStatus
    response_time: float
    backend: str = "hpc-whisk"
    fast_laned: bool = False


@dataclass
class GatlingReport:
    """Aggregated view of a load run.

    ``run_horizon`` is stamped by :meth:`GatlingClient.start` so that
    minute-binned series cover the whole run even when the trailing
    minutes saw no submissions.
    """

    outcomes: List[RequestOutcome] = field(default_factory=list)
    run_horizon: Optional[float] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    # -- request-level aggregates (Sec. V-C numbers) ---------------------
    def count(self, status: ActivationStatus) -> int:
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def invoked_share(self) -> float:
        """Share of requests the controller accepted (no 503)."""
        if not self.outcomes:
            return 0.0
        return 1.0 - self.count(ActivationStatus.UNAVAILABLE) / self.total

    @property
    def success_share_of_invoked(self) -> float:
        """Successes / accepted — the paper's 95.19% / 96.99% metric."""
        invoked = self.total - self.count(ActivationStatus.UNAVAILABLE)
        if invoked == 0:
            return 0.0
        return self.count(ActivationStatus.SUCCESS) / invoked

    def response_time_percentile(self, q: float, successful_only: bool = True) -> float:
        times = [
            o.response_time
            for o in self.outcomes
            if not successful_only or o.status is ActivationStatus.SUCCESS
        ]
        if not times:
            return float("nan")
        return float(np.percentile(times, q))

    # -- per-minute series (Figs 5b / 6b) ---------------------------------
    def per_minute(self, horizon: Optional[float] = None) -> Dict[str, np.ndarray]:
        """Minute-binned counts of successful / failed / lost / 503.

        The bin range is, in order of preference: the explicit
        ``horizon`` argument, the :attr:`run_horizon` recorded at
        injection start, then — for hand-built reports only — the last
        submission time.  The last fallback under-counts minutes when a
        run's tail has no submissions, which is exactly why the client
        stamps the real horizon.
        """
        if horizon is None:
            horizon = self.run_horizon
        if not self.outcomes and horizon is None:
            return {k: np.zeros(0, dtype=int) for k in ("successful", "failed", "lost", "rejected")}
        end = horizon if horizon is not None else max(o.submitted_at for o in self.outcomes) + 1
        bins = int(np.ceil(end / 60.0))
        series = {
            "successful": np.zeros(bins, dtype=int),
            "failed": np.zeros(bins, dtype=int),
            "lost": np.zeros(bins, dtype=int),
            "rejected": np.zeros(bins, dtype=int),
        }
        key_for = {
            ActivationStatus.SUCCESS: "successful",
            ActivationStatus.FAILED: "failed",
            ActivationStatus.TIMEOUT: "lost",
            ActivationStatus.UNAVAILABLE: "rejected",
        }
        for outcome in self.outcomes:
            index = min(int(outcome.submitted_at // 60.0), bins - 1)
            series[key_for[outcome.status]][index] += 1
        return series


class GatlingClient:
    """Constant-rate open-model injector.

    ``target`` is anything exposing ``submit(function, on_result,
    duration=...)``, which calls ``on_result`` with the request's
    :class:`~repro.faas.activation.ActivationResult` — the plain
    :class:`~repro.faas.client.FaaSClient` or the Alg. 1 wrapper.  The
    inject loop submits inline: no process per request.
    """

    def __init__(
        self,
        env: Environment,
        target,
        functions: Sequence[str],
        rate_per_second: float = 10.0,
        duration: float = 0.010,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if not functions:
            raise ValueError("need at least one function")
        self.env = env
        self.target = target
        self.functions = list(functions)
        self.rate = rate_per_second
        self.duration = duration
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.report = GatlingReport()
        self._proc = None

    def start(self, horizon: float) -> None:
        """Begin injecting; stops issuing new requests at *horizon*."""
        self.report.run_horizon = float(horizon)
        self._proc = self.env.process(self._inject(horizon))

    def _inject(self, horizon: float):
        env = self.env
        interval = 1.0 / self.rate
        submit = self.target.submit
        index = 0
        while env.now < horizon:
            function = self.functions[index % len(self.functions)]
            index += 1
            submit(
                function,
                partial(self._record, env.now, function),
                duration=self.duration,
            )
            yield env.timeout(interval)

    def _record(self, submitted: float, function: str, result: ActivationResult) -> None:
        self.report.outcomes.append(
            RequestOutcome(
                submitted_at=submitted,
                function=function,
                status=result.status,
                response_time=result.response_time,
                backend=result.backend,
                fast_laned=result.fast_laned,
            )
        )
