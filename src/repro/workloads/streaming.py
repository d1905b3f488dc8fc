"""Streaming invocation sources: the million-user trace engine's front end.

:class:`PoissonInvocationProcess.generate` materializes a full horizon of
:class:`~repro.workloads.faas_trace.Invocation` objects — fine for an
hour, structurally impossible for the ROADMAP's "millions of users over a
full day".  This module provides the lazy counterpart: **sources** that
yield invocations one at a time with O(1) resident state, and
**modulators** that wrap any source to reshape its arrival intensity
without touching its draw discipline.

Arrivals are sampled by Lewis–Shedler thinning: candidate points come
from a homogeneous Poisson process at the source's *peak* rate
(exponential inter-arrival gaps — no per-horizon allocation), and each
candidate is accepted with probability ``rate(t) / peak``.  The accept
uniform is drawn for every candidate even when the rate is flat, so a
neutral modulator (e.g. ``DiurnalModulator(base, amplitude=0.0)``)
consumes the RNG stream exactly like the bare base and produces the
identical arrival sequence for the same seed.

Modulators compose: ``FlashCrowdModulator(DiurnalModulator(PoissonSource(
...)))`` is a diurnal day with a flash crowd on top.  The intensity
modulators multiply ``rate(t)``; :class:`RegionShiftModulator` instead
tags each invocation with a time-rotating federation-member preference
(the ``Invocation.cluster`` field), which the controller and the sharded
coordinator honor as a soft placement hint.

:class:`FaaSStreamClient` is the open-loop injector over any source: it
pulls invocations lazily, so resident memory is bounded by the number of
*in-flight* requests, never the horizon, and it folds every outcome into
a :class:`StreamReport` of streaming aggregates (mergeable across shards).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.faas.activation import ActivationResult, ActivationStatus
from repro.sim import Environment
from repro.workloads.faas_trace import AzureDurationModel, Invocation

# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class FixedDurationModel:
    """Constant service times (duck-typed like :class:`AzureDurationModel`).

    Useful for capacity smoke tests: the Azure trace's heavy tail (mean
    ~30 s) saturates a small harvested fleet at any realistic qps, while
    fixed short sleeps keep the workload CPU-shaped like ``gatling``.
    """

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.duration = float(duration)

    def sample(self) -> float:
        return self.duration


class StreamSource:
    """A lazily-evaluated invocation source (non-homogeneous Poisson).

    Subclasses define the arrival intensity (:meth:`rate`, with an upper
    envelope :meth:`peak_rate` for thinning) and the marking
    (:meth:`make` builds the invocation at an accepted arrival time).
    :meth:`iter_invocations` — the only entry point consumers need — is
    implemented once, here, by Lewis–Shedler thinning.
    """

    def rate(self, t: float) -> float:
        """Instantaneous arrival intensity at simulated time ``t`` (1/s)."""
        raise NotImplementedError

    def peak_rate(self, horizon: float) -> float:
        """An upper bound on :meth:`rate` over ``[0, horizon)``."""
        raise NotImplementedError

    @property
    def rng(self) -> np.random.Generator:
        raise NotImplementedError

    @property
    def functions(self) -> List[str]:
        raise NotImplementedError

    def make(self, t: float) -> Invocation:
        """Draw the function/duration marks for an arrival at ``t``."""
        raise NotImplementedError

    def iter_invocations(self, horizon: float) -> Iterator[Invocation]:
        """Invocations in ``[0, horizon)``, one at a time, O(1) memory."""
        if horizon <= 0.0:
            return
        peak = float(self.peak_rate(horizon))
        if peak <= 0.0:
            return
        rng = self.rng
        scale = 1.0 / peak
        t = 0.0
        while True:
            t += float(rng.exponential(scale))
            if t >= horizon:
                return
            # One accept draw per candidate, unconditionally: keeps the
            # stream consumption identical between a bare source and the
            # same source under a neutral (factor == 1) modulator.
            if float(rng.uniform(0.0, peak)) <= self.rate(t):
                yield self.make(t)


class PoissonSource(StreamSource):
    """Homogeneous Poisson arrivals with Zipf function popularity.

    The streaming analogue of :class:`~repro.workloads.faas_trace.
    PoissonInvocationProcess`: same marks (Zipf s = 1.1 popularity,
    :class:`AzureDurationModel` durations), constant base rate, but
    produced incrementally.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        functions: Sequence[str],
        rate_per_second: float,
        duration_model: Optional[AzureDurationModel] = None,
        zipf_s: float = 1.1,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if not functions:
            raise ValueError("need at least one function")
        self._rng = rng
        self._functions = list(functions)
        self.rate_per_second = float(rate_per_second)
        self.duration_model = duration_model or AzureDurationModel(rng)
        ranks = np.arange(1, len(self._functions) + 1, dtype=float)
        weights = ranks ** (-zipf_s)
        # cumulative popularity → one uniform + binary search per mark
        self._cumulative = np.cumsum(weights / weights.sum())

    def rate(self, t: float) -> float:
        return self.rate_per_second

    def peak_rate(self, horizon: float) -> float:
        return self.rate_per_second

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def functions(self) -> List[str]:
        return self._functions

    def make(self, t: float) -> Invocation:
        u = float(self._rng.random())
        index = min(
            int(np.searchsorted(self._cumulative, u, side="right")),
            len(self._functions) - 1,
        )
        return Invocation(
            time=t,
            function=self._functions[index],
            duration=float(self.duration_model.sample()),
        )


# ---------------------------------------------------------------------------
# modulators
# ---------------------------------------------------------------------------


class Modulator(StreamSource):
    """Base wrapper: multiplies the wrapped source's intensity by
    :meth:`factor`, delegating marks and RNG to the base so a stack of
    modulators still draws from one stream in one order."""

    def __init__(self, base: StreamSource) -> None:
        self.base = base

    def factor(self, t: float) -> float:
        """Intensity multiplier at time ``t`` (>= 0)."""
        raise NotImplementedError

    def peak_factor(self, horizon: float) -> float:
        """An upper bound on :meth:`factor` over ``[0, horizon)``."""
        raise NotImplementedError

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor(t)

    def peak_rate(self, horizon: float) -> float:
        return self.base.peak_rate(horizon) * self.peak_factor(horizon)

    @property
    def rng(self) -> np.random.Generator:
        return self.base.rng

    @property
    def functions(self) -> List[str]:
        return self.base.functions

    def make(self, t: float) -> Invocation:
        return self.base.make(t)


class DiurnalModulator(Modulator):
    """Sinusoidal day/night cycle: ``1 + amplitude * sin(2π (t+phase)/period)``."""

    def __init__(
        self,
        base: StreamSource,
        amplitude: float = 0.5,
        period: float = 86_400.0,
        phase: float = 0.0,
    ) -> None:
        super().__init__(base)
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1]")
        if period <= 0:
            raise ValueError("diurnal period must be positive")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def factor(self, t: float) -> float:
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t + self.phase) / self.period
        )

    def peak_factor(self, horizon: float) -> float:
        return 1.0 + self.amplitude


class BurstModulator(Modulator):
    """A flat intensity multiplier over one ``[start, start+duration)`` window."""

    def __init__(
        self,
        base: StreamSource,
        start: float,
        duration: float,
        factor: float = 4.0,
    ) -> None:
        super().__init__(base)
        if duration <= 0:
            raise ValueError("burst duration must be positive")
        if factor < 0:
            raise ValueError("burst factor must be >= 0")
        self.start = float(start)
        self.duration = float(duration)
        self.burst_factor = float(factor)

    def factor(self, t: float) -> float:
        if self.start <= t < self.start + self.duration:
            return self.burst_factor
        return 1.0

    def peak_factor(self, horizon: float) -> float:
        return max(1.0, self.burst_factor)


class FlashCrowdModulator(Modulator):
    """A flash crowd: linear ramp to ``1 + magnitude`` then exponential decay."""

    def __init__(
        self,
        base: StreamSource,
        at: float,
        magnitude: float = 9.0,
        rise: float = 60.0,
        decay: float = 600.0,
    ) -> None:
        super().__init__(base)
        if magnitude < 0:
            raise ValueError("flash magnitude must be >= 0")
        if rise <= 0 or decay <= 0:
            raise ValueError("flash rise/decay must be positive")
        self.at = float(at)
        self.magnitude = float(magnitude)
        self.rise = float(rise)
        self.decay = float(decay)

    def factor(self, t: float) -> float:
        if t < self.at:
            return 1.0
        if t < self.at + self.rise:
            return 1.0 + self.magnitude * (t - self.at) / self.rise
        return 1.0 + self.magnitude * math.exp(-(t - self.at - self.rise) / self.decay)

    def peak_factor(self, horizon: float) -> float:
        return 1.0 + self.magnitude


class RegionShiftModulator(Modulator):
    """Tags invocations with a slowly rotating region (member) preference.

    Region ``i`` of ``R`` has weight ``max(0, 1 + sharpness * cos(2π (t +
    phase)/period - 2π i/R))`` at time ``t`` — as the day progresses the
    "active" region rotates through the federation, the follow-the-sun
    pattern of a geo-distributed user base.  Intensity is untouched; the
    tag lands in :attr:`Invocation.cluster` and is honored as a soft
    placement preference (empty regions fall back to normal routing).
    """

    def __init__(
        self,
        base: StreamSource,
        regions: Sequence[str],
        period: float = 86_400.0,
        phase: float = 0.0,
        sharpness: float = 1.0,
    ) -> None:
        super().__init__(base)
        if not regions:
            raise ValueError("need at least one region")
        if period <= 0:
            raise ValueError("region period must be positive")
        if sharpness < 0:
            raise ValueError("region sharpness must be >= 0")
        self.regions = list(regions)
        self.period = float(period)
        self.phase = float(phase)
        self.sharpness = float(sharpness)

    def factor(self, t: float) -> float:
        return 1.0

    def peak_factor(self, horizon: float) -> float:
        return 1.0

    def weights(self, t: float) -> List[float]:
        n = len(self.regions)
        angle = 2.0 * math.pi * (t + self.phase) / self.period
        raw = [
            max(0.0, 1.0 + self.sharpness * math.cos(angle - 2.0 * math.pi * i / n))
            for i in range(n)
        ]
        return raw if sum(raw) > 0.0 else [1.0] * n

    def make(self, t: float) -> Invocation:
        invocation = self.base.make(t)
        weights = self.weights(t)
        threshold = float(self.rng.random()) * sum(weights)
        acc = 0.0
        region = self.regions[-1]
        for name, weight in zip(self.regions, weights):
            acc += weight
            if threshold <= acc:
                region = name
                break
        return Invocation(
            time=invocation.time,
            function=invocation.function,
            duration=invocation.duration,
            cluster=region,
        )


def build_stream_source(
    rng: np.random.Generator,
    functions: Sequence[str],
    rate_per_second: float,
    *,
    duration_model: Optional[AzureDurationModel] = None,
    zipf_s: float = 1.1,
    diurnal_amplitude: float = 0.0,
    diurnal_period: float = 86_400.0,
    diurnal_phase: float = 0.0,
    burst_at: Optional[float] = None,
    burst_duration: float = 300.0,
    burst_factor: float = 4.0,
    flash_at: Optional[float] = None,
    flash_magnitude: float = 9.0,
    flash_rise: float = 60.0,
    flash_decay: float = 600.0,
    regions: Optional[Sequence[str]] = None,
    region_period: float = 86_400.0,
    region_sharpness: float = 1.0,
) -> StreamSource:
    """One canonical source stack from flat options.

    Both the ``faas-stream`` workload component (unsharded path) and the
    sharded coordinator build their source through this helper, in this
    fixed wrapper order, so the two paths generate the *identical*
    invocation sequence from the same named stream and seed.
    """
    source: StreamSource = PoissonSource(
        rng, functions, rate_per_second,
        duration_model=duration_model, zipf_s=zipf_s,
    )
    if diurnal_amplitude > 0.0:
        source = DiurnalModulator(
            source,
            amplitude=diurnal_amplitude,
            period=diurnal_period,
            phase=diurnal_phase,
        )
    if burst_at is not None:
        source = BurstModulator(
            source, start=burst_at, duration=burst_duration, factor=burst_factor
        )
    if flash_at is not None:
        source = FlashCrowdModulator(
            source,
            at=flash_at,
            magnitude=flash_magnitude,
            rise=flash_rise,
            decay=flash_decay,
        )
    if regions:
        source = RegionShiftModulator(
            source, regions, period=region_period, sharpness=region_sharpness
        )
    return source


# ---------------------------------------------------------------------------
# injector + streaming report
# ---------------------------------------------------------------------------


class StreamReport:
    """O(1)-memory outcome aggregates for a streaming load run.

    The streaming analogue of :class:`~repro.workloads.gatling.
    GatlingReport`: per-status counts plus a :class:`StreamingStats`
    (with a deterministic reservoir sketch) over successful response
    times.  Reports from different shards :meth:`merge` into one fleet
    view — counts and moments exactly, quantiles per the sketch-merge
    contract.
    """

    __slots__ = ("total", "by_status", "response", "run_horizon")

    def __init__(self, quantile_capacity: int = 512) -> None:
        # Deferred: repro.analysis pulls in the OW-log/pilot layer, which
        # itself imports repro.workloads — a cycle at module-import time.
        from repro.analysis.streaming import StreamingStats

        self.total = 0
        self.by_status: Dict[str, int] = {}
        self.response = StreamingStats(quantiles=True, capacity=quantile_capacity)
        self.run_horizon: Optional[float] = None

    def add(self, status: ActivationStatus, response_time: float) -> None:
        self.total += 1
        key = status.name
        self.by_status[key] = self.by_status.get(key, 0) + 1
        if status is ActivationStatus.SUCCESS:
            self.response.add(float(response_time))

    def count(self, status: ActivationStatus) -> int:
        return self.by_status.get(status.name, 0)

    @property
    def invoked_share(self) -> float:
        """Share of requests the controller accepted (no 503)."""
        if not self.total:
            return 0.0
        return 1.0 - self.count(ActivationStatus.UNAVAILABLE) / self.total

    @property
    def success_share_of_invoked(self) -> float:
        """Successes / accepted — the paper's responsiveness metric."""
        invoked = self.total - self.count(ActivationStatus.UNAVAILABLE)
        if invoked == 0:
            return 0.0
        return self.count(ActivationStatus.SUCCESS) / invoked

    def merge(self, other: "StreamReport") -> None:
        """Fold another report (typically another shard's) into this one."""
        self.total += other.total
        for key, hits in other.by_status.items():
            self.by_status[key] = self.by_status.get(key, 0) + hits
        self.response.merge(other.response)
        if other.run_horizon is not None:
            self.run_horizon = max(self.run_horizon or 0.0, other.run_horizon)

    def metrics(self, prefix: str = "stream_") -> Dict[str, float]:
        """The report as flat scalar metrics (probe / shard-merge view)."""
        out: Dict[str, float] = {
            f"{prefix}requests_total": self.total,
            f"{prefix}accepted_share": self.invoked_share,
            f"{prefix}success_share_of_invoked": self.success_share_of_invoked,
        }
        if self.response.count:
            out[f"{prefix}mean_response_s"] = self.response.mean
            out[f"{prefix}p50_response_s"] = self.response.quantile(0.5)
            out[f"{prefix}p99_response_s"] = self.response.quantile(0.99)
        return out


class FaaSStreamClient:
    """Open-loop streaming injector over any :class:`StreamSource`.

    Pulls invocations from the source one at a time — the full schedule
    is never resident — and submits each inline, with no process per
    request, so memory is O(in-flight requests) however long the horizon.
    ``target`` is anything exposing ``submit(function, on_result,
    duration=...)``, which calls ``on_result`` with the request's
    :class:`~repro.faas.activation.ActivationResult` (region tags
    additionally require the ``cluster=`` keyword, which
    :class:`~repro.faas.client.FaaSClient` provides).
    """

    def __init__(
        self,
        env: Environment,
        target,
        source: StreamSource,
        report: Optional[StreamReport] = None,
    ) -> None:
        self.env = env
        self.target = target
        self.source = source
        self.report = report if report is not None else StreamReport()
        self._proc = None

    def start(self, horizon: float) -> None:
        """Begin injecting; the source is consumed up to *horizon*."""
        self.report.run_horizon = float(horizon)
        self._proc = self.env.process(self._inject(horizon))

    def _inject(self, horizon: float):
        env = self.env
        submit = self.target.submit
        record = self._record
        for invocation in self.source.iter_invocations(horizon):
            if invocation.time > env.now:
                yield env.timeout(invocation.time - env.now)
            if invocation.cluster is None:
                submit(invocation.function, record, duration=invocation.duration)
            else:
                submit(
                    invocation.function,
                    record,
                    duration=invocation.duration,
                    cluster=invocation.cluster,
                )

    def _record(self, result: ActivationResult) -> None:
        self.report.add(result.status, result.response_time)
