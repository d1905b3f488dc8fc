"""Benchmark harness: run, record, and compare kernel throughput.

One :class:`BenchRecord` captures one benchmark run — either the pure
:mod:`repro.bench.kernel` microbenchmark or any registered scenario
executed at a scale preset under a :class:`~repro.bench.instrument.KernelProbe`.
Records serialize to the ``repro-bench/1`` JSON schema::

    {
      "schema": "repro-bench/1",
      "name": "day", "kind": "scenario", "preset": "smoke", "seed": 317,
      "events_processed": ..., "events_scheduled": ...,
      "peak_queue_depth": ..., "wall_time_s": ..., "events_per_sec": ...,
      "metrics": {"...": ...}          # the scenario's flat metrics
    }

``repro bench`` writes one ``BENCH_<name>.json`` per benchmark plus an
optional combined baseline file (``repro-bench-baseline/1``: the same
records keyed by name).  :func:`compare_records` implements the
regression gate: a benchmark regresses when its events/sec falls more
than ``max_regression`` below the baseline's.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.bench.instrument import KernelProbe, KernelStats
from repro.bench.kernel import (
    FLOOD_BENCH_NAME,
    KERNEL_BENCH_NAME,
    TIMEOUT_FLOOD_BENCH_NAME,
    run_flood_bench,
    run_kernel_bench,
    run_timeout_flood_bench,
)
from repro.bench.router import ROUTER_BENCH_NAME, run_router_bench
from repro.bench.shards import SHARDS_BENCH_NAME, run_shards_bench
from repro.scenarios.registry import REGISTRY, load_builtin
from repro.scenarios.sweep import reset_run_state

BENCH_SCHEMA = "repro-bench/1"
BASELINE_SCHEMA = "repro-bench-baseline/1"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run, ready for JSON persistence and comparison."""

    name: str
    #: "kernel" (microbenchmark) or "scenario" (registry-backed)
    kind: str
    preset: str
    stats: KernelStats
    #: root seed of the scenario run (None for the kernel microbench)
    seed: Optional[int] = None
    #: the scenario's flat result metrics (empty for the kernel bench)
    metrics: Mapping[str, float] = field(default_factory=dict)
    #: canonical configuration identity (always derived; see __post_init__)
    spec_hash: Optional[str] = None

    def __post_init__(self) -> None:
        # always the canonical derivation, so records deserialized from
        # old files (no spec_hash key) equal freshly built ones and the
        # from_dict(to_dict()) round-trip stays exact
        from repro.provenance import spec_hash

        object.__setattr__(
            self,
            "spec_hash",
            spec_hash({"bench": self.name, "preset": self.preset}),
        )

    @property
    def events_per_sec(self) -> float:
        return self.stats.events_per_sec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "spec_hash": self.spec_hash,
            "name": self.name,
            "kind": self.kind,
            "preset": self.preset,
            "seed": self.seed,
            **self.stats.as_dict(),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA:
            raise ValueError(
                f"expected schema {BENCH_SCHEMA!r}, got {schema!r}"
            )
        stats = KernelStats(
            events_processed=int(payload["events_processed"]),
            events_scheduled=int(payload["events_scheduled"]),
            peak_queue_depth=int(payload["peak_queue_depth"]),
            wall_time_s=float(payload["wall_time_s"]),
            # absent in records written before the allocation pool landed
            events_reused=int(payload.get("events_reused", 0)),
        )
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            preset=str(payload["preset"]),
            stats=stats,
            seed=payload.get("seed"),
            metrics=dict(payload.get("metrics", {})),
        )


#: name -> ``runner(preset) -> KernelStats`` for the pure microbenches.
MICROBENCH_RUNNERS: Dict[str, Callable[[str], KernelStats]] = {
    KERNEL_BENCH_NAME: run_kernel_bench,
    FLOOD_BENCH_NAME: run_flood_bench,
    TIMEOUT_FLOOD_BENCH_NAME: run_timeout_flood_bench,
    ROUTER_BENCH_NAME: run_router_bench,
    SHARDS_BENCH_NAME: run_shards_bench,
}


def bench_names() -> List[str]:
    """All runnable benchmarks: the microbenches + every scenario."""
    load_builtin()
    return list(MICROBENCH_RUNNERS) + REGISTRY.names()


def _median_by_wall_time(repeats: List[KernelStats]) -> KernelStats:
    """The median-wall-time repeat: the *typical* throughput.

    The best-of-N estimator records lucky peaks, so a baseline written
    from it sits in the distribution's upper tail and typical later
    runs read as regressions; the median is stable on noisy shared
    machines in both roles (baseline and gate).
    """
    ordered = sorted(repeats, key=lambda stats: stats.wall_time_s)
    return ordered[(len(ordered) - 1) // 2]


def run_bench(name: str, preset: str = "quick", repeats: int = 1) -> BenchRecord:
    """Run one benchmark, recording the median-throughput repeat.

    Repeats exist because events/sec is wall-clock derived and noisy on
    shared machines.  Scenario runs are deterministic in their *metrics*
    regardless (global id counters are reset before every repeat).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runner = MICROBENCH_RUNNERS.get(name)
    if runner is not None:
        runs = []
        for _ in range(repeats):
            reset_run_state()
            runs.append(runner(preset))
        return BenchRecord(
            name=name, kind="kernel", preset=preset,
            stats=_median_by_wall_time(runs),
        )

    load_builtin()
    scenario = REGISTRY.get(name)  # raises KeyError with the known names
    runs: List[KernelStats] = []
    metrics: Dict[str, float] = {}
    seed: Optional[int] = None
    for _ in range(repeats):
        reset_run_state()
        with KernelProbe() as probe:
            result = scenario.run({}, scale=preset)
        runs.append(probe.stats)
        # metrics/seed are identical across repeats for deterministic
        # scenarios; keep the last run's view
        metrics = dict(result.metrics)
        seed = result.spec.seed
    return BenchRecord(
        name=name, kind="scenario", preset=preset,
        stats=_median_by_wall_time(runs), seed=seed, metrics=metrics,
    )


def profile_bench(name: str, preset: str = "quick", top: int = 25) -> str:
    """Run one benchmark under cProfile; return a pstats top-``top`` table.

    The profile covers a single run (no repeats — profiling overhead
    makes wall-time medians meaningless anyway), sorted by internal
    time, which is where kernel hot spots show.  The returned text is
    what ``repro bench <name> --profile`` prints, so future kernel PRs
    can ship before/after evidence straight from the tool.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    runner = MICROBENCH_RUNNERS.get(name)
    if runner is None:
        load_builtin()
        scenario = REGISTRY.get(name)  # raises KeyError with known names
        work = lambda: scenario.run({}, scale=preset)  # noqa: E731
    else:
        work = lambda: runner(preset)  # noqa: E731
    reset_run_state()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return stream.getvalue()


def write_record(record: BenchRecord, out_dir: str = ".") -> str:
    """Write ``BENCH_<name>.json`` into *out_dir*; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{record.name}.json")
    with open(path, "w") as handle:
        handle.write(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        handle.write("\n")
    return path


def write_baseline(
    records: Sequence[BenchRecord],
    path: str,
    preset: str,
    notes: Optional[Mapping[str, Any]] = None,
) -> str:
    """Write the combined baseline file the regression gate compares to.

    ``notes`` is free-form provenance (machine, reference measurements,
    how the file was produced); :func:`load_baseline` ignores it.
    """
    payload = {
        "schema": BASELINE_SCHEMA,
        "preset": preset,
        "entries": {
            record.name: record.to_dict() for record in records
        },
    }
    if notes:
        payload["notes"] = dict(notes)
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True))
        handle.write("\n")
    return path


def load_baseline(path: str) -> Dict[str, BenchRecord]:
    """Load a baseline (or single-record) file as ``name -> record``."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema == BASELINE_SCHEMA:
        return {
            name: BenchRecord.from_dict(entry)
            for name, entry in payload.get("entries", {}).items()
        }
    if schema == BENCH_SCHEMA:
        record = BenchRecord.from_dict(payload)
        return {record.name: record}
    raise ValueError(
        f"{path}: unknown schema {schema!r} (expected {BASELINE_SCHEMA!r} "
        f"or {BENCH_SCHEMA!r})"
    )


def parse_regression(token: str) -> float:
    """``"10%"`` / ``"10"`` / ``"0.5"`` → 0.10 / 0.10 / 0.005.

    Every value is a percentage, with or without the ``%`` suffix — one
    rule, no fraction/percent ambiguity (a bare ``0.5`` silently meaning
    50% would let real regressions through).
    """
    text = str(token).strip()
    value = float(text[:-1] if text.endswith("%") else text) / 100.0
    if not 0.0 <= value < 1.0:
        raise ValueError(f"max regression must be in [0%, 100%), got {token!r}")
    return value


@dataclass(frozen=True)
class Comparison:
    """events/sec of one benchmark vs its baseline entry."""

    name: str
    baseline_eps: float
    current_eps: float
    #: relative change: +0.25 = 25% faster, -0.10 = 10% slower
    delta: float
    regressed: bool


def compare_records(
    current: Mapping[str, BenchRecord],
    baseline: Mapping[str, BenchRecord],
    max_regression: float,
) -> List[Comparison]:
    """Compare every benchmark present in both mappings, current order.

    Raises :class:`ValueError` when a shared benchmark was recorded at a
    different preset — events/sec across presets are different workloads
    and a silent comparison would make the gate's verdict meaningless.
    """
    comparisons: List[Comparison] = []
    for name, record in current.items():
        base = baseline.get(name)
        if base is None:
            continue
        if base.preset != record.preset:
            raise ValueError(
                f"benchmark {name!r}: cannot compare preset "
                f"{record.preset!r} against baseline preset {base.preset!r}"
            )
        base_eps = base.events_per_sec
        cur_eps = record.events_per_sec
        delta = (cur_eps / base_eps - 1.0) if base_eps > 0 else 0.0
        comparisons.append(
            Comparison(
                name=name,
                baseline_eps=base_eps,
                current_eps=cur_eps,
                delta=delta,
                regressed=delta < -max_regression,
            )
        )
    return comparisons
