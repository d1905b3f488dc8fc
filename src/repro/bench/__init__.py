"""Scenario-backed benchmark subsystem.

Turns the kernel's cheap throughput counters
(:data:`repro.sim.core.KERNEL_TOTALS`) into recorded, comparable
benchmark artifacts:

* :mod:`repro.bench.instrument` — :class:`KernelProbe` wraps any block
  of simulation work and yields :class:`KernelStats` (events processed,
  events scheduled, peak queue depth, wall time → events/sec);
* :mod:`repro.bench.kernel` — a pure-kernel microbenchmark (timeout
  floods, process churn, event relays, cancellation storms) scaled by
  the shared ``smoke``/``quick``/``full`` presets;
* :mod:`repro.bench.harness` — runs the microbenchmark or any
  registered scenario under a probe, writes schema'd ``BENCH_<name>.json``
  artifacts, and compares runs against a committed baseline
  (``repro bench --against BENCH_baseline.json --max-regression 10%``).

The CLI front end is ``python -m repro bench`` (see
``EXPERIMENTS.md`` § Benchmarks).
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    BASELINE_SCHEMA,
    MICROBENCH_RUNNERS,
    BenchRecord,
    Comparison,
    bench_names,
    compare_records,
    load_baseline,
    parse_regression,
    profile_bench,
    run_bench,
    write_baseline,
    write_record,
)
from repro.bench.instrument import KernelProbe, KernelStats
from repro.bench.kernel import (
    FLOOD_BENCH_NAME,
    KERNEL_BENCH_NAME,
    run_flood_bench,
    run_kernel_bench,
)
from repro.bench.router import ROUTER_BENCH_NAME, run_router_bench
from repro.bench.shards import SHARDS_BENCH_NAME, run_shards_bench

__all__ = [
    "BASELINE_SCHEMA",
    "BENCH_SCHEMA",
    "BenchRecord",
    "Comparison",
    "FLOOD_BENCH_NAME",
    "KERNEL_BENCH_NAME",
    "KernelProbe",
    "KernelStats",
    "MICROBENCH_RUNNERS",
    "ROUTER_BENCH_NAME",
    "SHARDS_BENCH_NAME",
    "run_router_bench",
    "run_shards_bench",
    "bench_names",
    "compare_records",
    "load_baseline",
    "parse_regression",
    "profile_bench",
    "run_bench",
    "run_flood_bench",
    "run_kernel_bench",
    "write_baseline",
    "write_record",
]
