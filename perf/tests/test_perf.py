"""Tests of the end-to-end benchmark: a shrunk run of every workload, the
attribution arithmetic, and the statistics helpers.

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

import layers
import run

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)

#: counters that must repeat exactly for a simulated workload and seed
EXACT = ("sim.events", "sim.spawns_per_inv", "faas.publishes_per_inv",
         "cluster.passes", "hpcwhisk.pilot_submits")
SIMULATED = [name for name, wl in run.WORKLOADS.items() if isinstance(wl, run.SimWorkload)]


def smoke(out_dir, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--smoke", "--trace", str(trace),
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), trace=1)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def test_smoke_untraced_reports_every_end_to_end_metric(tmp_path):
    result, _took = smoke(tmp_path, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}": unit for w in run.WORKLOADS for m, unit in declared("end_to_end").items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_reports_every_per_layer_metric_quickly(traced):
    result, took = traced
    assert result["correct"]
    expected = {f"{w}.{m}": unit for w in run.WORKLOADS for m, unit in declared("per_layer").items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert took < 60.0
    shares = [result["metrics"][f"day_fib.{name}.share"]["value"] for name in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)


def test_exact_counters_repeat(traced, tmp_path):
    first, _ = traced
    second, _ = smoke(tmp_path, trace=1)
    for workload in SIMULATED:
        for name in EXACT:
            key = f"{workload}.{name}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_program_missing_exits_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", "day_fib",
         "--src", str(tmp_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# attribution on a synthetic profile

PKG = "/x/src/repro"
ROOT_FN = ("/x/perf/child.py", 1, "main")
RUN = (PKG + "/sim/core.py", 10, "run")
PUBLISH = (PKG + "/faas/broker.py", 5, "publish")
SUCCEED = (PKG + "/sim/events.py", 3, "succeed")
SORTED = ("~", 0, "<built-in method builtins.sorted>")
MERGE = ("/usr/lib/python3.11/heapq.py", 1, "merge")
WALK = ("/usr/lib/python3.11/heapq.py", 9, "walk")
POLL = ("~", 0, "<method 'poll' of 'select.epoll' objects>")
IMPORT = ("<frozen importlib._bootstrap>", 1, "_find_and_load")


def synthetic_stats():
    """key -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})."""
    return {
        ROOT_FN: (1, 1, 0.5, 9.0, {}),
        RUN: (1, 1, 2.0, 5.0, {ROOT_FN: (1, 1, 2.0, 5.0)}),
        PUBLISH: (3, 3, 1.0, 2.5, {RUN: (3, 3, 1.0, 2.5)}),
        # a builtin is charged to its callers by the time each incurred
        SORTED: (4, 4, 0.8, 0.8, {RUN: (1, 1, 0.2, 0.2), PUBLISH: (3, 3, 0.6, 0.6)}),
        # stdlib code called by faas, which calls back into sim
        MERGE: (1, 1, 0.4, 0.7, {PUBLISH: (1, 1, 0.4, 0.7)}),
        SUCCEED: (2, 2, 0.3, 0.3, {MERGE: (2, 2, 0.3, 0.3)}),
        # recursive stdlib code: the self-edge must not hide the real caller
        WALK: (5, 1, 0.1, 0.1, {WALK: (4, 4, 0.08, 0.08), MERGE: (1, 1, 0.02, 0.1)}),
        POLL: (5, 5, 3.0, 3.0, {ROOT_FN: (5, 5, 3.0, 3.0)}),
        IMPORT: (1, 1, 0.25, 0.25, {ROOT_FN: (1, 1, 0.25, 0.25)}),
    }


def test_attribution_charges_builtin_time_to_its_callers():
    table = layers.attribute(synthetic_stats(), PKG)
    assert table["sim"]["self_s"] == pytest.approx(2.0 + 0.2 + 0.3)
    assert table["faas"]["self_s"] == pytest.approx(1.0 + 0.6 + 0.4 + 0.1)
    assert table["other"]["self_s"] == pytest.approx(0.5)
    assert table["idle"]["self_s"] == pytest.approx(3.0)
    assert table["import"]["self_s"] == pytest.approx(0.25)
    busy = 2.5 + 2.1
    assert table["sim"]["share"] == pytest.approx(2.5 / busy)
    assert table["faas"]["share"] == pytest.approx(2.1 / busy)
    assert sum(table[name]["share"] for name in layers.LAYERS) == pytest.approx(1.0)
    # one call in from the harness, two from stdlib code that faas called
    assert table["sim"]["calls_in"] == 3
    assert table["faas"]["calls_in"] == 3


def test_layer_of_file_maps_entry_modules_to_api():
    assert layers.layer_of_file(PKG + "/cluster/backfill.py", PKG) == "cluster"
    assert layers.layer_of_file(PKG + "/cli.py", PKG) == "api"
    assert layers.layer_of_file(PKG + "/experiments/day.py", PKG) == "api"
    assert layers.layer_of_file("/x/src/other/sim/core.py", PKG) is None
    assert layers.owner_of_file("/usr/lib/python3.11/asyncio/base_events.py", PKG) == "live"


def test_missing_counter_target_reports_null(capsys):
    stats = synthetic_stats()
    assert layers.counter(stats, "repro.sim.core:Environment.no_such_method") is None
    assert layers.counter(stats, "repro.no_such_module:anything") is None
    assert "not found" in capsys.readouterr().err
    # a counter that exists but was never called reads zero, not null
    assert layers.counter(stats, "repro.sim.core:Environment.run") == 0.0


def test_null_counter_propagates_without_failing():
    table = layers.attribute(synthetic_stats(), PKG)
    counters = {name: 1.0 for name in ("spawns", "passes", "plan_s", "submits",
                                       "pilot_submits", "starts", "build_s", "run_s", "step_s")}
    counters["publishes"] = None
    traced = {"layers": table, "counters": counters, "attempts": 10, "rejected": 0,
              "wall_s": 2.0, "kernel": {"events": 100, "scheduled": 90, "reused": 45, "peak_queue": 7}}
    metrics = run.per_layer(dict(traced, wall_s=1.0), [traced], live=False)
    assert metrics["faas.publishes_per_inv"] is None
    assert metrics["sim.spawns_per_inv"] == pytest.approx(0.1)
    assert metrics["trace.overhead"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# statistics


def test_percentiles_report_median_and_highest_supported_tail():
    out = layers.percentiles(range(1000))
    assert out["n"] == 1000
    assert out["p50"] == pytest.approx(499.5)
    assert out["tail_pct"] == 99.0
    assert out["tail"] == pytest.approx(989.01)
    assert layers.percentiles(range(10000))["tail_pct"] == 99.9
    assert layers.percentiles(range(100))["tail_pct"] == 90.0
    few = layers.percentiles([3.0, 1.0, 2.0])
    assert few["n"] == 3 and few["p50"] == 2.0 and few["tail_pct"] is None


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert layers.quartiles(values) == tuple(statistics.quantiles(values, n=4))
