"""Tests for benchmark records, baselines, and the regression gate."""

import json

import pytest

from repro.bench import (
    BenchRecord,
    bench_names,
    compare_records,
    load_baseline,
    parse_regression,
    run_bench,
    write_baseline,
    write_record,
)
from repro.bench.harness import BASELINE_SCHEMA, BENCH_SCHEMA
from repro.bench.instrument import KernelStats
from repro.bench.kernel import KERNEL_SCALES, run_kernel_bench


def _record(name, eps, kind="kernel"):
    return BenchRecord(
        name=name,
        kind=kind,
        preset="smoke",
        stats=KernelStats(
            events_processed=int(eps),
            events_scheduled=int(eps),
            peak_queue_depth=10,
            wall_time_s=1.0,
        ),
    )


def test_bench_names_lists_microbenches_and_all_scenarios():
    names = bench_names()
    assert names[:5] == ["kernel", "flood", "timeout-flood", "router", "shards"]
    assert "day" in names and "fig1" in names and "federation" in names
    assert "supply" in names and "supply_matrix" in names
    assert "stream_day" in names
    assert len(names) == 17


def test_router_microbench_smoke_runs_and_counts():
    from repro.bench.router import ROUTER_SCALES, run_router_bench

    stats = run_router_bench("smoke")
    scale = ROUTER_SCALES["smoke"]
    # every invocation produces several kernel events on the routing path
    assert stats.events_processed > scale.invocations
    assert stats.events_per_sec > 0
    with pytest.raises(KeyError):
        run_router_bench("huge")


def test_run_bench_router_records_kernel_kind():
    record = run_bench("router", preset="smoke")
    assert record.kind == "kernel"
    assert record.seed is None and record.metrics == {}


def test_kernel_microbench_smoke_counts():
    scale = KERNEL_SCALES["smoke"]
    stats = run_kernel_bench("smoke")
    # live events: everything scheduled except the cancelled half
    cancelled = scale.rounds * (scale.cancel_events // 2)
    assert stats.events_processed == scale.approx_events - cancelled
    assert stats.events_scheduled == scale.approx_events
    assert stats.peak_queue_depth >= scale.flood_events
    assert stats.events_per_sec > 0


def test_kernel_microbench_unknown_preset():
    with pytest.raises(KeyError):
        run_kernel_bench("huge")


def test_flood_microbench_smoke_counts():
    from repro.bench.kernel import FLOOD_SCALES, run_flood_bench

    scale = FLOOD_SCALES["smoke"]
    stats = run_flood_bench("smoke")
    # resident events all fire; half the tombstone events are cancelled
    live = scale.resident_events + scale.tombstone_events - scale.tombstone_events // 2
    assert stats.events_processed == scale.rounds * live == scale.approx_events
    # counter flushes land inside the drain windows, so every schedule counts
    assert stats.events_scheduled == scale.rounds * (
        scale.resident_events + scale.tombstone_events
    )
    assert stats.peak_queue_depth >= scale.resident_events
    assert stats.events_per_sec > 0
    with pytest.raises(KeyError):
        run_flood_bench("huge")


def test_timeout_flood_bench_reuses_the_pool():
    from repro.bench.kernel import WAVE_SCALES, run_timeout_flood_bench

    scale = WAVE_SCALES["smoke"]
    stats = run_timeout_flood_bench("smoke")
    assert stats.events_processed == scale.approx_events
    assert stats.events_scheduled == scale.approx_events
    # waves run on one environment: everything after the first wave is
    # served from the freelist, not the allocator
    assert stats.events_reused == (scale.waves - 1) * scale.wave_events
    assert stats.peak_queue_depth == scale.wave_events
    with pytest.raises(KeyError):
        run_timeout_flood_bench("huge")


def test_from_dict_defaults_events_reused_for_old_records():
    payload = _record("kernel", 1000).to_dict()
    del payload["events_reused"]  # records written before the pool landed
    assert BenchRecord.from_dict(payload).stats.events_reused == 0


def test_profile_bench_reports_hotspots():
    from repro.bench import profile_bench

    report = profile_bench("kernel", preset="smoke", top=5)
    assert "cumtime" in report and "tottime" in report
    # the kernel run loop must show up among the top entries
    assert "run" in report
    with pytest.raises(ValueError):
        profile_bench("kernel", preset="smoke", top=0)
    with pytest.raises(KeyError):
        profile_bench("warp-drive", preset="smoke")


def test_run_bench_scenario_records_metrics_and_seed(tmp_path):
    record = run_bench("fig3", preset="smoke")
    assert record.kind == "scenario"
    assert record.seed == 7
    assert record.metrics  # fig3's flat metrics came through
    assert record.stats.events_processed > 0

    path = write_record(record, str(tmp_path))
    assert path.endswith("BENCH_fig3.json")
    payload = json.loads(open(path).read())
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["name"] == "fig3"
    assert BenchRecord.from_dict(payload).metrics == dict(record.metrics)


def test_run_bench_unknown_name():
    with pytest.raises(KeyError):
        run_bench("nope", preset="smoke")
    with pytest.raises(ValueError):
        run_bench("kernel", repeats=0)


def test_record_roundtrip_preserves_events_per_sec():
    record = _record("kernel", 1000)
    clone = BenchRecord.from_dict(record.to_dict())
    assert clone == record
    assert clone.events_per_sec == pytest.approx(1000.0)


def test_from_dict_rejects_wrong_schema():
    bad = _record("kernel", 10).to_dict()
    bad["schema"] = "other/9"
    with pytest.raises(ValueError):
        BenchRecord.from_dict(bad)


def test_baseline_roundtrip(tmp_path):
    records = [_record("kernel", 1000), _record("day", 500, kind="scenario")]
    path = str(tmp_path / "BENCH_baseline.json")
    write_baseline(records, path, preset="smoke", notes={"host": "test"})
    payload = json.loads(open(path).read())
    assert payload["schema"] == BASELINE_SCHEMA
    assert payload["notes"] == {"host": "test"}

    loaded = load_baseline(path)
    assert set(loaded) == {"kernel", "day"}
    assert loaded["kernel"] == records[0]


def test_load_single_record_as_baseline(tmp_path):
    path = write_record(_record("kernel", 1000), str(tmp_path))
    loaded = load_baseline(path)
    assert set(loaded) == {"kernel"}


def test_load_baseline_rejects_unknown_schema(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"schema": "???"}')
    with pytest.raises(ValueError):
        load_baseline(str(path))


@pytest.mark.parametrize(
    "token,expected",
    [("10%", 0.10), ("2.5%", 0.025), ("0.1", 0.001), ("25", 0.25),
     ("1.5", 0.015), ("1", 0.01), ("0.5", 0.005), ("0", 0.0)],
)
def test_parse_regression(token, expected):
    assert parse_regression(token) == pytest.approx(expected)


@pytest.mark.parametrize("token", ["150%", "-5%", "150", "nope"])
def test_parse_regression_rejects(token):
    with pytest.raises(ValueError):
        parse_regression(token)


def test_compare_records_flags_only_true_regressions():
    current = {
        "kernel": _record("kernel", 950),   # -5%: inside tolerance
        "day": _record("day", 500),         # -50%: regressed
        "fresh": _record("fresh", 100),     # not in baseline: skipped
    }
    baseline = {
        "kernel": _record("kernel", 1000),
        "day": _record("day", 1000),
        "gone": _record("gone", 1000),      # not run now: skipped
    }
    comparisons = compare_records(current, baseline, max_regression=0.10)
    verdicts = {c.name: c.regressed for c in comparisons}
    assert verdicts == {"kernel": False, "day": True}
    deltas = {c.name: c.delta for c in comparisons}
    assert deltas["kernel"] == pytest.approx(-0.05)
    assert deltas["day"] == pytest.approx(-0.50)


def test_compare_records_rejects_preset_mismatch():
    current = {"kernel": _record("kernel", 900)}
    baseline = {"kernel": _record("kernel", 1000)}
    object.__setattr__(baseline["kernel"], "preset", "quick")
    with pytest.raises(ValueError):
        compare_records(current, baseline, max_regression=0.10)
