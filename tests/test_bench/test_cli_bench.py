"""End-to-end tests of the ``repro bench`` subcommand."""

import json

import pytest

from repro.bench import load_baseline
from repro.cli import main


def test_bench_kernel_writes_artifact(tmp_path, capsys):
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(tmp_path),
    ]) == 0
    artifact = tmp_path / "BENCH_kernel.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == "repro-bench/1"
    assert payload["events_per_sec"] > 0
    assert "kernel" in capsys.readouterr().out


def test_bench_default_runs_microbenches_plus_every_scenario(tmp_path, capsys):
    """The acceptance path: microbench artifacts + one file per scenario."""
    assert main(["bench", "--preset", "smoke", "--out-dir", str(tmp_path)]) == 0
    written = {path.name for path in tmp_path.glob("BENCH_*.json")}
    assert "BENCH_kernel.json" in written
    assert "BENCH_flood.json" in written
    assert "BENCH_timeout-flood.json" in written
    assert "BENCH_router.json" in written
    assert "BENCH_shards.json" in written
    for name in ("fig1", "fig2", "fig3", "table1", "day", "fig7",
                 "optimize", "longterm", "federation", "supply",
                 "supply_matrix", "stream_day"):
        assert f"BENCH_{name}.json" in written
    assert len(written) == 17


def test_bench_against_passing_baseline(tmp_path):
    out = tmp_path / "out"
    baseline = tmp_path / "BENCH_baseline.json"
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--write-baseline", str(baseline),
    ]) == 0
    assert set(load_baseline(str(baseline))) == {"kernel"}
    # comparing a fresh run against its own just-written baseline with a
    # generous threshold must pass
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--against", str(baseline), "--max-regression", "90%",
    ]) == 0


def test_bench_against_detects_regression(tmp_path, capsys):
    out = tmp_path / "out"
    baseline = tmp_path / "BENCH_baseline.json"
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--write-baseline", str(baseline),
    ]) == 0
    payload = json.loads(baseline.read_text())
    entry = payload["entries"]["kernel"]
    entry["wall_time_s"] /= 100.0  # pretend the baseline was 100x faster
    baseline.write_text(json.dumps(payload))

    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--against", str(baseline), "--max-regression", "10%",
    ]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_bench_profile_prints_hotspots_and_writes_nothing(tmp_path, capsys):
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(tmp_path),
        "--profile", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "=== profile: kernel" in out
    assert "tottime" in out
    # profiling replaces the measurement run: no artifacts are written
    assert list(tmp_path.glob("BENCH_*.json")) == []


def test_bench_profile_bad_top_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "kernel", "--out-dir", str(tmp_path),
              "--profile", "0"])


def test_bench_unknown_name_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "warp-drive", "--out-dir", str(tmp_path)])


def test_bench_bad_threshold_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "kernel", "--out-dir", str(tmp_path),
              "--max-regression", "200%"])


def test_bench_gate_fails_when_nothing_compared(tmp_path, capsys):
    baseline = tmp_path / "BENCH_baseline.json"
    out = tmp_path / "out"
    assert main([
        "bench", "fig3", "--preset", "smoke", "--out-dir", str(out),
        "--write-baseline", str(baseline),
    ]) == 0
    # gate a run whose benchmarks share no names with the baseline
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--against", str(baseline),
    ]) == 1
    assert "compared nothing" in capsys.readouterr().err


def test_bench_against_preset_mismatch_is_a_usage_error(tmp_path):
    baseline = tmp_path / "BENCH_baseline.json"
    out = tmp_path / "out"
    assert main([
        "bench", "kernel", "--preset", "smoke", "--out-dir", str(out),
        "--write-baseline", str(baseline),
    ]) == 0
    with pytest.raises(SystemExit):
        main(["bench", "kernel", "--preset", "quick", "--out-dir", str(out),
              "--against", str(baseline)])
