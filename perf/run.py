#!/usr/bin/env python3
"""End-to-end benchmark of the HPC-Whisk reproduction, with per-layer attribution.

    python3 perf/run.py [--workload W] [--seed N] [--seconds S | --repeats N]
                        [--trace [0|1]] [--smoke] [--out DIR] [--src DIR]

Every pass of a workload runs in a fresh process whose working directory
is a scratch directory under ``--out``; the program is reached only
through ``REGISTRY.run``, ``repro serve`` and HTTP.  Passes repeat until
``--seconds`` of measuring is used up (or ``--repeats`` passes ran).  The
run checks every output, prints each metric by name with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics from untraced passes with ``--trace 0``, the
per-layer metrics from passes under cProfile with ``--trace 1``.

Exit status: 0 when every check holds, 1 when one fails (the JSON line is
still printed), 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import layers
import loadgen

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
CHILD = os.path.join(PERF_DIR, "child.py")

#: switches that select another variant of the program; the benchmark
#: measures the default one
STRIPPED_ENV = ("REPRO_QUEUE", "REPRO_POOL", "REPRO_COMPILED", "REPRO_VERIFY_METRICS", "REPRO_FULL")

#: a pass that takes longer than this has hung
PASS_TIMEOUT_S = 100.0

#: every outcome a simulated invocation may end with
OUTCOMES = ("SUCCESS", "UNAVAILABLE", "TIMEOUT", "FAILED")

#: largest gap between rejected share and outage share; 40 seeds of each
#: day workload stay within 0.004 (the outage log is sampled every 10 s)
OUTAGE_TOLERANCE = 0.01


def bands(**limits):
    """A check that each named scenario metric lies in its ``(low, high)`` band."""

    def check(metrics: Dict[str, float], params: Dict[str, object]) -> List[str]:
        failures = []
        for name, (low, high) in limits.items():
            value = metrics.get(name, math.nan)
            if not low <= value <= high:
                failures.append(f"{name} = {value:.4f} outside [{low}, {high}]")
        return failures

    return check


def day_checks(min_coverage: float):
    """Checks of one experiment day: coverage above a floor, and every
    rejection explained by an invoker outage.

    The Gatling client sends at a constant rate and the controller answers
    503 exactly while no invoker is healthy, so the rejected share must
    match the share of the day the OW-level log counts as outage.
    """
    coverage = bands(coverage=(min_coverage, 1.0))

    def check(metrics: Dict[str, float], params: Dict[str, object]) -> List[str]:
        failures = coverage(metrics, params)
        rejected = 1.0 - metrics["accepted_share"]
        outage = metrics["outage_total_s"] / (float(params["hours"]) * 3600.0)
        if abs(rejected - outage) > OUTAGE_TOLERANCE:
            failures.append(f"rejected share {rejected:.4f} but outage share {outage:.4f}")
        return failures

    return check


@dataclass(frozen=True)
class SimWorkload:
    """One registered scenario with every parameter pinned."""

    scenario: str
    params: Dict[str, object]
    seed: int
    smoke: Dict[str, object]
    check: Callable[[Dict[str, float], Dict[str, object]], List[str]]


@dataclass(frozen=True)
class LiveWorkload:
    """``repro serve`` under the benchmark's own HTTP client."""

    config: str
    speed: float
    functions: int
    rate: float
    open_requests: int
    closed_requests: int
    connections: int
    callers: int
    seed: int
    smoke: Dict[str, int]


# Every scenario parameter is pinned here, never taken from a scale
# preset, so that editing a preset cannot change a workload.  The checks
# hold for seeds 1-40 of each workload (see perf/README.md).
WORKLOADS = {
    # The Table II day at 128 nodes: 36k Gatling requests to 100 sleep
    # functions.  The kernel and the per-invocation control plane take 85%
    # of self time, so this is where sim and faas changes show.
    "day_fib": SimWorkload(
        scenario="day",
        params=dict(model="fib", nodes=128, hours=1.0, qps=10.0, no_load=False, plot=False),
        seed=317,
        smoke=dict(nodes=24, hours=0.1),
        check=day_checks(min_coverage=0.70),
    ),
    # The paper's 300-node cluster under light load: backfill planning over
    # prime jobs and pilots is half of self time.  The target of cluster
    # changes and the control of faas and kernel changes.  The fib supply
    # keeps the work steady across seeds, which the var supply does not.
    "harvest_300": SimWorkload(
        scenario="day",
        params=dict(model="fib", nodes=300, hours=2.0, qps=0.5, no_load=False, plot=False),
        seed=321,
        smoke=dict(nodes=48, hours=0.25),
        check=day_checks(min_coverage=0.75),
    ),
    # A two-cluster federation fed by the lazy streaming source, with a
    # flash crowd: the deepest event queue and the streaming workload layer.
    "stream_day": SimWorkload(
        scenario="stream_day",
        params=dict(nodes=96, edge_nodes=48, hours=0.25, qps=12.0, shards=0,
                    sync_window=60.0, azure_durations=False),
        seed=2027,
        smoke=dict(nodes=16, edge_nodes=8, hours=0.1, qps=4.0),
        check=bands(stream_accepted_share=(0.95, 1.0), coverage=(0.50, 1.0)),
    ),
    # repro serve over loopback HTTP at x1000: request parsing, the
    # asyncio-to-kernel bridge and wall-clock pacing around the same faas
    # objects.  An open loop of Poisson arrivals, then a closed loop.
    "live_http": LiveWorkload(
        config=os.path.join(PERF_DIR, "configs", "live_http.yaml"),
        speed=1000.0,
        functions=8,
        rate=300.0,
        open_requests=900,
        closed_requests=400,
        connections=2,
        callers=2,
        seed=7,
        smoke=dict(open_requests=150, closed_requests=50),
    ),
}

#: the reference loop's time (perf/child.py) on the reference host at full
#: speed.  That host's speed swings by up to 2x within minutes, so the
#: simulated workloads' times are reported at reference speed: measured
#: time x REFERENCE_S / the loop's median time in the same run.
REFERENCE_S = 0.030

#: live_http checks: generator lateness p99 limit and the no-backlog rule
LATE_P99_LIMIT_MS = 5.0
MIN_ACHIEVED_SHARE = 0.98

#: per-layer self time is reported for the layers every workload runs;
#: the others have a share and a call count only
TIMED_LAYERS = ("sim", "faas", "cluster", "workloads", "hpcwhisk", "supply", "analysis", "api")

#: per-pass raw values kept in result.json
SAMPLE_KEYS = ("latency_s", "setup_s", "reference_s", "closed_s", "server_cpu_s", "rss_mb")

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


class PassFailed(RuntimeError):
    """A pass crashed, hung, or its process exited non-zero."""


# ---------------------------------------------------------------------------
# context


@dataclass
class Context:
    out: str
    env: Dict[str, str]
    info: Dict[str, object]


def git_rev(root: str) -> str:
    """The checkout's revision; empty outside a git checkout (git is never
    asked to search above the checkout)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return ""
    proc = subprocess.run(
        ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else ""


def make_context(src: str, out: str) -> Context:
    os.makedirs(out, exist_ok=True)
    rev = git_rev(os.path.dirname(src))
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    store = os.path.join(out, "warehouse.sqlite")
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(store + suffix):
            os.remove(store + suffix)
    env.update(PYTHONPATH=src, REPRO_WAREHOUSE=store, REPRO_GIT_REV=rev)
    ctx = Context(out=out, env=env, info={
        "git_rev": rev or "none",
        "nproc": len(os.sched_getaffinity(0)),
    })
    scratch = os.path.join(out, "store-init")
    os.makedirs(scratch, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, CHILD, os.path.join(scratch, "out.json"), "store", store],
        cwd=scratch, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassFailed(f"cannot create the warehouse store:\n{proc.stderr}")
    return ctx


# ---------------------------------------------------------------------------
# passes


def child_command(pass_dir: str, profile: bool):
    """``(result path, command prefix)`` of a pass process in *pass_dir*."""
    out_json = os.path.join(pass_dir, "out.json")
    cmd = [sys.executable, CHILD, out_json]
    if profile:
        cmd += ["--profile", os.path.join(pass_dir, "pass.prof")]
    return out_json, cmd


def run_sim_pass(ctx: Context, wl: SimWorkload, params: dict, seed: int,
                 pass_dir: str, profile: bool, smoke: bool) -> dict:
    out_json, cmd = child_command(pass_dir, profile)
    spec = {"scenario": wl.scenario, "params": params, "seed": seed}
    cmd += ["sim", json.dumps(spec)]
    with open(os.path.join(pass_dir, "child.log"), "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, env=ctx.env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{wl.scenario} pass exceeded {PASS_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        with open(os.path.join(pass_dir, "child.log")) as log:
            raise PassFailed(f"{wl.scenario} pass exited {proc.returncode}:\n{log.read()[-4000:]}")
    with open(out_json) as handle:
        record = json.load(handle)

    outcomes = record["outcomes"]
    recorded = sum(outcomes.values())
    record["failed"] = abs(recorded - record["attempts"]) + sum(
        n for status, n in outcomes.items() if status not in OUTCOMES
    )
    record["checks"] = [] if smoke else wl.check(record["metrics"], params)
    if recorded != record["attempts"]:
        record["checks"].append(f"{recorded} outcomes for {record['attempts']} requests")
    unknown = sorted(set(outcomes) - set(OUTCOMES))
    if unknown:
        record["checks"].append(f"unknown outcome(s) {unknown}")
    record["success"] = outcomes.get("SUCCESS", 0)
    record["rejected"] = outcomes.get("UNAVAILABLE", 0)
    record["latency_s"] = record["wall_s"]
    return record


_PORT_LINE = re.compile(r"at http://[^:/\s]+:(\d+)")


def wait_port(log_path: str, proc: subprocess.Popen, deadline: float) -> int:
    """The port ``repro serve`` announces on its first stdout line."""
    while time.monotonic() < deadline:
        with open(log_path) as handle:
            match = _PORT_LINE.search(handle.read())
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise PassFailed("repro serve did not announce its port")


def proc_status(pid: int) -> Dict[str, float]:
    """Peak RSS (MB) and CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        hwm_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return {"rss_mb": hwm_kb / 1024.0, "cpu_s": ticks / os.sysconf("SC_CLK_TCK")}


def run_live_pass(ctx: Context, wl: LiveWorkload, params: dict, seed: int,
                  pass_dir: str, profile: bool, smoke: bool) -> dict:
    out_json, cmd = child_command(pass_dir, profile)
    cmd += ["serve", "--config", wl.config, "--port", "0", "--speed", f"{wl.speed:g}"]
    functions = [f"sleep-{i:03d}" for i in range(wl.functions)]
    log_path = os.path.join(pass_dir, "server.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=pass_dir, env=ctx.env, stdout=log, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30.0
            port = wait_port(log_path, proc, deadline)
            healthy = loadgen.wait_healthy(port, deadline)
            if healthy is None:
                raise PassFailed("repro serve never reported a healthy invoker")
            ready = proc_status(proc.pid)
            opened, closed = loadgen.run_loops(
                port, functions, seed, wl.rate, params["open_requests"],
                params["closed_requests"], wl.connections, wl.callers,
            )
            _status, stats = loadgen.call(port, "GET", "/stats")
            usage = proc_status(proc.pid)
            loadgen.call(port, "POST", "/shutdown")
            code = proc.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired) as error:
            raise PassFailed(f"live pass: {error}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(out_json):
        with open(log_path) as handle:
            raise PassFailed(f"repro serve exited {code}:\n{handle.read()[-4000:]}")
    with open(out_json) as handle:
        record = json.load(handle)

    tallies = (opened["tally"], closed["tally"])
    attempts = sum(t.attempts for t in tallies)
    ok = sum(t.ok for t in tallies)
    checks = []
    if ok != attempts:
        checks.append(f"{attempts - ok} of {attempts} requests failed "
                      f"(statuses {opened['tally'].statuses}, {sum(t.errors for t in tallies)} transport errors)")
    if opened["achieved_rps"] < MIN_ACHIEVED_SHARE * opened["offered_rps"]:
        checks.append(f"achieved {opened['achieved_rps']:.1f} req/s of {opened['offered_rps']:.1f} offered")
    record.update(
        setup_s=healthy - record["started_at"],
        latency_s=layers.percentiles(opened["latency"])["p50"],
        server_cpu_s=usage["cpu_s"] - ready["cpu_s"],
        attempts=attempts,
        success=ok,
        rejected=sum(t.statuses.get(503, 0) for t in tallies),
        failed=attempts - ok,
        checks=checks,
        latency=opened["latency"],
        late=opened["late"],
        conn_wait=opened["conn_wait"],
        closed_s=closed["elapsed_s"],
        closed_requests=params["closed_requests"],
        kernel_steps=stats.get("kernel_steps", 0),
        served=stats.get("requests_total", attempts),
        rss_mb=usage["rss_mb"],
    )
    return record


def run_passes(run_one: Callable[[int], dict], seconds: float, repeats: Optional[int]) -> List[dict]:
    """Passes until *repeats* ran, or until another would overrun *seconds*."""
    passes: List[dict] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_one(len(passes)))
        took = time.perf_counter() - begun
        if repeats is not None:
            if len(passes) >= repeats:
                return passes
        elif time.perf_counter() - started + took > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def host_speed(passes: List[dict]) -> float:
    """The run's host speed relative to the reference host (1 = as fast)."""
    return REFERENCE_S / layers.median(x for p in passes for x in p["reference_s"])


def end_to_end(passes: List[dict], live: bool) -> Dict[str, float]:
    """The end-to-end metrics, times scaled to the reference host's speed.

    HTTP latency is not scaled: it is mostly socket and wake-up time in
    two processes, which the interpreter-bound reference loop does not
    track (scaling it tripled its spread between runs).
    """
    attempts = sum(p["attempts"] for p in passes)
    speed = host_speed(passes)
    latency_s = layers.median(p["latency_s"] for p in passes)
    return {
        "latency_ms": latency_s * 1000.0 * (1.0 if live else speed),
        "setup_s": layers.median(p["setup_s"] for p in passes) * speed,
        "peak_rss_mb": layers.median(p["rss_mb"] for p in passes),
        "success_share": sum(p["success"] for p in passes) / attempts,
    }


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: List[dict], live: bool) -> Dict[str, Optional[float]]:
    """The per-layer metrics of a trace run: one untraced pass, then traced ones.

    Counts are medians over the traced passes, which for a simulated
    workload all read the same; times are per traced pass.
    """
    table = layers.merge_tables([p["layers"] for p in traced])
    n = len(traced)

    def count(name: str) -> Optional[float]:
        values = [p["counters"][name] for p in traced]
        return None if any(v is None for v in values) else layers.median(values)

    def kernel(name: str) -> float:
        return layers.median(p["kernel"][name] for p in traced)

    invocations = layers.median(p["attempts"] for p in traced)
    events = kernel("events")
    passes = count("passes")
    run_s = count("run_s")
    step_s = count("step_s")
    overhead_key = "closed_s" if live else "wall_s"
    metrics: Dict[str, Optional[float]] = {
        "sim.events": events,
        "sim.events_per_inv": _ratio(events, invocations),
        "sim.spawns_per_inv": _ratio(count("spawns"), invocations),
        "sim.reuse_ratio": _ratio(kernel("reused"), kernel("scheduled")),
        "sim.peak_queue": kernel("peak_queue"),
        "sim.run_s": None if run_s is None or step_s is None else run_s + step_s,
        "faas.invocations": invocations,
        "faas.publishes_per_inv": _ratio(count("publishes"), invocations),
        "faas.rejected_share": _ratio(layers.median(p["rejected"] for p in traced), invocations),
        "cluster.submits": count("submits"),
        "cluster.passes": passes,
        "cluster.starts_per_pass": _ratio(count("starts"), passes),
        "cluster.ms_per_pass": None if count("plan_s") is None else _ratio(count("plan_s") * 1000.0, passes),
        "hpcwhisk.pilot_submits": count("pilot_submits"),
        "api.build_s": count("build_s"),
        "trace.overhead": layers.median(p[overhead_key] for p in traced) / untraced[overhead_key],
    }
    for name in layers.LAYERS:
        if name in TIMED_LAYERS:
            metrics[f"{name}.self_s"] = table[name]["self_s"] / n
        metrics[f"{name}.share"] = table[name]["share"]
        metrics[f"{name}.calls_in"] = table[name]["calls_in"] / n
    return metrics


PER_LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_inv": "ratio", "sim.spawns_per_inv": "ratio",
    "sim.reuse_ratio": "ratio", "sim.peak_queue": "count", "sim.run_s": "s",
    "faas.invocations": "count", "faas.publishes_per_inv": "ratio",
    "faas.rejected_share": "ratio", "cluster.submits": "count", "cluster.passes": "count",
    "cluster.starts_per_pass": "ratio", "cluster.ms_per_pass": "ms",
    "hpcwhisk.pilot_submits": "count", "api.build_s": "s", "trace.overhead": "ratio",
}
for _name in layers.LAYERS:
    if _name in TIMED_LAYERS:
        PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_name}.share"] = "ratio"
    PER_LAYER_UNITS[f"{_name}.calls_in"] = "count"


def live_details(passes: List[dict]) -> Dict[str, tuple]:
    """The live tail and capacity numbers: printed, not gated."""
    requests = sum(p["served"] for p in passes)
    details = {}
    for label, key in (("", "latency"), ("late_", "late"), ("conn_wait_", "conn_wait")):
        stats = layers.percentiles(x * 1000.0 for p in passes for x in p[key])
        if not label:
            details["live.samples"] = (stats["n"], "count")
            details["live.p50_ms"] = (stats["p50"], "ms")
        if stats["tail_pct"] is not None:
            details[f"live.{label}p{stats['tail_pct']:g}_ms"] = (stats["tail"], "ms")
    return {
        **details,
        "live.capacity_rps": (layers.median(p["closed_requests"] / p["closed_s"] for p in passes), "1/s"),
        "live.server_cpu_ms_per_req": (sum(p["server_cpu_s"] for p in passes) * 1000.0 / requests, "ms"),
        "live.kernel_steps_per_req": (sum(p["kernel_steps"] for p in passes) / requests, "ratio"),
    }


def sim_details(passes: List[dict]) -> Dict[str, tuple]:
    """Simulated outputs of the pass (identical across passes of one seed)."""
    m = passes[0]["metrics"]
    details = {"requests": (passes[0]["attempts"], "count"),
               "kernel_events": (passes[0]["kernel"]["events"], "count")}
    for key in ("coverage", "accepted_share", "stream_accepted_share"):
        if key in m:
            details[key] = (m[key], "ratio")
    for key in ("median_response_s", "stream_p50_response_s"):
        if key in m:
            details["sim_response_p50_ms"] = (m[key] * 1000.0, "sim-ms")
    return details


# ---------------------------------------------------------------------------
# one workload, end to end


def measure(ctx: Context, name: str, seed: Optional[int], seconds: float,
            repeats: Optional[int], trace: bool, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    live = isinstance(wl, LiveWorkload)
    seed = wl.seed if seed is None else seed
    if live:
        params = {"open_requests": wl.open_requests, "closed_requests": wl.closed_requests}
    else:
        params = dict(wl.params)
    if smoke:
        params.update(wl.smoke)
    work_dir = os.path.join(ctx.out, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    run_pass = run_live_pass if live else run_sim_pass

    def one(label: str, profile: bool) -> Callable[[int], dict]:
        def go(index: int) -> dict:
            pass_dir = os.path.join(work_dir, f"{label}-{index}")
            os.makedirs(pass_dir)
            return run_pass(ctx, wl, params, seed, pass_dir, profile, smoke)
        return go

    started = time.perf_counter()
    if trace:
        untraced = one("untraced", False)(0)
        left = seconds - (time.perf_counter() - started)
        traced = run_passes(one("traced", True), left, repeats)
        passes = [untraced] + traced
        metrics = per_layer(untraced, traced, live)
        units = PER_LAYER_UNITS
        table = layers.merge_tables([p["layers"] for p in traced])
        with open(os.path.join(work_dir, "layers.txt"), "w") as handle:
            handle.write(layers.render_table(table, len(traced)) + "\n")
    else:
        passes = run_passes(one("pass", False), seconds, repeats)
        metrics = end_to_end(passes, live)
        units = END_TO_END_UNITS
        table = None
    untraced_passes = [untraced] if trace else passes
    details = live_details(untraced_passes) if live else sim_details(untraced_passes)
    details["host_speed"] = (host_speed(untraced_passes), "ratio")
    details["unscaled_latency_ms"] = (layers.median(p["latency_s"] for p in untraced_passes) * 1000.0, "ms")
    details["unscaled_setup_s"] = (layers.median(p["setup_s"] for p in untraced_passes), "s")
    checks = [msg for p in passes for msg in p["checks"]]
    if live and not smoke:
        late = sorted(x for p in untraced_passes for x in p["late"])
        late_p99 = layers.quantile(late, 0.99) * 1000.0
        if late_p99 >= LATE_P99_LIMIT_MS:
            checks.append(f"load generator p99 lateness {late_p99:.2f} ms >= {LATE_P99_LIMIT_MS} ms")
    result = {
        "workload": name,
        "seed": seed,
        "params": params,
        "passes": len(passes),
        "measured_s": time.perf_counter() - started,
        "program": passes[0]["program"],
        "attempted": sum(p["attempts"] for p in passes),
        "failed": sum(p["failed"] for p in passes) + len(checks),
        "checks": checks,
        "samples": [{k: p[k] for k in SAMPLE_KEYS if k in p} for p in passes],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "layers": table,
    }
    with open(os.path.join(work_dir, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    return result


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:.0f}" if isinstance(value, float) else str(value)


def report(result: dict, info: Dict[str, object]) -> None:
    program = dict(info, **result["program"])
    print(f"== {result['workload']}  seed {result['seed']}  passes {result['passes']}  "
          f"measured {result['measured_s']:.1f} s  "
          + "  ".join(f"{k}={v}" for k, v in program.items()))
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {fmt(entry['value']):>14} {entry['unit']}")
    for name, entry in result["details"].items():
        print(f"  ({name:<26} {fmt(entry['value']):>14} {entry['unit']})")
    if result["layers"] is not None:
        print("  " + layers.render_table(result["layers"], result["passes"] - 1).replace("\n", "\n  "))
    for message in result["checks"]:
        print(f"  CHECK FAILED: {message}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload (default: 20)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="run exactly this many passes instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from cProfile passes")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads, one pass each, no scenario checks")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perf_out"),
                        help="scratch directory for passes, profiles and the store")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the program's source tree (default: ./src)")
    args = parser.parse_args(argv)
    if args.smoke and args.repeats is None:
        args.repeats = 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so that every pass process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = os.path.realpath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perf: no program at {src}/repro", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        ctx = make_context(src, os.path.realpath(args.out))
        results = [
            measure(ctx, name, args.seed, args.seconds, args.repeats, bool(args.trace), args.smoke)
            for name in names
        ]
    except PassFailed as error:
        print(f"perf: {error}", file=sys.stderr)
        return 1
    for result in results:
        report(result, ctx.info)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
