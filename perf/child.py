"""One pass of a benchmark workload, in a process of its own.

    python perf/child.py OUT.json [--profile OUT.prof] sim SPEC_JSON
    python perf/child.py OUT.json [--profile OUT.prof] serve SERVE_ARG...
    python perf/child.py OUT.json store PATH

``sim`` runs one registered scenario through ``REGISTRY.run`` with the
scenario, parameters and seed in SPEC_JSON.  ``serve`` runs ``repro
serve`` through ``repro.cli.main`` until a client shuts it down over HTTP.
``store`` creates the results warehouse at PATH, so that measured passes
write into an existing store.  Every pass writes OUT.json: set-up and wall
time, peak RSS, the kernel's work counters, the outcome of every
invocation, the timings of a fixed reference loop run before and after
the measured work and, with ``--profile``, the per-layer table and the
named counters of a cProfile run of all the work in between.
"""

import cProfile
import heapq
import json
import os
import resource
import sys
import time


#: named counters read from the profile: metric -> (target, field, caller layer)
PROFILE_COUNTERS = {
    "spawns": ("repro.sim.process:Process.__init__", "calls", None),
    "publishes": ("repro.faas.broker:Broker.publish", "calls", None),
    "passes": ("repro.cluster.backfill:BackfillScheduler.plan", "calls", None),
    "plan_s": ("repro.cluster.backfill:BackfillScheduler.plan", "cumtime", None),
    "submits": ("repro.cluster.slurmctld:SlurmController.submit", "calls", None),
    "pilot_submits": ("repro.cluster.slurmctld:SlurmController.submit", "calls", "hpcwhisk"),
    "starts": ("repro.cluster.slurmctld:SlurmController._start_job", "calls", None),
    "build_s": ("repro.api.stack:Stack.build", "cumtime", None),
    "run_s": ("repro.sim.core:Environment.run", "cumtime", None),
    "step_s": ("repro.sim.core:Environment.step", "cumtime", None),
}


#: repetitions of the reference loop before and after the measured work
REFERENCE_REPEATS = 3


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter workload that shares no code
    with the program: slotted objects, generator sends, heap and dict
    operations, the same mix the simulation kernel runs on."""

    class Entry:
        __slots__ = ("key", "resume")

        def __init__(self, key, resume):
            self.key = key
            self.resume = resume

    def process():
        value = 0
        while True:
            value = yield value + 1

    started = time.perf_counter()
    generator = process()
    next(generator)
    heap, table, total = [], {}, 0
    for i in range(30000):
        entry = Entry((i * 7919) % 10007, generator.send)
        heapq.heappush(heap, (entry.key, i, entry))
        table[i & 1023] = entry
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].resume(i)
    return time.perf_counter() - started


def run_sim(spec, began):
    """One scenario call; returns the pass record without process totals.

    Set-up time counts from *began* (``time.monotonic``) to the first
    ``Environment.run`` entry.
    """
    from repro.scenarios import REGISTRY, load_builtin
    from repro.sim import core

    load_builtin()
    entered = []
    original = core.Environment.run

    def run(self, until=None):
        if not entered:
            entered.append(time.monotonic())
        return original(self, until)

    core.Environment.run = run
    started = time.monotonic()
    result = REGISTRY.run(spec["scenario"], dict(spec["params"], seed=spec["seed"]), scale="full")
    wall = time.monotonic() - started
    core.Environment.run = original
    if not entered:
        print("perf: Environment.run was never entered; set-up ends at the scenario call",
              file=sys.stderr)
        entered.append(started)

    total, outcomes = outcome_counts(result)
    return {
        "setup_s": entered[0] - began,
        "wall_s": wall,
        "attempts": total,
        "outcomes": outcomes,
        "metrics": {k: v for k, v in result.metrics.items() if isinstance(v, (int, float))},
    }


def outcome_counts(result):
    """``(recorded requests, {status: count})`` from a scenario's client report."""
    day = result.artifacts.get("result")
    gatling = getattr(day, "gatling", None)
    if gatling is not None:
        counts = {}
        for outcome in gatling.outcomes:
            counts[outcome.status.name] = counts.get(outcome.status.name, 0) + 1
        return gatling.total, counts
    report = result.artifacts.get("report")
    stream = getattr(report, "artifacts", {}).get("stream-report")
    if stream is not None:
        return stream.total, dict(stream.by_status)
    raise SystemExit("perf: the scenario result carries no client report")


def program_info():
    """The program variant this pass measured (kernel queue and loop)."""
    from repro.sim import core, queue

    resolve = getattr(queue, "resolve_queue", None)
    if resolve is None:
        kind = "unknown"
    else:
        impl, degrade = resolve(None)
        kind = impl + ("+degrade" if degrade else "")
    return {
        "python": sys.version.split()[0],
        "queue": kind,
        "compiled_loop": bool(getattr(core, "COMPILED_LOOP", False)),
    }


def kernel_totals():
    from repro.sim.core import KERNEL_TOTALS

    return {
        "events": KERNEL_TOTALS.events_processed,
        "scheduled": KERNEL_TOTALS.events_scheduled,
        "reused": KERNEL_TOTALS.events_reused,
        "peak_queue": KERNEL_TOTALS.peak_queue_depth,
    }


def profile_summary(profiler, prof_path):
    import pstats

    import layers
    import repro

    profiler.dump_stats(prof_path)
    stats = pstats.Stats(profiler).stats
    package_dir = os.path.dirname(repro.__file__)
    counters = {
        name: layers.counter(stats, target, field, caller, package_dir)
        for name, (target, field, caller) in PROFILE_COUNTERS.items()
    }
    return {"layers": layers.attribute(stats, package_dir), "counters": counters}


def main(argv):
    out_path, argv = argv[0], argv[1:]
    if argv[0] == "store":
        from repro.warehouse.store import RunStore

        RunStore(argv[1]).close()
        return 0
    prof_path = None
    if argv[0] == "--profile":
        prof_path, argv = argv[1], argv[2:]
    reference = [reference_loop() for _ in range(REFERENCE_REPEATS)]
    # The parent reads this stamp too: monotonic time is shared across processes.
    started_at = time.monotonic()
    profiler = None
    if prof_path:
        profiler = cProfile.Profile()
        profiler.enable()

    code = 0
    if argv[0] == "sim":
        record = run_sim(json.loads(argv[1]), started_at)
    elif argv[0] == "serve":
        from repro.cli import main as cli_main

        code = cli_main(["serve", *argv[1:]])
        record = {}
    else:
        raise SystemExit(f"perf: unknown pass kind {argv[0]!r}")

    if profiler is not None:
        profiler.disable()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(
        rss_mb=usage.ru_maxrss / 1024.0,
        started_at=started_at,
        reference_s=reference + [reference_loop() for _ in range(REFERENCE_REPEATS)],
        kernel=kernel_totals(),
        program=program_info(),
    )
    if profiler is not None:
        record.update(profile_summary(profiler, prof_path))
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
