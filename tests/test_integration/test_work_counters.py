"""Exact kernel and cluster work, and exact results, on fixed-seed fib days.

Events, process spawns, scheduling passes and job starts are
deterministic for a seed, and identical under both queue
implementations, with or without the event pool.  So they are pinned
exactly: a change that adds kernel work to the per-invocation control
plane (say, a process per broker message or per request, or a timer per
activation), or that adds, skips or moves a backfill pass, fails here,
not only in a wall-clock benchmark.  A change that removes work updates
the numbers below.

Each day's accepted share, success share and median response are pinned
to the last bit as well.  These days are larger than the golden traces,
so a change that reorders same-instant events (and with them the draws
from a cluster's shared pilot RNG) fails here too, not only at scale.

A serving invoker's pings are a schedule the controller reads, not
kernel events, so an idle fleet's kernel work does not grow with its
size; the last test pins that.
"""

from repro.api import Stack, SupplySpec
from repro.cluster.backfill import BackfillScheduler
from repro.cluster.slurmctld import SlurmController
from repro.scenarios import REGISTRY, load_builtin
from repro.sim.core import KERNEL_TOTALS
from repro.sim.process import Process

#: a shrunk ``day`` at the paper's 10 req/s (see perf/run.py, day_fib)
PARAMS = dict(model="fib", nodes=24, hours=0.1, qps=10.0, no_load=False, plot=False, seed=317)
INVOCATIONS = 3592
#: ~5.7 events per invocation: the request's inject tick, two broker
#: messages, the invoker's wake-up, the warm start and the run, plus the
#: shared deadline timer
EVENTS = 20513
#: no spawn per invocation: requests, pulls and executions are kernel
#: callbacks; these are the pilots, the Slurm loops and the consumers
SPAWNS = 52
#: (accepted share, success share of accepted, median response seconds)
RESULTS = (0.8956013363028953, 1.0, 0.8024038546635381)


#: a shrunk ``harvest_300`` (see perf/run.py): 300 nodes at 0.5 req/s,
#: where the queue holds ~250 pinned prime jobs ahead of their begin times
HARVEST_PARAMS = dict(
    model="fib", nodes=300, hours=0.5, qps=0.5, no_load=False, plot=False, seed=321
)
HARVEST_INVOCATIONS = 900
HARVEST_EVENTS = 10161
HARVEST_SPAWNS = 604
HARVEST_RESULTS = (0.98, 1.0, 1.2621751482776062)
#: one BackfillScheduler.plan call per scheduling pass
HARVEST_PASSES = 481
HARVEST_STARTS = 560


def day_results(result):
    metrics = result.metrics
    return (
        metrics["accepted_share"],
        metrics["success_of_accepted_share"],
        metrics["median_response_s"],
    )


def count_calls(monkeypatch, cls, name):
    """Count calls of ``cls.name`` for the rest of the test."""
    calls = [0]
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_fib_day_kernel_work_per_invocation_is_pinned(monkeypatch):
    load_builtin()
    spawns = count_calls(monkeypatch, Process, "__init__")
    before = KERNEL_TOTALS.events_processed
    result = REGISTRY.run("day", PARAMS, scale="full")
    events = KERNEL_TOTALS.events_processed - before

    assert result.artifacts["result"].gatling.total == INVOCATIONS
    assert (events, spawns[0]) == (EVENTS, SPAWNS)
    assert events / INVOCATIONS < 6.0
    assert spawns[0] / INVOCATIONS < 0.05
    assert day_results(result) == RESULTS


def test_300_node_day_cluster_work_is_pinned(monkeypatch):
    load_builtin()
    spawns = count_calls(monkeypatch, Process, "__init__")
    passes = count_calls(monkeypatch, BackfillScheduler, "plan")
    starts = count_calls(monkeypatch, SlurmController, "_start_job")
    before = KERNEL_TOTALS.events_processed
    result = REGISTRY.run("day", HARVEST_PARAMS, scale="full")
    events = KERNEL_TOTALS.events_processed - before

    assert result.artifacts["result"].gatling.total == HARVEST_INVOCATIONS
    assert (passes[0], starts[0]) == (HARVEST_PASSES, HARVEST_STARTS)
    assert (events, spawns[0]) == (HARVEST_EVENTS, HARVEST_SPAWNS)
    assert day_results(result) == HARVEST_RESULTS


def idle_fleet_events(invokers, horizon):
    """Kernel events of a static fleet that serves no traffic."""
    stack = Stack(supply=SupplySpec("static", invokers=invokers), horizon=horizon)
    before = KERNEL_TOTALS.events_processed
    stack.run()
    return KERNEL_TOTALS.events_processed - before


def test_an_idle_serving_invoker_costs_no_kernel_events():
    growth = [
        idle_fleet_events(invokers, 600.0) - idle_fleet_events(invokers, 60.0)
        for invokers in (1, 3)
    ]
    # the cluster's scheduler loop and the controller's ping scanner
    assert growth[0] == growth[1] == 828
