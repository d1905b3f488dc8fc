"""Exact kernel work per invocation on a fixed-seed fib day.

Events and process spawns are deterministic for a seed, and identical
under both queue implementations, with or without the event pool.  So
they are pinned exactly: a change that adds kernel work to the
per-invocation control plane (say, a process per broker message, or a
timer per activation) fails here, not only in a wall-clock benchmark.
A change that removes work updates the numbers below.
"""

from repro.scenarios import REGISTRY, load_builtin
from repro.sim.core import KERNEL_TOTALS
from repro.sim.process import Process

#: a shrunk ``day`` at the paper's 10 req/s (see perf/run.py, day_fib)
PARAMS = dict(model="fib", nodes=24, hours=0.1, qps=10.0, no_load=False, plot=False, seed=317)
INVOCATIONS = 3592
#: ~13.4 events per invocation
EVENTS = 48055
#: ~1.92 spawns per invocation: the client's request and the invoker's
#: execution, none for transport or deadlines
SPAWNS = 6892


def test_fib_day_kernel_work_per_invocation_is_pinned(monkeypatch):
    load_builtin()
    spawns = [0]
    original = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawns[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = KERNEL_TOTALS.events_processed
    result = REGISTRY.run("day", PARAMS, scale="full")
    events = KERNEL_TOTALS.events_processed - before

    assert result.artifacts["result"].gatling.total == INVOCATIONS
    assert (events, spawns[0]) == (EVENTS, SPAWNS)
    assert events / INVOCATIONS < 14.0
    assert spawns[0] / INVOCATIONS < 2.0
