"""Unit tests for container pools, execution stops and runtimes."""

import numpy as np
import pytest

from repro.faas.broker import Broker
from repro.faas.config import FaaSConfig
from repro.faas.containers import ContainerPool
from repro.faas.functions import FunctionDef, FunctionRegistry
from repro.faas.invoker import Invoker
from repro.faas.messages import ActivationMessage
from repro.faas.runtime import ContainerRuntime, DockerRuntime, SingularityRuntime


class InstantRuntime(ContainerRuntime):
    """Deterministic runtime for tests."""

    def cold_start_delay(self) -> float:
        return 1.0

    def warm_start_delay(self) -> float:
        return 0.0


@pytest.fixture
def pool(env, rng):
    return ContainerPool(env, InstantRuntime(rng), capacity=2)


def run_acquire(env, pool, function):
    """Helper: take a container, wait out its cold start, release it.

    Returns ``(container, init)``: the cold start waited (0 for warm)."""
    taken = pool.take(function.name)
    assert taken is not None
    container, cold = taken
    init = 0.0
    if cold:
        init = pool.runtime.cold_start_delay()
        env.run(until=env.now + init)
        pool.started(container)
    pool.release(container)
    return {"container": container, "init": init}


def test_first_acquire_is_cold(env, pool):
    function = FunctionDef(name="f", duration=0.01)
    result = run_acquire(env, pool, function)
    assert result["init"] == 1.0
    assert pool.cold_starts == 1


def test_second_acquire_is_warm(env, pool):
    function = FunctionDef(name="f", duration=0.01)
    first = run_acquire(env, pool, function)
    result = run_acquire(env, pool, function)
    assert result["init"] == 0.0
    assert result["container"] is first["container"]
    assert pool.warm_hits == 1


def test_different_function_needs_new_container(env, pool):
    run_acquire(env, pool, FunctionDef(name="f1", duration=0.01))
    result = run_acquire(env, pool, FunctionDef(name="f2", duration=0.01))
    assert result["init"] == 1.0
    assert pool.cold_starts == 2
    assert pool.size == 2


def test_lru_eviction_when_full(env, rng):
    pool = ContainerPool(env, InstantRuntime(rng), capacity=2)
    run_acquire(env, pool, FunctionDef(name="f1", duration=0.01))
    run_acquire(env, pool, FunctionDef(name="f2", duration=0.01))
    run_acquire(env, pool, FunctionDef(name="f3", duration=0.01))
    assert pool.evictions == 1
    assert pool.size == 2
    functions = {c.function for c in pool._containers}
    assert "f1" not in functions  # least recently used got evicted


def test_acquire_waits_when_all_busy(env, rng):
    pool = ContainerPool(env, InstantRuntime(rng), capacity=1)
    held, cold = pool.take("f")
    assert cold
    assert pool.take("f") is None  # everything busy: no container now
    order = []
    waiter = pool.wait()
    waiter.callbacks.append(lambda _event: order.append(("woken", env.now)))
    env.run(until=10)
    assert order == []
    pool.release(held)
    env.run(until=11)
    assert order == [("woken", 10.0)]
    container, cold = pool.take("f")
    assert container is held and not cold
    assert pool.warm_hits == 1


def test_interrupted_waiter_withdraws(env, rng):
    pool = ContainerPool(env, InstantRuntime(rng), capacity=1)
    held, _ = pool.take("f")
    woken = []
    queued = pool.wait()
    queued.callbacks.append(woken.append)
    pool.withdraw(queued)  # still queued: leaves the FIFO
    assert not pool._waiters
    # A waiter the release already woke is cancelled instead.
    released = pool.wait()
    released.callbacks.append(woken.append)
    pool.release(held)
    pool.withdraw(released)
    env.run()
    assert woken == []
    assert not pool._waiters


def test_interrupted_cold_start_discards_container(env, rng):
    pool = ContainerPool(env, InstantRuntime(rng), capacity=2)
    container, cold = pool.take("f")
    assert cold and pool.size == 1
    pool.discard(container)  # cut short mid-cold-start
    assert pool.size == 0
    assert pool.cold_starts == 1


def test_destroy_all_clears_and_wakes(env, rng):
    pool = ContainerPool(env, InstantRuntime(rng), capacity=1)
    pool.take("f")
    waiter = pool.wait()
    pool.destroy_all()
    assert pool.size == 0
    assert waiter.triggered
    assert not pool._waiters


# ----------------------------------------------------------------------
# executions stopped in each phase leave the pool consistent
# ----------------------------------------------------------------------
class SlowWarmRuntime(InstantRuntime):
    """A 1 s cold start and a 0.5 s warm start."""

    def warm_start_delay(self) -> float:
        return 0.5


def one_slot_invoker(env, rng):
    registry = FunctionRegistry()
    registry.deploy(FunctionDef(name="f", duration=2.0))
    config = FaaSConfig(max_containers=1, system_overhead=0.0)
    return Invoker(
        env, "inv-1", "n0", Broker(env), registry,
        config=config, rng=rng, runtime=SlowWarmRuntime(rng),
    )


def accept(invoker, activation_id):
    invoker._accept(ActivationMessage(activation_id, "f", None, invoker.env.now))
    return invoker._executions.get(activation_id)


def test_stopping_a_warm_start_releases_the_container(env, rng):
    """A one-slot pool: an execution stopped during its warm start must
    hand the container back, or the next acquisition waits forever."""
    invoker = one_slot_invoker(env, rng)
    accept(invoker, "act-1")
    env.run(until=5.0)  # cold start 1 s, run 2 s: done, container warm
    assert invoker.stats.completed == 1
    warm = accept(invoker, "act-2")
    env.run(until=5.25)  # mid-warm-start
    warm.stop()
    assert invoker.pool.busy_count == 0
    del invoker._executions["act-2"]
    accept(invoker, "act-3")
    env.run(until=10.0)
    assert invoker.stats.completed == 2
    assert invoker.pool.warm_hits == 2
    assert invoker.pool.busy_count == 0


def test_stopping_a_cold_start_discards_and_a_waiter_withdraws(env, rng):
    invoker = one_slot_invoker(env, rng)
    cold = accept(invoker, "act-1")
    waiting = accept(invoker, "act-2")
    assert invoker.pool._waiters
    env.run(until=0.5)
    waiting.stop()
    cold.stop()
    assert not invoker.pool._waiters
    assert invoker.pool.size == 0
    env.run(until=10.0)
    assert invoker.stats.completed == 0


def test_stopping_a_run_releases_to_the_next_waiter(env, rng):
    invoker = one_slot_invoker(env, rng)
    running = accept(invoker, "act-1")
    accept(invoker, "act-2")
    env.run(until=2.0)  # act-1 runs from 1.0 to 3.0
    assert running.running
    running.stop()
    del invoker._executions["act-1"]
    env.run(until=10.0)  # act-2 takes the container warm and completes
    assert invoker.stats.completed == 1
    assert invoker.pool.warm_hits == 1
    assert invoker.pool.busy_count == 0


# ----------------------------------------------------------------------
# runtimes
# ----------------------------------------------------------------------
def test_singularity_is_hpc_compatible(rng):
    assert SingularityRuntime(rng).hpc_compatible()
    assert not DockerRuntime(rng).hpc_compatible()


def test_docker_has_full_isolation(rng):
    assert DockerRuntime(rng).capabilities.supports_full_isolation
    assert not SingularityRuntime(rng).capabilities.supports_full_isolation


def test_both_run_docker_images(rng):
    assert DockerRuntime(rng).capabilities.runs_docker_images
    assert SingularityRuntime(rng).capabilities.runs_docker_images


def test_cold_start_distributions(rng):
    docker = DockerRuntime(rng)
    singularity = SingularityRuntime(rng)
    docker_times = np.array([docker.cold_start_delay() for _ in range(2000)])
    singularity_times = np.array([singularity.cold_start_delay() for _ in range(2000)])
    # "usually in less than 500 milliseconds" for Docker
    assert np.median(docker_times) == pytest.approx(0.45, rel=0.1)
    # Singularity cold starts are modestly slower
    assert np.median(singularity_times) > np.median(docker_times)


def test_runtime_names(rng):
    assert DockerRuntime(rng).name == "docker"
    assert SingularityRuntime(rng).name == "singularity"
