"""Tests for the Gatling-like load client."""

import numpy as np
import pytest

from repro.faas.activation import ActivationResult, ActivationStatus
from repro.workloads.gatling import GatlingClient, GatlingReport, RequestOutcome


class ScriptedTarget:
    """A fake invocation target with scripted outcomes."""

    def __init__(self, env, script):
        self.env = env
        self.script = script  # list of (status, response_time)
        self.calls = 0

    def submit(self, function, on_result, params=None, duration=None):
        status, response_time = self.script[self.calls % len(self.script)]
        self.calls += 1
        result = ActivationResult(
            activation_id=f"a{self.calls}",
            function=function,
            status=status,
            response_time=response_time,
        )
        self.env.timeout(response_time).callbacks.append(lambda _event: on_result(result))


def test_constant_rate_injection(env):
    target = ScriptedTarget(env, [(ActivationStatus.SUCCESS, 0.05)])
    client = GatlingClient(env, target, ["f"], rate_per_second=10.0)
    client.start(horizon=60.0)
    env.run(until=70.0)
    assert client.report.total == pytest.approx(600, abs=2)
    first = client.report.outcomes[0]
    assert (first.submitted_at, first.response_time) == (0.0, 0.05)


def test_round_robin_over_functions(env):
    target = ScriptedTarget(env, [(ActivationStatus.SUCCESS, 0.01)])
    functions = [f"f{i}" for i in range(5)]
    client = GatlingClient(env, target, functions, rate_per_second=5.0)
    client.start(horizon=10.0)
    env.run(until=20.0)
    seen = {o.function for o in client.report.outcomes}
    assert seen == set(functions)


def test_report_shares():
    report = GatlingReport(
        outcomes=[
            RequestOutcome(0.0, "f", ActivationStatus.SUCCESS, 0.5),
            RequestOutcome(1.0, "f", ActivationStatus.SUCCESS, 0.7),
            RequestOutcome(2.0, "f", ActivationStatus.FAILED, 0.2),
            RequestOutcome(3.0, "f", ActivationStatus.UNAVAILABLE, 0.0),
            RequestOutcome(4.0, "f", ActivationStatus.TIMEOUT, 60.0),
        ]
    )
    assert report.total == 5
    assert report.invoked_share == pytest.approx(0.8)
    assert report.success_share_of_invoked == pytest.approx(0.5)
    assert report.count(ActivationStatus.TIMEOUT) == 1


def test_report_percentiles_successful_only():
    report = GatlingReport(
        outcomes=[
            RequestOutcome(0.0, "f", ActivationStatus.SUCCESS, 1.0),
            RequestOutcome(0.0, "f", ActivationStatus.SUCCESS, 3.0),
            RequestOutcome(0.0, "f", ActivationStatus.TIMEOUT, 60.0),
        ]
    )
    assert report.response_time_percentile(50) == pytest.approx(2.0)
    assert report.response_time_percentile(50, successful_only=False) == pytest.approx(3.0)


def test_per_minute_binning():
    report = GatlingReport(
        outcomes=[
            RequestOutcome(10.0, "f", ActivationStatus.SUCCESS, 0.1),
            RequestOutcome(65.0, "f", ActivationStatus.FAILED, 0.1),
            RequestOutcome(66.0, "f", ActivationStatus.TIMEOUT, 0.1),
            RequestOutcome(130.0, "f", ActivationStatus.UNAVAILABLE, 0.0),
        ]
    )
    series = report.per_minute(horizon=180.0)
    assert list(series["successful"]) == [1, 0, 0]
    assert list(series["failed"]) == [0, 1, 0]
    assert list(series["lost"]) == [0, 1, 0]
    assert list(series["rejected"]) == [0, 0, 1]


def test_per_minute_uses_recorded_run_horizon():
    """Regression: a run whose tail has no submissions must still bin
    every minute of the horizon — the ``run_horizon`` stamped at
    injection start wins over the last-submission fallback, which used
    to silently drop trailing quiet minutes."""
    report = GatlingReport(
        outcomes=[RequestOutcome(10.0, "f", ActivationStatus.SUCCESS, 0.1)],
        run_horizon=300.0,
    )
    series = report.per_minute()
    assert list(series["successful"]) == [1, 0, 0, 0, 0]
    # an explicit horizon argument still overrides the stamped one
    assert len(report.per_minute(horizon=120.0)["successful"]) == 2


def test_per_minute_fallback_without_horizon_stops_at_last_submission():
    report = GatlingReport(
        outcomes=[RequestOutcome(10.0, "f", ActivationStatus.SUCCESS, 0.1)]
    )
    assert list(report.per_minute()["successful"]) == [1]


def test_per_minute_empty_report_with_horizon_is_all_zero_bins():
    report = GatlingReport(run_horizon=120.0)
    series = report.per_minute()
    assert list(series["successful"]) == [0, 0]
    assert list(series["rejected"]) == [0, 0]


def test_client_stamps_run_horizon(env):
    target = ScriptedTarget(env, [(ActivationStatus.SUCCESS, 0.01)])
    client = GatlingClient(env, target, ["f"], rate_per_second=1.0)
    client.start(horizon=240.0)
    env.run(until=300.0)
    assert client.report.run_horizon == 240.0
    assert len(client.report.per_minute()["successful"]) == 4


def test_empty_report():
    report = GatlingReport()
    assert report.invoked_share == 0.0
    assert report.success_share_of_invoked == 0.0
    assert np.isnan(report.response_time_percentile(50))


def test_validation(env):
    target = ScriptedTarget(env, [(ActivationStatus.SUCCESS, 0.1)])
    with pytest.raises(ValueError):
        GatlingClient(env, target, ["f"], rate_per_second=0.0)
    with pytest.raises(ValueError):
        GatlingClient(env, target, [], rate_per_second=1.0)
