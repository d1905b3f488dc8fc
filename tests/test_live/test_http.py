"""LiveServer: the stdlib HTTP transport over a loopback port."""

from __future__ import annotations

import asyncio

import pytest

from repro.api.stack import Stack, SupplySpec, WorkloadSpec
from repro.live.http import LiveServer, http_request
from repro.live.service import LiveControlPlane

SPEED = 200.0


def _stack() -> Stack:
    return Stack(
        name="live-http",
        supply=SupplySpec("static", invokers=2),
        workloads=(
            WorkloadSpec(
                "faas-stream", functions=4, duration=0.05, azure_durations=False
            ),
        ),
        seed=13,
        horizon=60.0,
    )


def _with_server(probe):
    """Start a loopback server, run ``await probe(host, port)``, stop."""

    async def main():
        service = LiveControlPlane(_stack(), speed=SPEED)
        server = LiveServer(service, host="127.0.0.1", port=0)
        host, port = await server.start()
        try:
            return await probe(host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


def test_healthz_reports_fleet():
    async def probe(host, port):
        return await http_request(host, port, "GET", "/healthz")

    status, payload = _with_server(probe)
    assert status == 200
    assert payload["ok"] is True
    assert payload["healthy_invokers"] == 2
    assert payload["accepting"] is True


def test_invoke_roundtrip_success():
    async def probe(host, port):
        return await http_request(
            host, port, "POST", "/invoke/sleep-000", {"duration": 0.05}
        )

    status, payload = _with_server(probe)
    assert status == 200
    assert payload["status"] == "success"
    assert payload["function"] == "sleep-000"
    assert payload["response_time"] > 0.0
    assert payload["activation_id"]


def test_invoke_unknown_function_404():
    async def probe(host, port):
        return await http_request(host, port, "POST", "/invoke/missing", {})

    status, payload = _with_server(probe)
    assert status == 404
    assert payload["status"] == "failed"
    assert "not deployed" in payload["error"]


def test_invoke_bad_body_400():
    async def probe(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        body = b"this is not json"
        writer.write(
            b"POST /invoke/sleep-000 HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw

    raw = _with_server(probe)
    assert raw.startswith(b"HTTP/1.1 400 ")


@pytest.mark.parametrize("duration", ["abc", [1], -1, "nan", "inf"])
def test_invoke_malformed_duration_400_and_server_keeps_serving(duration):
    async def probe(host, port):
        bad = await http_request(
            host, port, "POST", "/invoke/sleep-000", {"duration": duration}
        )
        good = await http_request(
            host, port, "POST", "/invoke/sleep-000", {"duration": 0.05}
        )
        return bad, good

    (bad_status, bad_payload), (good_status, good_payload) = _with_server(probe)
    assert bad_status == 400
    assert "duration" in bad_payload["error"]
    assert good_status == 200
    assert good_payload["status"] == "success"


def test_unknown_route_404_and_wrong_method_405():
    async def probe(host, port):
        missing = await http_request(host, port, "GET", "/nope")
        wrong = await http_request(host, port, "POST", "/healthz", {})
        return missing, wrong

    (missing_status, _), (wrong_status, _) = _with_server(probe)
    assert missing_status == 404
    assert wrong_status == 405


def test_stats_counts_requests():
    async def probe(host, port):
        await http_request(
            host, port, "POST", "/invoke/sleep-001", {"duration": 0.05}
        )
        return await http_request(host, port, "GET", "/stats")

    status, payload = _with_server(probe)
    assert status == 200
    assert payload["requests_total"] == 1
    assert payload["activations_total"] == 1
    assert payload["functions_deployed"] == 4


def test_shutdown_endpoint_stops_server():
    async def main():
        service = LiveControlPlane(_stack(), speed=SPEED)
        server = LiveServer(service, host="127.0.0.1", port=0)
        host, port = await server.start()
        status, payload = await http_request(host, port, "POST", "/shutdown")
        assert status == 200 and payload["ok"] is True
        await asyncio.wait_for(server.wait_shutdown(), timeout=10.0)
        # the listener is gone: a new connection must fail
        try:
            await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            return True
        return False

    assert asyncio.run(main()) is True
