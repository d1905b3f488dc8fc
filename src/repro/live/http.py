"""The transport half of the clock + transport split: stdlib HTTP.

A deliberately small asyncio HTTP/1.1 server (``asyncio.start_server``
plus a hand-rolled request parser) so live mode needs **no third-party
HTTP stack** — the container images this repo targets carry only the
scientific Python toolchain.  The surface mirrors the OpenWhisk-ish
front door the paper's Gatling harness spoke to:

* ``POST /invoke/<function>`` — body ``{"duration": …, "cluster": …}``
  (both optional; a duration that is not a finite number >= 0 is a
  400); blocks until the activation settles and answers with the
  activation JSON.  Status mapping: ``SUCCESS → 200``,
  ``UNAVAILABLE → 503`` (no healthy invoker), ``TIMEOUT → 504``,
  ``FAILED → 404`` when the function is not deployed else ``500``.
* ``GET /healthz`` — liveness: kernel time, healthy invoker count,
  in-flight count.  Replay polls this until the fleet is up.
* ``GET /stats`` — the full :meth:`~repro.live.service.LiveControlPlane.
  snapshot`.
* ``POST /shutdown`` — graceful drain-and-stop (a dev/CI affordance:
  the smoke test ends a background server without process signals).

Connections are ``close``-per-request — replay drivers open one
connection per invocation, which keeps the parser honest and the server
free of keep-alive state machines.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional, Tuple

from repro.faas.activation import ActivationResult, ActivationStatus
from repro.live.service import LiveControlPlane, ServiceStopped

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TO_HTTP = {
    ActivationStatus.SUCCESS: 200,
    ActivationStatus.UNAVAILABLE: 503,
    ActivationStatus.TIMEOUT: 504,
    ActivationStatus.FAILED: 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def result_to_payload(result: ActivationResult) -> Dict[str, Any]:
    """The activation JSON the wire carries (replay reverses this)."""
    return {
        "activation_id": result.activation_id,
        "function": result.function,
        "status": result.status.value,
        "response_time": result.response_time,
        "backend": result.backend,
        "error": result.error,
    }


def http_status_for(result: ActivationResult) -> int:
    """Map an activation outcome to its HTTP status code."""
    code = _STATUS_TO_HTTP[result.status]
    if (
        result.status is ActivationStatus.FAILED
        and result.error is not None
        and "not deployed" in result.error
    ):
        return 404
    return code


class LiveServer:
    """HTTP front door over a :class:`LiveControlPlane`."""

    def __init__(
        self,
        service: LiveControlPlane,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Start the control plane and begin accepting connections.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks an ephemeral port, which the loopback tests rely on.
        """
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, then drain and stop the control plane."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=drain)
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Block until a ``POST /shutdown`` (or :meth:`stop`) completes."""
        await self._shutdown.wait()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                await _respond(writer, 400, {"error": "malformed request"})
                return
            method, path, body = request
            status, payload = await self._route(method, path, body)
            await _respond(writer, status, payload)
            if method == "POST" and path == "/shutdown" and status == 200:
                # Respond first, then drain: the client sees the ack
                # before the listener goes away.
                asyncio.ensure_future(self.stop(drain=True))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path.startswith("/invoke/"):
            if method != "POST":
                return 405, {"error": "use POST for /invoke/<function>"}
            function = path[len("/invoke/") :]
            if not function:
                return 400, {"error": "missing function name"}
            try:
                params = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                return 400, {"error": "body must be a JSON object"}
            if not isinstance(params, dict):
                return 400, {"error": "body must be a JSON object"}
            duration = params.get("duration")
            cluster = params.get("cluster")
            # The duration becomes a kernel timer delay.  Refuse a bad one
            # here with a 400: inside the kernel a negative or NaN delay
            # raises from a timer callback and stops the control plane for
            # every client, and an infinite one never fires.
            try:
                duration = None if duration is None else float(duration)
            except (TypeError, ValueError, OverflowError):
                return 400, {"error": "duration must be a number"}
            if duration is not None and not 0.0 <= duration < math.inf:
                return 400, {"error": "duration must be finite and >= 0"}
            try:
                result = await self.service.invoke(
                    function,
                    duration=duration,
                    cluster=None if cluster is None else str(cluster),
                )
            except ServiceStopped:
                return 503, {"error": "shutting down"}
            return http_status_for(result), result_to_payload(result)
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET for /healthz"}
            snap = self.service.snapshot()
            return 200, {
                "ok": True,
                "kernel_now": snap["kernel_now"],
                "healthy_invokers": snap["healthy_invokers"],
                "inflight": snap["inflight"],
                "accepting": snap["accepting"],
            }
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET for /stats"}
            return 200, self.service.snapshot()
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "use POST for /shutdown"}
            return 200, {"ok": True, "draining": self.service.inflight}
        return 404, {"error": f"no route {method} {path}"}


# ---------------------------------------------------------------------------
# wire helpers (shared with the replay client)
# ---------------------------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one HTTP/1.1 request: ``(method, path, body)`` or None."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    if len(head) > _MAX_HEADER_BYTES:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        return None
    method, target, _version = parts
    content_length = 0
    for line in lines[1:]:
        if ":" not in line:
            continue
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length < 0 or content_length > _MAX_BODY_BYTES:
        return None
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None
    path = target.split("?", 1)[0]
    return method.upper(), path, body


async def _respond(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
) -> None:
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any]]:
    """One client request over a fresh connection (stdlib only).

    Returns ``(http_status, decoded_json_body)``; used by the replay
    driver and the CI smoke probes.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    status_line = head_raw.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split(" ")
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed response: {status_line!r}")
    status = int(parts[1])
    decoded = json.loads(body_raw.decode("utf-8")) if body_raw else {}
    return status, decoded
