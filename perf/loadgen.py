"""HTTP load for the ``live_http`` workload, stdlib only.

The client is the benchmark's own, so a change to the program's HTTP code
changes only the server side of the measurement.  One request per
connection, as ``repro serve`` answers ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple


#: a request without an answer after this long counts as a transport error
REQUEST_TIMEOUT_S = 10.0


def call(port: int, method: str, path: str, timeout: float = 10.0) -> Tuple[int, dict]:
    """One blocking control request (``/healthz``, ``/stats``, ``/shutdown``)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body else {}
    finally:
        conn.close()


async def invoke(port: int, function: str) -> int:
    """POST /invoke/<function> on a fresh connection; returns the HTTP status."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST /invoke/{function} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    parts = raw.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed response {raw[:40]!r}")
    return int(parts[1])


class Tally:
    """Outcomes of one loop: HTTP statuses and transport errors."""

    def __init__(self) -> None:
        self.statuses: Dict[int, int] = {}
        self.errors = 0

    async def send(self, port: int, function: str) -> None:
        try:
            status = await asyncio.wait_for(invoke(port, function), REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            self.errors += 1
            return
        self.statuses[status] = self.statuses.get(status, 0) + 1

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def attempts(self) -> int:
        return sum(self.statuses.values()) + self.errors


async def open_loop(
    port: int,
    functions: Sequence[str],
    rate: float,
    count: int,
    rng: random.Random,
    connections: int,
) -> dict:
    """Poisson arrivals at *rate* per wall second, at most *connections* at once.

    Each request is timed from the moment it was due, so a stalled server
    also charges the requests queued behind the stall; ``late`` is how far
    behind schedule the generator itself dispatched each request.
    """
    tally = Tally()
    slots = asyncio.Semaphore(connections)
    latency: List[float] = []
    late: List[float] = []
    conn_wait: List[float] = []

    async def one(due: float, dispatched: float, function: str) -> None:
        async with slots:
            conn_wait.append(time.perf_counter() - dispatched)
            await tally.send(port, function)
        latency.append(time.perf_counter() - due)

    tasks = []
    start = due = time.perf_counter()
    for _ in range(count):
        due += rng.expovariate(rate)
        function = rng.choice(functions)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        dispatched = time.perf_counter()
        late.append(dispatched - due)
        tasks.append(asyncio.ensure_future(one(due, dispatched, function)))
    await asyncio.gather(*tasks)
    finished = time.perf_counter()
    return {
        "tally": tally,
        "latency": latency,
        "late": late,
        "conn_wait": conn_wait,
        "offered_rps": count / (due - start),
        "achieved_rps": count / (finished - start),
    }


async def closed_loop(
    port: int,
    functions: Sequence[str],
    count: int,
    rng: random.Random,
    callers: int,
) -> dict:
    """*callers* clients each sending the next request when the last returns."""
    tally = Tally()
    plan = [rng.choice(functions) for _ in range(count)]

    async def caller() -> None:
        while plan:
            await tally.send(port, plan.pop())

    started = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(callers)))
    return {"tally": tally, "elapsed_s": time.perf_counter() - started}


def run_loops(
    port: int,
    functions: Sequence[str],
    seed: int,
    rate: float,
    open_count: int,
    closed_count: int,
    connections: int,
    callers: int,
) -> Tuple[dict, dict]:
    """The open loop, then the closed loop, from one seeded generator."""
    rng = random.Random(seed)

    async def both() -> Tuple[dict, dict]:
        first = await open_loop(port, functions, rate, open_count, rng, connections)
        second = await closed_loop(port, functions, closed_count, rng, callers)
        return first, second

    return asyncio.run(both())


def wait_healthy(port: int, deadline: float, poll_s: float = 0.002) -> Optional[float]:
    """Poll ``/healthz`` until an invoker is healthy.

    Returns the ``time.monotonic()`` at which it was seen (comparable with
    the server process's own clock readings), or None at *deadline*.
    """
    while time.monotonic() < deadline:
        try:
            status, body = call(port, "GET", "/healthz", timeout=1.0)
        except OSError:
            status, body = 0, {}
        if status == 200 and body.get("healthy_invokers", 0) >= 1:
            return time.monotonic()
        time.sleep(poll_s)
    return None
