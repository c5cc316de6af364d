"""The overload curve: open-loop goodput against the closed-loop ceiling.

Drives a real :class:`~repro.net.server.TcpServer` over loopback TCP —
the only place goodput collapse is visible (ROADMAP item 7c):

- **closed-loop ceiling** — every connection keeps ``depth`` requests
  outstanding as fast as responses come back: the throughput the
  open-loop rates are judged against;
- **open-loop sweep** — requests fall due on a fixed schedule that never
  waits for responses, so coordinated omission cannot hide queueing.
  Latency runs from the *due* time, not the send time; a typed shed
  (:class:`~repro.errors.Overloaded` / :class:`~repro.errors.Busy`) is an
  attempt that did not complete, and any other failure is an error.

That overload degrades into typed sheds only, and that the server answers
afterwards, is asserted by ``tests/test_net_faults.py`` /
``tests/test_net_server.py``; this module measures.
"""

from __future__ import annotations

import asyncio
import time

from repro.bench.harness import Table
from repro.core.database import LazyXMLDatabase
from repro.errors import Busy, Overloaded, ReproError
from repro.net.client import connect
from repro.net.server import NetServerConfig, TcpServer
from repro.service.server import DatabaseService
from repro.workloads.scenarios import registration_stream

__all__ = ["overload"]

_MS = 1e3


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


async def _ceiling(clients, duration: float, depth: int) -> float:
    """Closed-loop completed requests per second across all connections."""
    loop = asyncio.get_running_loop()
    stop_at = loop.time() + duration
    completed = 0

    async def worker(client) -> None:
        nonlocal completed
        while loop.time() < stop_at:
            try:
                await client.request("query", expr="name", limit=10)
                completed += 1
            except ReproError:
                pass  # a shed is not goodput; the ceiling counts completions

    began = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in clients for _ in range(depth)))
    return completed / (time.perf_counter() - began)


async def _open_loop(clients, rate: float, duration: float) -> dict:
    """Fixed-rate arrivals (nine queries to one insert), round-robined."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    sheds = errors = 0
    attempts = int(rate * duration)
    start = loop.time() + 0.05  # headroom so arrival 0 is never late

    async def fire(i: int) -> None:
        nonlocal sheds, errors
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[i % len(clients)]
        try:
            if i % 10 == 9:
                await client.request(
                    "insert",
                    fragment=f"<registration><name>b{i}</name></registration>",
                )
            else:
                await client.request("query", expr="name", limit=10)
            latencies.append(loop.time() - due)
        except (Overloaded, Busy):
            sheds += 1
        except ReproError:
            errors += 1

    began = time.perf_counter()
    await asyncio.gather(*(fire(i) for i in range(attempts)))
    elapsed = time.perf_counter() - began
    latencies.sort()
    return {
        "offered_rps": rate,
        "attempts": attempts,
        "completed": len(latencies),
        "sheds": sheds,
        "errors": errors,
        "goodput_rps": len(latencies) / elapsed,
        "p50_ms": _percentile(latencies, 0.50) * _MS,
        "p99_ms": _percentile(latencies, 0.99) * _MS,
    }


async def _run(rates, duration, ceiling_duration, conns, docs) -> Table:
    db = LazyXMLDatabase()
    for fragment in registration_stream(docs):
        db.insert(fragment)
    service = DatabaseService(db)
    server = TcpServer(service, NetServerConfig(port=0, max_conns=conns + 8))
    await server.start()
    clients = []
    try:
        clients = list(await asyncio.gather(
            *(connect("127.0.0.1", server.port) for _ in range(conns))
        ))
        ceiling = await _ceiling(clients, ceiling_duration, depth=2)
        table = Table(
            f"Overload — open loop, {conns} connections",
            ["offered_rps", "attempts", "completed", "sheds", "errors",
             "goodput_rps", "p50_ms", "p99_ms", "ceiling_rps"],
        )
        for rate in rates:
            row = await _open_loop(clients, rate, duration)
            row["ceiling_rps"] = ceiling
            table.add_row(row[name] for name in table.headers)
        return table
    finally:
        await asyncio.gather(
            *(c.close(goodbye=False) for c in clients), return_exceptions=True
        )
        await server.drain(grace=2.0)
        service.close()


def overload(
    rates: tuple[float, ...] = (200.0, 500.0, 1000.0, 2000.0),
    *,
    duration: float = 4.0,
    ceiling_duration: float = 3.0,
    conns: int = 64,
    docs: int = 50,
) -> list[Table]:
    """Goodput and due-time latency per offered rate, beside the ceiling.

    ``goodput_rps`` against ``ceiling_rps`` is the collapse the open-loop
    run exists to show; ``sheds`` and ``errors`` are counted against
    ``attempts``.
    """
    return [asyncio.run(_run(rates, duration, ceiling_duration, conns, docs))]
