"""Open-loop load over persistent HTTP/1.1 connections.

The pacer sends each request at its due time on a seeded Poisson
schedule, whatever the server is doing.  A due request takes the
connection that has been idle longest; when every connection is busy it
joins a backlog that the next connection to finish takes from, and that
wait is charged to its latency, which always runs from the due time.
The pacer itself never waits for a connection, so its lateness is its
own and not the server's.  Each connection is driven by its own thread
with ``http.client``, so responses are read exactly as a keep-alive
client reads them.
"""

from __future__ import annotations

import http.client
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

# Head start between building the schedule and its first due time.
LEAD_S = 0.05
# The pacer sleeps until this long before a due time and yields from
# there on: a thread woken from a long sleep on a busy host runs late.
SPIN_S = 0.001
TIMEOUT_S = 30.0
_HEADERS = {"Content-Type": "application/json"}


def poisson_offsets(rng: random.Random, n: int, seconds: float) -> list[float]:
    """``n`` arrival times of a Poisson process conditioned on ``n`` in ``[0, seconds)``."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def sleep_until(due: float) -> None:
    """Return at ``due`` (a ``perf_counter`` reading) or as soon after as the host allows."""
    delay = due - time.perf_counter() - SPIN_S
    if delay > 0:
        time.sleep(delay)
    while time.perf_counter() < due:
        time.sleep(0)  # releases the GIL to the connection threads


@dataclass
class Exchange:
    """One request as the client saw it (``perf_counter`` readings)."""

    due: float
    dispatched: float  # the pacer woke for it
    connected: float  # it got an idle connection
    sent: float
    done: float
    status: int | None  # None: transport error
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent


class KeepAlivePool:
    """``n`` persistent connections to ``host:port`` serving ``path``."""

    def __init__(self, host: str, port: int, n: int, path: str) -> None:
        self._address = (host, port)
        self._path = path
        self._idle = deque(range(n))
        self._backlog: deque[tuple[Exchange, bytes]] = deque()
        self._ready = threading.Condition()
        self._inboxes: list[queue.SimpleQueue] = [queue.SimpleQueue() for _ in range(n)]
        self._threads = [
            threading.Thread(target=self._drive, args=(i,), daemon=True) for i in range(n)
        ]
        for thread in self._threads:
            thread.start()

    def _drive(self, slot: int) -> None:
        conn = http.client.HTTPConnection(*self._address, timeout=TIMEOUT_S)
        try:
            job = self._inboxes[slot].get()
            while job is not None:
                exchange, body = job
                exchange.sent = time.perf_counter()
                try:
                    conn.request("POST", self._path, body, _HEADERS)
                    response = conn.getresponse()
                    exchange.body = response.read()
                    exchange.status = response.status
                except Exception as error:  # noqa: BLE001 - a failed request, not a dead pool
                    conn.close()  # the next request reconnects
                    exchange.body = repr(error).encode()
                exchange.done = time.perf_counter()
                with self._ready:
                    if self._backlog:
                        job = self._backlog.popleft()
                        job[0].connected = time.perf_counter()
                        continue
                    self._idle.append(slot)
                    self._ready.notify()
                job = self._inboxes[slot].get()
        finally:
            conn.close()

    def run(self, bodies: list[bytes], offsets: list[float]) -> list[Exchange]:
        """Send ``bodies[i]`` at ``offsets[i]`` seconds from now; wait for all."""
        start = time.perf_counter() + LEAD_S
        exchanges = []
        for body, offset in zip(bodies, offsets):
            due = start + offset
            sleep_until(due)
            exchange = Exchange(due, time.perf_counter(), 0.0, 0.0, 0.0, None, b"")
            exchanges.append(exchange)
            with self._ready:
                if not self._idle:
                    self._backlog.append((exchange, body))
                    continue
                slot = self._idle.popleft()
            exchange.connected = time.perf_counter()
            self._inboxes[slot].put((exchange, body))
        with self._ready:
            while len(self._idle) < len(self._threads):
                self._ready.wait()
        return exchanges

    def close(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join(TIMEOUT_S)
