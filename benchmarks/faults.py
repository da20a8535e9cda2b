"""Outside-in fault injection for the serving stack.

Every fault here is applied from outside the program, the way the
kernel or a flaky network would apply it, so the serving code carries
no seam for any of them:

* :func:`kill_worker` — SIGKILL a worker process by pid (the pid
  ``/healthz`` and ``ProcessInferenceServer.worker_processes()``
  report).  The supervisor must notice and respawn the slot.
* :func:`stall_worker` — SIGSTOP a worker process, then SIGCONT it.  A
  stopped process is still alive, so the supervisor leaves it alone;
  its slot blocks on the pipe until the process continues.
* :class:`FaultProxy` — a loopback TCP proxy between a client and the
  gateway that relays bytes both ways and, for the next N connections,
  resets, truncates or garbles the response (the shape of a
  Toxiproxy-style fault proxy).

Example::

    proxy = FaultProxy(gateway.port).start()
    client = ServingClient(proxy.url)
    proxy.fault_next("truncate", count=5)
    client.predict("...")   # retried through the truncated response
    proxy.stop()
"""

from __future__ import annotations

import os
import re
import signal
import socket
import struct
import threading
import time

__all__ = ["FAULT_KINDS", "FaultProxy", "kill_worker", "stall_worker"]

#: What a faulted connection does to its response.
FAULT_KINDS = ("reset", "truncate", "garble")

_GARBLED_BODY = b"{this is not json"
_GARBLED_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_GARBLED_BODY)).encode() + b"\r\n"
    b"Connection: close\r\n\r\n" + _GARBLED_BODY
)
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)", re.IGNORECASE)
_CHUNK = 65536


def _signal(pid: int, signum: int) -> bool:
    """Send ``signum`` to ``pid``; True iff the process was there."""
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        return False
    return True


def kill_worker(pid: int) -> bool:
    """SIGKILL ``pid``; True iff it was alive to receive the signal."""
    return _signal(pid, signal.SIGKILL)


def stall_worker(pid: int, seconds: float) -> tuple[bool, bool]:
    """SIGSTOP ``pid`` for ``seconds``, then SIGCONT it.

    Returns whether the process was alive at the stop and at the
    continue.  The SIGCONT is sent in a ``finally``, so an interrupted
    stall never leaves the process stopped.
    """
    if not _signal(pid, signal.SIGSTOP):
        return False, False
    try:
        time.sleep(seconds)
    finally:
        continued = _signal(pid, signal.SIGCONT)
    return True, continued


def _shutdown(sock: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    """Shut ``sock`` down, waking any thread blocked on it; never raises."""
    try:
        sock.shutdown(how)
    except OSError:
        pass


def _pump(src: socket.socket, dst: socket.socket) -> None:
    """Relay bytes from ``src`` to ``dst`` until either side ends."""
    try:
        while chunk := src.recv(_CHUNK):
            dst.sendall(chunk)
    except OSError:
        pass


def _read_response(sock: socket.socket) -> tuple[bytes, bytes]:
    """One HTTP response from ``sock``: its head and its whole body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(_CHUNK)
        if not chunk:
            return data, b""
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    head += b"\r\n\r\n"
    match = _CONTENT_LENGTH.search(head)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = sock.recv(_CHUNK)
        if not chunk:
            break
        body += chunk
    return head, body


class FaultProxy:
    """Loopback TCP proxy that faults the responses of marked connections.

    Every accepted connection is relayed to ``127.0.0.1:upstream_port``
    byte for byte, both ways.  :meth:`fault_next` marks the next
    ``count`` connections.  A marked connection relays its request as
    usual, reads the whole upstream response, and then:

    * ``"reset"`` — closes the client connection with an RST and writes
      nothing;
    * ``"truncate"`` — writes the head and half the promised body, then
      an RST;
    * ``"garble"`` — answers 200 with a body that is not JSON, then
      closes.

    A client that opens one connection per request (``ServingClient``
    does) sees exactly ``count`` faulted requests.  :meth:`faulted`
    lists the faults applied, with the ``time.monotonic()`` of each.
    """

    host = "127.0.0.1"

    def __init__(self, upstream_port: int) -> None:
        self.upstream = (self.host, upstream_port)
        self._lock = threading.Lock()
        self._pending: list[str] = []
        self._log: list[tuple[float, str]] = []
        self._open: set[socket.socket] = set()
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("proxy is not started")
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FaultProxy":
        self._listener = socket.create_server((self.host, 0))
        self._thread = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name="fault-proxy",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and cut every connection still open."""
        listener, thread = self._listener, self._thread
        self._listener = self._thread = None
        if listener is not None:
            _shutdown(listener)
            listener.close()
        if thread is not None:
            thread.join(timeout=5.0)
        with self._lock:
            still_open = list(self._open)
        for sock in still_open:
            _shutdown(sock)

    def __enter__(self) -> "FaultProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def fault_next(self, kind: str, count: int = 1) -> None:
        """Fault the responses of the next ``count`` connections."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected {FAULT_KINDS}")
        with self._lock:
            self._pending.extend([kind] * count)

    def clear(self) -> int:
        """Drop the faults not yet applied; returns how many there were."""
        with self._lock:
            dropped = len(self._pending)
            self._pending = []
        return dropped

    def faulted(self) -> list[tuple[float, str]]:
        """``(time.monotonic(), kind)`` for every fault applied so far."""
        with self._lock:
            return list(self._log)

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                client, _ = listener.accept()
            except OSError:
                return  # stop() closed the listener
            with self._lock:
                kind = self._pending.pop(0) if self._pending else None
            threading.Thread(
                target=self._serve,
                args=(client, kind),
                name="fault-proxy-conn",
                daemon=True,
            ).start()

    def _serve(self, client: socket.socket, kind: str | None) -> None:
        try:
            upstream = socket.create_connection(self.upstream)
        except OSError:
            client.close()
            return
        with self._lock:
            self._open.update((client, upstream))
        forward = threading.Thread(
            target=_pump,
            args=(client, upstream),
            name="fault-proxy-forward",
            daemon=True,
        )
        forward.start()
        reset = False
        try:
            if kind is None:
                _pump(upstream, client)
            else:
                reset = self._fault(kind, upstream, client)
        except OSError:
            pass
        finally:
            # Either side ending ends the relay: wake the forward pump,
            # then release both sockets.  For a reset, SO_LINGER 0 turns
            # the close into an RST, and SHUT_RD wakes the pump without
            # sending a FIN first.
            if reset:
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                _shutdown(client, socket.SHUT_RD)
            else:
                _shutdown(client)
            _shutdown(upstream)
            forward.join()
            with self._lock:
                self._open.difference_update((client, upstream))
            client.close()
            upstream.close()

    def _fault(self, kind: str, upstream: socket.socket, client: socket.socket) -> bool:
        """Answer ``client`` with a faulted response; True = end with an RST."""
        head, body = _read_response(upstream)
        if kind == "truncate":
            client.sendall(head + body[: len(body) // 2])
        elif kind == "garble":
            client.sendall(_GARBLED_RESPONSE)
        with self._lock:
            self._log.append((time.monotonic(), kind))
        return kind != "garble"
