"""HTTP load generator for the ``serve`` workload.

One process drives at most ``CONNECTIONS`` keep-alive connections, one
thread each, over plain blocking sockets.  In an open-loop phase every
request has a due time; a connection takes the next due request, waits
for its due time if early, and sends.  Latency runs from the due time
to the last byte of the response, so a stall delays every request
queued behind it.  Lateness is how far the send trailed the moment it
could have gone out (the later of due time and connection free), which
isolates the generator's own scheduling from the server's backlog.  In
the closed loop each connection sends its next request as soon as the
previous one completes.

Sheds, timeouts and non-200 answers count as sent and as failed.
"""

from __future__ import annotations

import socket
import threading
import time

CONNECTIONS = 2
TIMEOUT_S = 5.0
#: A phase gives up this long after its last due time (closed loop:
#: after its start); requests not yet sent count as failed.
PHASE_GRACE_S = 10.0

_clock = time.perf_counter


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.addr = (host, port)
        self.sock: socket.socket | None = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.addr, timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self._buf = sock, b""
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b""
                ) -> tuple[int, bytes]:
        """Send one request; returns (status, body), status 0 on error."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        try:
            sock = self.sock or self._connect()
            sock.sendall(head + body)
            return self._read_response(sock)
        except OSError:
            self.close()
            return 0, b""

    def _read_response(self, sock: socket.socket) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            self._buf += chunk
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key == "content-length":
                length = int(value)
            elif key == "connection" and value.strip().lower() == "close":
                close = True
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            rest += chunk
        self._buf = rest[length:]
        if close:
            self.close()
        return status, rest[:length]


def _sleep_until(deadline: float) -> None:
    # No spinning: the generator shares the cores with the server.
    remaining = deadline - _clock()
    if remaining > 0:
        time.sleep(remaining)


def open_loop(host: str, port: int, due: list[float],
              requests: list[tuple[str, str, bytes]]) -> list[dict]:
    """Send ``requests[i]`` at ``due[i]`` s after start; one dict each."""
    results: list[dict | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = _clock() + 0.05
    give_up = start + (due[-1] if due else 0.0) + PHASE_GRACE_S

    def drive() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                due_at = start + due[i]
                free_at = _clock()
                _sleep_until(due_at)
                sent_at = _clock()
                kind, path, body = requests[i]
                status, payload = (conn.request("POST", path, body)
                                   if sent_at < give_up else (0, b""))
                done = _clock()
                results[i] = {"kind": kind, "status": status, "body": payload,
                              "latency_s": done - due_at,
                              "late_s": sent_at - max(due_at, free_at)}
        finally:
            conn.close()

    _run_threads(drive)
    return results  # type: ignore[return-value]


def closed_loop(host: str, port: int,
                requests: list[tuple[str, str, bytes]]
                ) -> tuple[list[dict], float]:
    """Send every request back to back on each connection.

    Returns the per-request results and the wall time of the phase.
    """
    results: list[dict | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    give_up = _clock() + PHASE_GRACE_S

    def drive() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                kind, path, body = requests[i]
                t0 = _clock()
                status, payload = (conn.request("POST", path, body)
                                   if t0 < give_up else (0, b""))
                results[i] = {"kind": kind, "status": status, "body": payload,
                              "latency_s": _clock() - t0, "late_s": 0.0}
        finally:
            conn.close()

    start = _clock()
    _run_threads(drive)
    return results, _clock() - start  # type: ignore[return-value]


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection (health checks, metrics scrapes)."""
    conn = Connection(host, port)
    try:
        return conn.request("GET", path)
    finally:
        conn.close()


def scrape_counts(text: str, names: tuple[str, ...]) -> dict[str, float]:
    """Sum each named series of a Prometheus exposition over its labels."""
    totals = {name: 0.0 for name in names}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.partition(" ")
        name = series.split("{", 1)[0]
        if name in totals:
            try:
                totals[name] += float(value.split(" ", 1)[0])
            except ValueError:
                continue
    return totals
