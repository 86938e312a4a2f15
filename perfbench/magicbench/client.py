"""Closed-loop HTTP clients for the serve workloads.

Each client thread sends its next request only after the previous
response body has been read.  The threads share one cursor over the
stream, so together they send it in order.  Latency is measured from
just before the connection opens until the response body is read.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from typing import List, Optional, Sequence

#: Per-request socket timeout; a request that exceeds it counts as failed.
REQUEST_TIMEOUT = 60.0


@dataclasses.dataclass
class Reply:
    position: int            # position in the request stream
    latency_ms: float
    status: Optional[int]    # None on a transport error or timeout
    payload: Optional[dict]
    error: Optional[str] = None


def post(port: int, body: bytes, timeout: float = REQUEST_TIMEOUT):
    """One ``POST /classify``; returns ``(status, payload)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("POST", "/classify", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    return response.status, payload


def encode(name: str, text: str) -> bytes:
    return json.dumps({"name": name, "asm": text}).encode("utf-8")


def run_closed_loop(port: int, bodies: Sequence[bytes], order: Sequence[int],
                    clients: int) -> List[Reply]:
    """Send ``bodies[order[i]]`` for every i, in order; return the replies.

    The whole stream is sent, so every run does the same work however
    fast the program answers.
    """
    replies: List[Reply] = []
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                position = cursor[0]
                if position >= len(order):
                    return
                cursor[0] += 1
            body = bodies[order[position]]
            started = time.perf_counter()
            status: Optional[int] = None
            payload = None
            error = None
            try:
                status, payload = post(port, body)
            except (OSError, http.client.HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            latency = (time.perf_counter() - started) * 1000.0
            with lock:
                replies.append(Reply(position, latency, status, payload,
                                     error))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    replies.sort(key=lambda reply: reply.position)
    return replies
