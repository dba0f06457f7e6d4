"""The closed loop: each client sends its next request only after the
previous answer."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.server.requests import Request, Response


@dataclass
class Sample:
    request: Request
    response: Response
    start: float
    end: float
    encoded: float = 0.0  # traced runs only: end of encode, end of roundtrip
    answered: float = 0.0


SPIN_EVERY = 20


def spin_cpu_seconds() -> float:
    """CPU time this thread needs for a fixed pure-Python loop: how fast
    the machine runs Python right now, whatever else waits for the GIL."""
    started = time.thread_time()
    total = 0
    for i in range(8000):
        total += i * i
    return time.thread_time() - started


def replay(clients, lists, traced: bool = False, spins=None) -> list[Sample]:
    """Replay one list per client concurrently; a client that raises is
    recorded as a failed response so the loop always finishes.  With
    *spins* (a list) every client also times the fixed loop between
    requests, once per SPIN_EVERY, and appends the result there."""
    barrier = threading.Barrier(len(clients))
    results: list[list[Sample]] = [[] for _ in clients]

    def run(client, requests, out) -> None:
        encode, roundtrip, decode = client.encode, client.roundtrip, client.decode
        clock = time.perf_counter
        barrier.wait()
        for index, request in enumerate(requests):
            if spins is not None and index % SPIN_EVERY == 0:
                spins.append(spin_cpu_seconds())
            encoded = answered = 0.0
            start = clock()
            try:
                if traced:
                    message = encode(request)
                    encoded = clock()
                    payload = roundtrip(message)
                    answered = clock()
                    response = decode(payload)
                else:
                    response = decode(roundtrip(encode(request)))
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                response = Response(status="exception", op=request.op,
                                    request_id=request.request_id,
                                    error={"message": repr(exc)})
            out.append(Sample(request, response, start, clock(), encoded, answered))

    threads = [
        threading.Thread(target=run, args=(client, requests, out), name=f"pb-client-{i}")
        for i, (client, requests, out) in enumerate(zip(clients, lists, results))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for out in results for sample in out]
