"""Open-loop load generation against the transaction server.

Unlike the closed-loop harness (``run_closed_loop``: MPL clients that
wait for each response before issuing the next), the open-loop
generator fires requests on a **seeded Poisson arrival schedule** that
does not slow down when the server does — the regime where overload is
real and admission control earns its keep.  Keys follow a Zipf
distribution so a hot item concentrates conflicts; the op mix blends
writes (place/pay/ship/restock) with read-only stock checks.

``generate_arrivals`` is pure and deterministic: the same
:class:`OpenLoopConfig` always produces the same arrival times, items,
and op sequence (tests pin this).  ``run_open_loop`` replays a schedule
against a live :class:`~repro.server.core.TransactionServer` in wall
time and reports goodput, shed rate, and latency percentiles.  The
service time is a simulated sleep, so no number measured here is
committed or gated; what a 2x-saturation burst must *do* (shed with a
positive ``retry_after``, keep admitted p95 near the deadline, drain
clean, out-serve object R/W 2PL) is asserted by the ``slow`` tests in
``tests/test_openloop.py`` (CI ``server-smoke``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.metrics import percentile
from repro.protocols import protocol_by_name
from repro.server.admission import AdmissionConfig
from repro.server.core import TransactionServer
from repro.server.requests import Request, Response

#: Default op mix: write-heavy order entry with a read-only fifth.
DEFAULT_OP_MIX: dict[str, float] = {
    "place": 0.30,
    "pay": 0.20,
    "ship": 0.15,
    "restock": 0.10,
    "stock-check": 0.25,
}

__all__ = [
    "DEFAULT_OP_MIX",
    "OpenLoopConfig",
    "Arrival",
    "OpenLoopResult",
    "generate_arrivals",
    "run_open_loop",
]


@dataclass(frozen=True)
class OpenLoopConfig:
    """One open-loop run: arrival process, key skew, op mix, deadlines.

    ``rate`` is the offered load in requests/second; ``duration`` the
    schedule length in seconds (expected ``rate * duration`` arrivals).
    ``zipf_s`` skews item selection (0 = uniform; higher = hotter hot
    key).  ``think_cost`` and ``time_scale`` set the per-request service
    time (a Pause of ``think_cost`` cost units inside the transaction
    sleeps ``think_cost * time_scale`` wall seconds while holding its
    locks), which is what gives the server a finite saturation point.
    """

    rate: float = 80.0
    duration: float = 1.0
    seed: int = 42
    n_items: int = 4
    orders_per_item: int = 8
    zipf_s: float = 1.1
    op_mix: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_OP_MIX.items()))
    deadline: float = 0.25
    think_cost: float = 25.0
    time_scale: float = 0.002
    n_threads: int = 4
    max_inflight: int = 4
    queue_cap: int = 16

    def validate(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if self.n_items <= 0:
            raise ValueError("need at least one item")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if not self.op_mix or any(w < 0 for _, w in self.op_mix):
            raise ValueError("op_mix must be non-empty with non-negative weights")

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "rate": self.rate,
            "duration": self.duration,
            "seed": self.seed,
            "n_items": self.n_items,
            "orders_per_item": self.orders_per_item,
            "zipf_s": self.zipf_s,
            "op_mix": {op: weight for op, weight in self.op_mix},
            "deadline": self.deadline,
            "think_cost": self.think_cost,
            "time_scale": self.time_scale,
            "n_threads": self.n_threads,
            "max_inflight": self.max_inflight,
            "queue_cap": self.queue_cap,
        }
        return doc


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: fire ``request`` at offset ``at`` seconds."""

    at: float
    request: Request


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


def generate_arrivals(config: OpenLoopConfig) -> list[Arrival]:
    """Deterministically expand a config into its arrival schedule.

    Pure function of the config: Poisson arrival gaps
    (``rng.expovariate(rate)`` accumulated until ``duration``), Zipf
    item choice, weighted op choice, and uniform order numbers all come
    from one ``random.Random(seed)`` stream, so the same config always
    yields the identical schedule.
    """
    config.validate()
    rng = random.Random(config.seed)
    items = list(range(config.n_items))
    item_weights = _zipf_weights(config.n_items, config.zipf_s)
    ops = [op for op, _ in config.op_mix]
    op_weights = [weight for _, weight in config.op_mix]
    arrivals: list[Arrival] = []
    at = 0.0
    index = 0
    while True:
        at += rng.expovariate(config.rate)
        if at >= config.duration:
            break
        op = rng.choices(ops, weights=op_weights, k=1)[0]
        item = rng.choices(items, weights=item_weights, k=1)[0]
        order_no = rng.randint(1, config.orders_per_item)
        customer_no = 100 + rng.randint(0, config.orders_per_item - 1)
        quantity = rng.randint(1, 5)
        arrivals.append(
            Arrival(
                at=at,
                request=Request(
                    op=op,
                    item=item,
                    order_no=order_no,
                    customer_no=customer_no,
                    quantity=quantity,
                    deadline=config.deadline,
                    request_id=f"ol-{index}",
                ),
            )
        )
        index += 1
    return arrivals


@dataclass
class OpenLoopResult:
    """What one open-loop run measured."""

    protocol: str
    config: OpenLoopConfig
    offered: int = 0
    ok: int = 0
    aborted: int = 0
    failed: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    # retry_after of every shed response (0.0 where the server sent none).
    shed_retry_after: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    degraded_entries: int = 0
    drain_clean: bool = True
    unanswered: int = 0

    @property
    def goodput(self) -> float:
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def ok_rate(self) -> float:
        return self.ok / self.offered if self.offered else 0.0

    def metrics_record(self) -> dict[str, float]:
        """Flat JSON-friendly slice of the run."""
        return {
            "offered": float(self.offered),
            "ok": float(self.ok),
            "aborted": float(self.aborted),
            "failed": float(self.failed),
            "shed": float(self.shed),
            "unanswered": float(self.unanswered),
            "goodput": round(self.goodput, 6),
            "shed_rate": round(self.shed_rate, 6),
            "ok_rate": round(self.ok_rate, 6),
            "p50_latency": round(percentile(self.latencies, 50), 6),
            "p95_latency": round(percentile(self.latencies, 95), 6),
            "p99_latency": round(percentile(self.latencies, 99), 6),
            "degraded_entries": float(self.degraded_entries),
            "drain_clean": 1.0 if self.drain_clean else 0.0,
        }

    def to_dict(self) -> dict[str, Any]:
        doc = {"protocol": self.protocol, "config": self.config.to_dict()}
        doc.update(self.metrics_record())
        doc["shed_reasons"] = dict(self.shed_reasons)
        return doc


def run_open_loop(
    config: OpenLoopConfig,
    protocol: str = "semantic",
    server: Optional[TransactionServer] = None,
    settle_timeout: float = 10.0,
) -> OpenLoopResult:
    """Replay a schedule against a live server; measure the outcome.

    Open-loop semantics: arrivals fire at their scheduled wall-clock
    offsets whether or not earlier requests have completed — when the
    generator falls behind it submits immediately rather than stretching
    the schedule.  Pass ``server`` to reuse a running server (its
    admission/deadline settings then override the config's); otherwise a
    fresh one is built from the config, drained, and torn down, and the
    drain report's cleanliness lands in the result.
    """
    arrivals = generate_arrivals(config)
    owns_server = server is None
    if server is None:
        from repro.orderentry.schema import build_order_entry_database

        server = TransactionServer(
            built=build_order_entry_database(
                n_items=config.n_items, orders_per_item=config.orders_per_item
            ),
            protocol_factory=protocol_by_name(protocol),
            n_threads=config.n_threads,
            time_scale=config.time_scale,
            think_cost=config.think_cost,
            admission=AdmissionConfig(
                max_inflight=config.max_inflight, queue_cap=config.queue_cap
            ),
            default_deadline=config.deadline,
        ).start()
    result = OpenLoopResult(protocol=protocol, config=config, offered=len(arrivals))
    record_lock = threading.Lock()
    done = threading.Event()
    remaining = [len(arrivals)]
    started_at: dict[str, float] = {}

    def on_response(response: Response) -> None:
        finished = time.monotonic()
        with record_lock:
            if response.status == "ok":
                result.ok += 1
                submit_at = started_at.get(response.request_id or "")
                latency = response.total_time
                if latency is None and submit_at is not None:
                    latency = finished - submit_at
                if latency is not None:
                    result.latencies.append(latency)
            elif response.status == "aborted":
                result.aborted += 1
            elif response.status == "shed":
                result.shed += 1
                code = (response.error or {}).get("reason_code", "unknown")
                result.shed_reasons[code] = result.shed_reasons.get(code, 0) + 1
                result.shed_retry_after.append(response.retry_after or 0.0)
            else:
                result.failed += 1
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

    start = time.monotonic()
    if not arrivals:
        done.set()
    for arrival in arrivals:
        delay = start + arrival.at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        started_at[arrival.request.request_id or ""] = time.monotonic()
        server.submit_async(arrival.request, on_response)
    done.wait(settle_timeout)
    result.elapsed = time.monotonic() - start
    with record_lock:
        result.unanswered = remaining[0]
    result.degraded_entries = server.degrade.entered_count
    if owns_server:
        report = server.shutdown()
        result.drain_clean = report.clean and result.unanswered == 0
    return result
