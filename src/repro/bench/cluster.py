"""Open-loop cluster bench: goodput scaling across real shard processes.

The single-node open-loop bench (:mod:`repro.bench.openloop`) measures
one server's saturation curve; this module points the same style of
seeded Poisson schedule at a :class:`~repro.cluster.process.LocalCluster`
— real shard child processes over durable storage, fsync on every
commit — through the in-process router, and sweeps the **shard count**:
the same workload against 1, 2, and 4 shards.  The workload is mostly
commuting single-item traffic (place / restock / pay / ship /
stock-check, uniform across a wide item range) with a configurable
fraction of cross-shard two-line places and total-payments, so goodput
should rise with the shard count until the offered rate is absorbed;
``goodput_monotonic`` is the acceptance check.

Open-loop semantics: a dispatcher pool fires requests at their
scheduled wall-clock offsets whether or not earlier ones have finished;
the router's blocking calls ride on the pool, sheds come back fast with
``retry_after``, and the schedule never stretches to fit the cluster.

The **branch-count latency sweep** (:func:`run_branch_latency_sweep`)
measures closed-loop p50/p95 of a k-branch cross-shard read at 4
shards, once with the router's parallel prepare fan-out and once
sequential — sequential prepare is linear in the branch count by
construction, the fan-out must stay flat-ish at the slowest branch.

Service time is a simulated sleep, so none of these numbers is
committed or gated; the relations they must satisfy (monotonic goodput,
no shard down, parallel p95 beats sequential at 4 branches) are the
``slow`` tests in ``tests/test_bench_cluster.py`` (CI ``cluster-smoke``).
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.metrics import percentile
from repro.cluster.process import LocalCluster
from repro.cluster.router import ClusterRouter
from repro.obs.registry import MetricsRegistry
from repro.server.requests import Request

__all__ = [
    "ClusterBenchConfig",
    "ClusterLoopResult",
    "BranchLatencyPoint",
    "generate_cluster_arrivals",
    "run_cluster_open_loop",
    "sweep_shards",
    "run_branch_latency_sweep",
    "goodput_monotonic",
]


@dataclass(frozen=True)
class ClusterBenchConfig:
    """One cluster open-loop run (shard count supplied separately).

    ``rate`` is offered requests/second across the whole cluster;
    ``cross_fraction`` of arrivals are two-item cross-shard candidates
    (two-line places and two-item total-payments — on one shard they
    degenerate to single-branch requests, so the schedule is identical
    at every shard count).  Each shard serves with ``think_cost`` cost
    units at ``time_scale`` seconds/unit (~8 ms of lock-holding service
    per request at the defaults) and fsyncs every commit
    (``group_commit_window = 0``), so per-shard capacity is finite and
    the sweep exposes scaling.
    """

    rate: float = 280.0
    duration: float = 2.0
    seed: int = 7
    n_items: int = 64
    orders_per_item: int = 4
    cross_fraction: float = 0.10
    deadline: float = 0.5
    think_cost: float = 80.0
    time_scale: float = 0.001
    n_threads: int = 4
    max_inflight: int = 4
    queue_cap: int = 8
    dispatchers: int = 64
    pool_size: int = 32
    group_commit_window: float = 0.0

    def validate(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if self.n_items < 2:
            raise ValueError("need at least two items for cross-shard pairs")
        if not 0.0 <= self.cross_fraction <= 1.0:
            raise ValueError("cross_fraction must be in [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "duration": self.duration,
            "seed": self.seed,
            "n_items": self.n_items,
            "orders_per_item": self.orders_per_item,
            "cross_fraction": self.cross_fraction,
            "deadline": self.deadline,
            "think_cost": self.think_cost,
            "time_scale": self.time_scale,
            "n_threads": self.n_threads,
            "max_inflight": self.max_inflight,
            "queue_cap": self.queue_cap,
            "dispatchers": self.dispatchers,
            "pool_size": self.pool_size,
            "group_commit_window": self.group_commit_window,
        }

    def shard_config(self) -> dict[str, Any]:
        """The per-shard server settings this run boots with."""
        return {
            "n_items": self.n_items,
            "orders_per_item": self.orders_per_item,
            "n_threads": self.n_threads,
            "time_scale": self.time_scale,
            "think_cost": self.think_cost,
            "max_inflight": self.max_inflight,
            "queue_cap": self.queue_cap,
            "default_deadline": self.deadline,
            "group_commit_window": self.group_commit_window,
        }


#: Mostly commuting single-item mix; cross-shard ops are drawn on top.
SINGLE_OPS: tuple[tuple[str, float], ...] = (
    ("place", 0.30),
    ("restock", 0.15),
    ("pay", 0.15),
    ("ship", 0.10),
    ("stock-check", 0.30),
)


def generate_cluster_arrivals(config: ClusterBenchConfig) -> list[tuple[float, Request]]:
    """Deterministic Poisson schedule of (offset, request) pairs."""
    config.validate()
    rng = random.Random(config.seed)
    ops = [op for op, _ in SINGLE_OPS]
    weights = [w for _, w in SINGLE_OPS]
    arrivals: list[tuple[float, Request]] = []
    at = 0.0
    index = 0
    while True:
        at += rng.expovariate(config.rate)
        if at >= config.duration:
            break
        rid = f"cb-{index}"
        if rng.random() < config.cross_fraction:
            a = rng.randrange(config.n_items)
            b = (a + 1 + rng.randrange(config.n_items - 1)) % config.n_items
            if rng.random() < 0.75:
                request = Request(
                    op="place",
                    customer_no=100 + index % 50,
                    deadline=config.deadline,
                    request_id=rid,
                    lines=((a, 1 + index % 3), (b, 1)),
                )
            else:
                request = Request(
                    op="total-payment",
                    deadline=config.deadline,
                    request_id=rid,
                    items=(a, b),
                )
        else:
            op = rng.choices(ops, weights=weights, k=1)[0]
            request = Request(
                op=op,
                item=rng.randrange(config.n_items),
                order_no=1 + rng.randrange(config.orders_per_item),
                customer_no=100 + index % 50,
                quantity=1 + rng.randrange(3),
                deadline=config.deadline,
                request_id=rid,
            )
        arrivals.append((at, request))
        index += 1
    return arrivals


@dataclass
class ClusterLoopResult:
    """What one cluster open-loop run measured."""

    n_shards: int
    config: ClusterBenchConfig
    offered: int = 0
    ok: int = 0
    aborted: int = 0
    failed: int = 0
    shed: int = 0
    unanswered: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    router_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def metrics_record(self) -> dict[str, float]:
        return {
            "offered": float(self.offered),
            "ok": float(self.ok),
            "aborted": float(self.aborted),
            "failed": float(self.failed),
            "shed": float(self.shed),
            "unanswered": float(self.unanswered),
            "goodput": round(self.goodput, 6),
            "shed_rate": round(self.shed_rate, 6),
            "p50_latency": round(percentile(self.latencies, 50), 6),
            "p95_latency": round(percentile(self.latencies, 95), 6),
            "p99_latency": round(percentile(self.latencies, 99), 6),
            "cross_shard": float(self.router_stats.get("cross_shard", 0)),
            "2pc_committed": float(self.router_stats.get("2pc_committed", 0)),
            "2pc_aborted": float(self.router_stats.get("2pc_aborted", 0)),
            "shard_down": float(self.router_stats.get("shard_down", 0)),
        }

    def to_dict(self) -> dict[str, Any]:
        doc = {"n_shards": self.n_shards, "config": self.config.to_dict()}
        doc.update(self.metrics_record())
        return doc


def run_cluster_open_loop(
    config: ClusterBenchConfig,
    n_shards: int,
    workdir: Optional[str] = None,
    settle_timeout: float = 30.0,
) -> ClusterLoopResult:
    """Boot a fresh cluster, replay the schedule through the router."""
    arrivals = generate_cluster_arrivals(config)
    result = ClusterLoopResult(
        n_shards=n_shards, config=config, offered=len(arrivals)
    )
    record_lock = threading.Lock()
    done = threading.Event()
    remaining = [len(arrivals)]

    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-bench-")
        workdir = own_dir.name
    cluster = LocalCluster(
        n_shards,
        workdir,
        shard_config=config.shard_config(),
        pool_size=config.pool_size,
    ).start()

    def fire(request: Request) -> None:
        submitted = time.monotonic()
        try:
            response = cluster.router.route_request(request)
        except Exception:  # noqa: BLE001 - counted, never raised mid-bench
            response = None
        latency = time.monotonic() - submitted
        with record_lock:
            if response is None:
                result.failed += 1
            elif response.status == "ok":
                result.ok += 1
                result.latencies.append(latency)
            elif response.status == "aborted":
                result.aborted += 1
            elif response.status == "shed":
                result.shed += 1
            else:
                result.failed += 1
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

    try:
        pool = ThreadPoolExecutor(max_workers=config.dispatchers)
        start = time.monotonic()
        if not arrivals:
            done.set()
        for at, request in arrivals:
            delay = start + at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pool.submit(fire, request)
        done.wait(settle_timeout)
        result.elapsed = time.monotonic() - start
        with record_lock:
            result.unanswered = remaining[0]
        result.router_stats = cluster.router.stats()
        pool.shutdown(wait=False)
    finally:
        cluster.stop()
        if own_dir is not None:
            own_dir.cleanup()
    return result


def sweep_shards(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    base: Optional[ClusterBenchConfig] = None,
) -> list[ClusterLoopResult]:
    """Run the shard-count sweep; the scaling curve's raw data."""
    base = base if base is not None else ClusterBenchConfig()
    return [run_cluster_open_loop(base, n_shards) for n_shards in shard_counts]


@dataclass
class BranchLatencyPoint:
    """Latency of one k-branch cross-shard read, both prepare modes."""

    branches: int
    samples: int
    parallel_p50: float
    parallel_p95: float
    sequential_p50: float
    sequential_p95: float

    @property
    def parallel_beats_sequential(self) -> bool:
        return self.parallel_p95 < self.sequential_p95


def run_branch_latency_sweep(
    n_shards: int = 4,
    branch_counts: tuple[int, ...] = (1, 2, 4),
    samples: int = 30,
    warmup: int = 5,
    think_cost: float = 20.0,
    time_scale: float = 0.001,
    n_items: int = 64,
) -> list[BranchLatencyPoint]:
    """Closed-loop latency of k-branch reads, parallel vs. sequential.

    One cluster at *n_shards*; for each k in *branch_counts* a
    ``total-payment`` touching k items on k **distinct** shards is
    driven one-at-a-time (closed loop — this measures the commit path's
    latency shape, not throughput) through two routers over the same
    shards and coordinator log: one with parallel prepare fan-out, one
    sequential.  Each branch costs ``think_cost * time_scale`` seconds
    of service, so sequential prepare is linear in k by construction and
    the parallel curve should stay flat-ish at the slowest branch.
    """
    if max(branch_counts) > n_shards:
        raise ValueError("branch count cannot exceed the shard count")
    shard_config = {
        "n_items": n_items,
        "orders_per_item": 2,
        "n_threads": 4,
        "time_scale": time_scale,
        "think_cost": think_cost,
        "max_inflight": 8,
        "queue_cap": 16,
        "default_deadline": 10.0,
        "group_commit_window": 0.0,
    }
    points: list[BranchLatencyPoint] = []
    with tempfile.TemporaryDirectory(prefix="repro-branch-bench-") as workdir:
        with LocalCluster(
            n_shards, workdir, shard_config=shard_config, pool_size=16
        ) as cluster:
            # One representative item per shard, smallest index first.
            item_of_shard: dict[int, int] = {}
            for item in range(n_items):
                item_of_shard.setdefault(cluster.router.shard_of_item(item), item)
            if len(item_of_shard) < max(branch_counts):
                raise RuntimeError(
                    f"ring left {len(item_of_shard)} of {n_shards} shards populated"
                )
            shard_items = [item_of_shard[s] for s in sorted(item_of_shard)]
            addresses = [shard.address for shard in cluster.shards]

            def measure(parallel: bool, k: int) -> tuple[float, float]:
                router = ClusterRouter(
                    addresses,
                    cluster.log,
                    pool_size=16,
                    obs=MetricsRegistry(thread_safe=True),
                    status_address="%s:%d" % cluster.wire.address,
                    parallel_prepare=parallel,
                )
                try:
                    items = tuple(shard_items[:k])
                    mode = "p" if parallel else "s"
                    latencies: list[float] = []
                    for i in range(warmup + samples):
                        request = Request(
                            op="total-payment",
                            items=items,
                            deadline=10.0,
                            request_id=f"bl-{mode}{k}-{i}",
                        )
                        started = time.monotonic()
                        response = router.route_request(request)
                        elapsed = time.monotonic() - started
                        if response.status != "ok":
                            raise RuntimeError(
                                f"branch sweep request failed: {response.to_dict()}"
                            )
                        if i >= warmup:
                            latencies.append(elapsed)
                    return percentile(latencies, 50), percentile(latencies, 95)
                finally:
                    router.close()

            for k in branch_counts:
                par_p50, par_p95 = measure(True, k)
                seq_p50, seq_p95 = measure(False, k)
                points.append(
                    BranchLatencyPoint(
                        branches=k,
                        samples=samples,
                        parallel_p50=par_p50,
                        parallel_p95=par_p95,
                        sequential_p50=seq_p50,
                        sequential_p95=seq_p95,
                    )
                )
    return points


def goodput_monotonic(results: list[ClusterLoopResult], slack: float = 0.95) -> bool:
    """Goodput must not drop as shards are added (tolerating noise).

    Each point must reach at least ``slack`` of the best goodput seen at
    any smaller shard count — strict monotonicity minus wall-clock
    jitter, while still failing a cluster that scales *down*.
    """
    ordered = sorted(results, key=lambda r: r.n_shards)
    best = 0.0
    for result in ordered:
        if result.goodput < slack * best:
            return False
        best = max(best, result.goodput)
    return True
