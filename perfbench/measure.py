"""One repetition of one workload: set up, warm up, time, audit, recover.

Closed loop: each of the two clients sends its next request only after
the previous answer.  End-to-end metrics come from what the clients saw;
the count rows come from deltas of public counters and file sizes taken
just before and just after the timed phase.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro.cluster.hashring import HashRing
from repro.server.requests import WRITE_OPS

from perfbench.audit import audit
from perfbench.loop import Sample, replay
from perfbench.spec import END_TO_END
from perfbench.stacks import make_stack, recover_crash_image
from perfbench.workloads import (CLIENTS, N_SHARDS, WARMUP_PER_CLIENT, WORKLOADS, op_kind,
                                 request_list)

PERCENTILE_FALLBACKS = (99, 98, 95, 90, 75, 50)
OPS = ("place", "pay", "ship", "restock", "stock-check", "total-payment")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of *values* (0 < p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = -(-len(ordered) * p // 100)  # ceil
    return ordered[max(1, int(rank)) - 1]


def admissible_percentile(n: int, wanted: int = 99) -> int:
    """The highest percentile <= *wanted* with at least ten of *n*
    samples beyond it (p99 needs 1000 samples)."""
    for p in PERCENTILE_FALLBACKS:
        if p <= wanted and n * (100 - p) >= 1000:
            return p
    return 50


# CPU time of loop.spin_cpu_seconds() on this sandbox when the host is
# quiet: the "reference machine" of the speed index.
REFERENCE_SPIN_S = 0.4e-3


def stolen_seconds() -> float:
    """CPU time the hypervisor gave to someone else (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(child_pids) -> float:
    """CPU (user+sys) of this process plus the given children."""
    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in child_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


@dataclass
class Rep:
    """Everything one repetition measured."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    ok: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)


def _ms(values, p: float = 50) -> float:
    return percentile(values, p) * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _end_to_end(rep: Rep, samples, kinds, cpu_s: float, delta) -> None:
    m = rep.metrics
    ok = [(s, k) for s, k in zip(samples, kinds) if s.response.ok]
    rep.attempted, rep.ok = len(samples), len(ok)
    if not ok:
        rep.notes.append("no request succeeded")
        return
    latencies = [s.end - s.start for s, _ in ok]
    wall = max(s.end for s in samples) - min(s.start for s in samples)
    m["throughput_rps"] = len(ok) / wall
    m["latency_p50_ms"] = _ms(latencies)
    p = admissible_percentile(len(latencies))
    m["latency_p99_ms"] = _ms(latencies, p)
    if p != 99:
        rep.notes.append(f"latency_p99_ms is p{p}: {len(latencies)} samples cannot carry p99")
    by_class = {
        "write_p50_ms": [s.end - s.start for s, k in ok if k in WRITE_OPS],
        "read_p50_ms": [s.end - s.start for s, k in ok if k == "stock-check"],
        "cross_p50_ms": [s.end - s.start for s, k in ok if k == "cross"],
    }
    for name, values in by_class.items():
        if values:
            m[name] = _ms(values)
    for op in OPS:
        values = [s.end - s.start for s, k in ok if k == op]
        if values:
            m[f"orderentry.{op}_p50_ms"] = _ms(values)
    m["cpu_ms_per_commit"] = cpu_s * 1e3 / len(ok)
    if "file.wal_bytes" in delta:
        log_bytes = delta["file.wal_bytes"] + delta.get("file.coordlog_bytes", 0)
        m["wal_bytes_per_commit"] = log_bytes / len(ok)
    m["server.queue_wait_p50_ms"] = _ms([s.response.queue_wait for s, _ in ok])
    statuses = [s.response.status for s in samples]
    m["server.shed_share"] = statuses.count("shed") / len(samples)
    m["server.aborted_share"] = statuses.count("aborted") / len(samples)


def _count_rows(rep: Rep, delta, ok: int, after) -> None:
    """The per-layer count rows, from counter deltas over the timed phase."""
    m = rep.metrics
    d = lambda name: delta.get(name, 0)  # noqa: E731
    if "kernel.commits" in delta:
        commits = d("kernel.commits")
        per_commit = {
            "core.actions_per_commit": "kernel.actions",
            "txn.lock_grants_per_commit": "lock.grants",
            "txn.conflict_tests_per_commit": "lock.conflict_tests",
            "txn.blocks_per_commit": "lock.blocks",
            "txn.reeval_passes_per_commit": "lock.reeval_passes",
            "runtime.steps_per_commit": "thread.steps",
            "runtime.coordinations_per_commit": "shard.coordinations",
            "runtime.stall_checks_per_commit": "thread.stall_checks",
        }
        for name, counter in per_commit.items():
            m[name] = _ratio(d(counter), commits)
        m["semantics.commute_cache_hit_rate"] = _ratio(
            d("cache.commute_hits"), d("cache.commute_hits") + d("cache.commute_misses"))
        m["core.relief_cache_hit_rate"] = _ratio(
            d("cache.relief_hits"), d("cache.relief_hits") + d("cache.relief_misses"))
        outcomes = sum(d("conflict." + c) for c in (
            "commutative", "same_transaction", "case1_relief", "case2_wait", "toplevel_wait"))
        for case in ("case1_relief", "case2_wait", "toplevel_wait"):
            m[f"core.{case}_share"] = _ratio(d("conflict." + case), outcomes)
        m["core.aborts_share"] = _ratio(d("kernel.aborts"), commits + d("kernel.aborts"))
        m["txn.timeouts_fired"] = d("timeout.fired")
        m["runtime.block_time_mean_ms"] = 1e3 * _ratio(
            d("thread.block_time.sum"), d("thread.block_time.count"))
        m["runtime.shard_contended_share"] = _ratio(d("shard.contended"), d("shard.steps"))
        m["server.deadline_interrupts"] = d("server.deadline_interrupts")
    if "wal.appends" in delta:
        commits = d("kernel.commits")
        m["storage.wal_appends_per_commit"] = _ratio(d("wal.appends"), commits)
        m["storage.fsyncs_per_commit"] = _ratio(d("wal.group_commit.syncs"), commits)
        m["storage.group_commit_batch_mean"] = _ratio(
            d("wal.group_commit.batch_size.sum"), d("wal.group_commit.batch_size.count"))
        m["storage.bufferpool_hit_rate"] = _ratio(
            d("bufferpool.hits"), d("bufferpool.hits") + d("bufferpool.misses"))
        m["storage.bufferpool_evictions_per_commit"] = _ratio(d("bufferpool.evictions"), commits)
        m["storage.bufferpool_writebacks_per_commit"] = _ratio(
            d("bufferpool.writebacks"), commits)
    if "file.pagefile_bytes" in after:
        m["storage.pagefile_bytes"] = after["file.pagefile_bytes"]
    if "cluster.requests" in delta:
        twopc = d("2pc.begun")
        m["cluster.cross_shard_share"] = _ratio(d("cluster.cross_shard"), d("cluster.requests"))
        m["cluster.twopc_abort_share"] = _ratio(d("2pc.aborted"), twopc)
        m["cluster.prepared_per_2pc"] = _ratio(d("2pc.prepared"), twopc)
        m["cluster.acks_inline_per_2pc"] = _ratio(d("2pc.ack.inline"), twopc)
        m["cluster.coordlog_bytes_per_2pc"] = _ratio(d("file.coordlog_bytes"), twopc)
        m["cluster.shard_wal_bytes_per_commit"] = _ratio(d("file.wal_bytes"), ok)
        m["cluster.shard_down"] = d("cluster.shard_down")
        m["server.deadline_interrupts"] = d("shards.deadline_interrupts")


def _to_reference_speed(m: dict[str, float]) -> None:
    """Restate the end-to-end timings at the reference machine speed.

    The host changes how fast it runs the same code by 25-30 % for
    minutes at a time (README, "Measured spread"); the fixed loop timed
    between requests sees most of it.  Raw values stay as ``raw.<name>``.
    """
    speed = m["bench.speed_index"] = REFERENCE_SPIN_S * 1e3 / m["bench.calib_spin_ms"]
    for metric in END_TO_END:
        if metric.name in m and metric.unit in ("ms", "s", "1/s"):
            raw = m["raw." + metric.name] = m[metric.name]
            m[metric.name] = raw / speed if metric.unit == "1/s" else raw * speed


def run_rep(workload: str, seed: int, n_ops: int, workdir: str, traced: bool = False,
            warmup: int = WARMUP_PER_CLIENT) -> Rep:
    """One repetition on a fresh stack under *workdir* (removed after)."""
    spec = WORKLOADS[workload]
    rep = Rep()
    per_client = max(1, n_ops // CLIENTS)
    timed_lists = [request_list(workload, seed, c, per_client) for c in range(CLIENTS)]
    warm_lists = [request_list(workload, seed, c, warmup, "warmup") for c in range(CLIENTS)]
    ring = HashRing(N_SHARDS) if spec.stack == "cluster" else None
    stack = make_stack(spec.stack, spec.n_items, workdir)
    clients = []
    try:
        started = time.perf_counter()
        stack.start()
        clients = [stack.client() for _ in range(CLIENTS)]
        exchanges = [(s.request, s.response) for s in replay(clients, warm_lists)]
        rep.metrics["setup_s"] = time.perf_counter() - started
        if spec.stack == "cluster":
            rep.metrics["cluster.shard_boot_s"] = stack.boot_s

        before, cpu_before = stack.counts(), cpu_seconds(stack.child_pids)
        stolen_before, timed_started = stolen_seconds(), time.perf_counter()
        spins: list[float] = []
        samples = replay(clients, timed_lists, traced, spins)
        image = stack.crash_image() if spec.stack == "wire_durable" else None
        cpu_s = cpu_seconds(stack.child_pids) - cpu_before
        rep.metrics["bench.steal_share"] = (stolen_seconds() - stolen_before) / (
            (time.perf_counter() - timed_started) * os.cpu_count())
        after = stack.counts()
        delta = {name: value - before.get(name, 0) for name, value in after.items()}

        kinds = [op_kind(s.request, ring) for s in samples]
        _end_to_end(rep, samples, kinds, cpu_s, delta)
        rep.metrics["bench.calib_spin_ms"] = statistics.fmean(spins) * 1e3
        _count_rows(rep, delta, rep.ok, after)
        if traced:
            rep.samples = samples
        exchanges += [(s.request, s.response) for s in samples]
        for s in samples:
            if not s.response.ok:
                rep.notes.append(f"{s.request.request_id} {s.request.op}: "
                                 f"{s.response.status} {s.response.error}")

        if spec.stack == "cluster":
            # After SIGKILL + restart the audit runs against what the
            # shards recovered from their own files.
            for client in clients:
                client.close()
            rep.metrics["recovery_s"] = stack.kill_and_restart()
            clients = [stack.client() for _ in range(CLIENTS)]
        lost = audit(exchanges, clients, spec.n_items)
        rep.violations += lost
        for client in clients:
            client.close()
        clients = []
        if not stack.stop():
            rep.violations.append("drain was not clean")
        if image is not None:
            rep.metrics["recovery_s"], recovered = recover_crash_image(image, spec.n_items)
            try:
                lost = audit(exchanges, [recovered.client()], spec.n_items)
            finally:
                recovered.stop()
            rep.violations += [f"after recovery: {v}" for v in lost]
        rep.metrics["acked_lost"] = len(lost)
        _to_reference_speed(rep.metrics)
    finally:
        for client in clients:
            client.close()
        stack.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return rep
