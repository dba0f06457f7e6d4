"""The metrics the benchmark declares: names, units, directions, bounds.

``BENCHMARK.json`` is ``benchmark_json()`` written out; a self-test keeps
the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.workloads import WORKLOADS

DEFAULT_SECONDS = 12
DEFAULT_REPS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    rel: float = 0.0  # share of the base median it may worsen by ...
    floor: float = 0.0  # ... or this much in its unit, whichever is larger
    gated: bool = True  # declared end_to_end in BENCHMARK.json


# The issue's twelve end-to-end metrics; `run.py --compare` applies all
# of these bounds.  BENCHMARK.json can gate a metric only if it exists
# and is non-zero on every workload, and only if it repeats within its
# bound on this machine (README, "Measured spread"); the others are
# declared per-layer there.  0.25 is the widest bound the driver takes.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, 0.3),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25, 0.2),
    Metric("latency_p99_ms", "ms", "lower", 0.25, 1.0, gated=False),  # too unsteady
    Metric("write_p50_ms", "ms", "lower", 0.25, 0.2),
    Metric("read_p50_ms", "ms", "lower", 0.25, 0.2),
    Metric("cpu_ms_per_commit", "ms", "lower", 0.25),
    Metric("cross_p50_ms", "ms", "lower", 0.25, 0.5, gated=False),  # cluster_2pc only
    Metric("wal_bytes_per_commit", "B", "lower", 0.02, gated=False),  # durable stacks only
    Metric("recovery_s", "s", "lower", 0.25, 0.2, gated=False),  # durable stacks only
    Metric("failed_share", "ratio", "lower", gated=False),  # 0 at the baseline
    Metric("acked_lost", "count", "lower", gated=False),  # 0 at the baseline
)
GATED = tuple(m for m in END_TO_END if m.gated)

_L, _H = "lower", "higher"
PER_LAYER = tuple(Metric(*row) for row in (
    # ladder rungs (means and medians of one client on a fresh stack)
    ("core.kernel_mean_us", "us", _L),
    ("server.submit_mean_us", "us", _L), ("server.submit_p50_us", "us", _L),
    ("server.wire_mean_us", "us", _L), ("server.wire_p50_us", "us", _L),
    ("storage.durable_mean_us", "us", _L), ("storage.durable_p50_us", "us", _L),
    ("cluster.shard_direct_mean_us", "us", _L), ("cluster.shard_direct_p50_us", "us", _L),
    ("cluster.router_mean_us", "us", _L), ("cluster.router_p50_us", "us", _L),
    ("cluster.routerwire_mean_us", "us", _L), ("cluster.routerwire_p50_us", "us", _L),
    # ladder differences
    ("server.core_self_us", "us", _L), ("server.wire_self_us", "us", _L),
    ("server.wire_self_check_us", "us", _L),
    ("storage.durable_self_us", "us", _L), ("storage.pool_fit_delta_us", "us", _L),
    ("cluster.router_self_us", "us", _L), ("cluster.routerwire_self_us", "us", _L),
    ("cluster.twopc_self_us", "us", _L),
    ("bench.ladder_top_mean_us", "us", _L), ("bench.ladder_residual_us", "us", _L),
    # counts over the timed phase
    ("core.actions_per_commit", "count", _L), ("txn.lock_grants_per_commit", "count", _L),
    ("txn.conflict_tests_per_commit", "count", _L), ("runtime.steps_per_commit", "count", _L),
    ("runtime.coordinations_per_commit", "count", _L),
    ("semantics.commute_cache_hit_rate", "ratio", _H), ("core.relief_cache_hit_rate", "ratio", _H),
    ("txn.blocks_per_commit", "count", _L), ("txn.reeval_passes_per_commit", "count", _L),
    ("core.case1_relief_share", "ratio", _H), ("core.case2_wait_share", "ratio", _L),
    ("core.toplevel_wait_share", "ratio", _L), ("core.aborts_share", "ratio", _L),
    ("txn.timeouts_fired", "count", _L),
    ("runtime.block_time_mean_ms", "ms", _L), ("runtime.stall_checks_per_commit", "count", _L),
    ("runtime.shard_contended_share", "ratio", _L),
    ("server.queue_wait_p50_ms", "ms", _L), ("server.shed_share", "ratio", _L),
    ("server.aborted_share", "ratio", _L), ("server.deadline_interrupts", "count", _L),
    ("storage.wal_appends_per_commit", "count", _L), ("storage.fsyncs_per_commit", "count", _L),
    ("storage.group_commit_batch_mean", "count", _H), ("storage.bufferpool_hit_rate", "ratio", _H),
    ("storage.bufferpool_evictions_per_commit", "count", _L),
    ("storage.bufferpool_writebacks_per_commit", "count", _L),
    ("storage.pagefile_bytes", "B", _L),
    ("cluster.cross_shard_share", "ratio", _L), ("cluster.twopc_abort_share", "ratio", _L),
    ("cluster.prepared_per_2pc", "count", _L), ("cluster.acks_inline_per_2pc", "count", _H),
    ("cluster.coordlog_bytes_per_2pc", "B", _L), ("cluster.shard_wal_bytes_per_commit", "B", _L),
    ("cluster.shard_down", "count", _L), ("cluster.shard_boot_s", "s", _L),
    # isolated probes of public functions
    ("obs.counter_inc_ns", "ns", _L), ("server.build_program_us", "us", _L),
    ("server.admission_cycle_us", "us", _L), ("server.codec_us", "us", _L),
    ("storage.device_fsync_us", "us", _L), ("storage.concurrent_alloc_failures", "count", _L),
    ("cluster.coordlog_decide_us", "us", _L),
    # per-operation medians
    ("orderentry.place_p50_ms", "ms", _L), ("orderentry.pay_p50_ms", "ms", _L),
    ("orderentry.ship_p50_ms", "ms", _L), ("orderentry.restock_p50_ms", "ms", _L),
    ("orderentry.stock-check_p50_ms", "ms", _L), ("orderentry.total-payment_p50_ms", "ms", _L),
    # the benchmark itself
    ("bench.trace_overhead_share", "ratio", _L), ("bench.calib_spin_ms", "ms", _L),
    ("bench.steal_share", "ratio", _L), ("bench.speed_index", "ratio", _H),
)) + tuple(m for m in END_TO_END if not m.gated) + tuple(
    # as measured, before restating at the reference machine speed
    Metric("raw." + m.name, m.unit, m.better) for m in END_TO_END if m.unit in ("ms", "s", "1/s"))

ALL_METRICS = {m.name: m for m in GATED + PER_LAYER}


def benchmark_json() -> dict:
    """The document the driver reads; only relative bounds fit there."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.rel} for m in GATED
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
