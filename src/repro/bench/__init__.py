"""Benchmark harness: closed-loop workload runs, sweeps, reporting."""

from repro.bench.metrics import RunMetrics, aggregate, percentile
from repro.bench.harness import DEFAULT_COST_MODEL, run_closed_loop, sweep_protocols
from repro.bench.baseline import (
    BASELINE_WORKLOADS,
    collect_baseline,
    diff,
    load_baseline,
    write_baseline,
)
from repro.bench.report import (
    format_conflict_breakdown,
    format_counters,
    format_gauges,
    format_histograms,
    format_markdown_table,
    format_table,
)

__all__ = [
    "RunMetrics",
    "aggregate",
    "percentile",
    "DEFAULT_COST_MODEL",
    "run_closed_loop",
    "sweep_protocols",
    "BASELINE_WORKLOADS",
    "collect_baseline",
    "diff",
    "load_baseline",
    "write_baseline",
    "format_conflict_breakdown",
    "format_counters",
    "format_gauges",
    "format_histograms",
    "format_table",
    "format_markdown_table",
]
