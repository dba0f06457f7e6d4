"""The committed virtual-path baseline and its exact diff.

``repro bench --baseline`` runs a fixed set of P1/P2-shaped closed-loop
workloads under the semantic protocol and writes a schema-versioned
``BENCH_baseline.json`` that gets committed to the repository.

Everything measured here is **virtual-time deterministic**: the
scheduler is seeded, the clock is discrete-event, and the cost model is
fixed, so throughput, percentiles, and conflict-test counts reproduce
exactly for a given workload spec.  There is no run-to-run noise to
absorb, so the gate is equality: Tier-1 requires a fresh run to be
byte-identical to the committed file, and :func:`diff`
(``repro bench --compare PATH``) names every value that moved.  A PR
that changes blocking behaviour on purpose re-commits the file.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.bench.harness import DEFAULT_COST_MODEL, run_closed_loop
from repro.bench.metrics import RunMetrics
from repro.core.protocol import SemanticLockingProtocol
from repro.orderentry.workload import WorkloadConfig

SCHEMA = "repro-bench-baseline"
SCHEMA_VERSION = 1

#: The baseline workloads: two points of the P1 MPL sweep (bench_common.
#: sweep_mpl shape: 3 items x 3 orders, seed 11) and the hot / cold
#: extremes of the P2 contention sweep (mpl 6, seed 23 + n_items).
BASELINE_WORKLOADS: dict[str, dict] = {
    "p1_mpl4": {"n_items": 3, "orders_per_item": 3, "seed": 11, "mpl": 4, "n_transactions": 30},
    "p1_mpl8": {"n_items": 3, "orders_per_item": 3, "seed": 11, "mpl": 8, "n_transactions": 30},
    "p2_hot": {"n_items": 1, "orders_per_item": 3, "seed": 24, "mpl": 6, "n_transactions": 30},
    "p2_cold": {"n_items": 8, "orders_per_item": 3, "seed": 31, "mpl": 6, "n_transactions": 30},
}

#: Metrics recorded per workload; every one of them is compared exactly.
RECORDED_METRICS = (
    "throughput",
    "committed",
    "aborted",
    "clock",
    "mean_response",
    "p50_response",
    "p95_response",
    "conflict_tests",
    "release_ops",
    "conflict_tests_per_release",
)


def run_baseline_workload(name: str, spec: Optional[dict] = None) -> RunMetrics:
    """Run one named baseline workload under the semantic protocol."""
    spec = spec if spec is not None else BASELINE_WORKLOADS[name]
    config = WorkloadConfig(
        n_items=spec["n_items"],
        orders_per_item=spec["orders_per_item"],
        seed=spec["seed"],
    )
    return run_closed_loop(
        SemanticLockingProtocol,
        config,
        n_transactions=spec["n_transactions"],
        mpl=spec["mpl"],
    )


def metrics_record(metrics: RunMetrics) -> dict[str, float]:
    """The flat, JSON-friendly slice of a run the baseline records."""
    record = {}
    for name in RECORDED_METRICS:
        value = getattr(metrics, name)
        record[name] = round(float(value), 6)
    return record


def collect_baseline(
    workloads: Optional[dict[str, dict]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run every baseline workload and assemble the baseline document."""
    workloads = workloads if workloads is not None else BASELINE_WORKLOADS
    doc: dict = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "protocol": "semantic",
        "cost_model": {
            "generic_op": DEFAULT_COST_MODEL.generic_op,
            "method_op": DEFAULT_COST_MODEL.method_op,
            "transaction_setup": DEFAULT_COST_MODEL.transaction_setup,
        },
        "workloads": {},
    }
    for name, spec in workloads.items():
        if progress is not None:
            progress(name)
        metrics = run_baseline_workload(name, spec)
        doc["workloads"][name] = {
            "config": dict(spec),
            "metrics": metrics_record(metrics),
        }
    return doc


def write_baseline(path: str, doc: Optional[dict] = None) -> dict:
    doc = doc if doc is not None else collect_baseline()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def diff(baseline: dict, fresh: dict) -> list[str]:
    """Every way *fresh* differs from the committed *baseline*; empty = equal.

    One line per problem: a schema or version mismatch (nothing else is
    compared then), a baseline workload the fresh run lacks, a workload
    whose config drifted, a missing metric, and
    ``workload.metric: committed -> fresh`` for each value that moved.
    Extra fresh workloads are ignored — a PR may widen the set before
    re-committing the baseline.
    """
    problems = []
    for doc, label in ((baseline, "baseline"), (fresh, "fresh")):
        if doc.get("schema") != SCHEMA:
            problems.append(f"{label}: not a {SCHEMA!r} document")
        elif doc.get("schema_version") != SCHEMA_VERSION:
            problems.append(
                f"{label}: schema_version {doc.get('schema_version')!r} != "
                f"{SCHEMA_VERSION} — regenerate with 'repro bench --baseline'"
            )
    if problems:
        return problems
    for name, entry in baseline["workloads"].items():
        fresh_entry = fresh["workloads"].get(name)
        if fresh_entry is None:
            problems.append(f"fresh run is missing workload {name!r}")
            continue
        if fresh_entry.get("config") != entry.get("config"):
            problems.append(
                f"workload {name!r} config drifted: baseline "
                f"{entry.get('config')} != fresh {fresh_entry.get('config')}"
            )
            continue
        for metric, committed in entry["metrics"].items():
            value = fresh_entry["metrics"].get(metric)
            if value is None:
                problems.append(f"{name}: fresh run lacks metric {metric!r}")
            elif value != committed:
                problems.append(f"{name}.{metric}: {committed} -> {value}")
    return problems
