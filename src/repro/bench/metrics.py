"""Metrics extracted from kernel runs for the performance study.

:func:`collect` reads a finished kernel's observability registry (one
:class:`~repro.obs.Snapshot` per run) rather than scraping ad-hoc
counters off individual components; :class:`RunMetrics` keeps the flat,
table-friendly shape the benches render, and carries the full snapshot
for anything the flat fields do not cover (histograms, the
conflict-case breakdown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.obs import Snapshot
from repro.obs.cases import (
    CASE1_RELIEF,
    CASE2_WAIT,
    CASE_COMMUTATIVE,
    CASE_TOPLEVEL_WAIT,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import TransactionManager


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 on empty input.

    The value at 1-based rank ``ceil(p/100 * n)`` of the sorted input —
    always an observed sample, never an interpolation.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


@dataclass
class RunMetrics:
    """Aggregated outcome of one workload run."""

    protocol: str
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    deadlocks: int = 0
    blocks: int = 0
    subtxn_restarts: int = 0
    compensations: int = 0
    actions: int = 0
    clock: float = 0.0
    total_response: float = 0.0
    max_locks_held: int = 0
    # Virtual response time of every committed transaction, sorted
    # ascending — percentiles over virtual time are exactly reproducible,
    # which is what lets BENCH_baseline.json pin p50/p95 exactly.
    response_times: tuple[float, ...] = ()
    snapshot: Optional[Snapshot] = field(default=None, repr=False, compare=False)

    @property
    def throughput(self) -> float:
        """Committed transactions per unit of virtual time."""
        if self.clock <= 0:
            return float(self.committed)
        return self.committed / self.clock

    @property
    def mean_response(self) -> float:
        """Mean virtual response time of committed transactions."""
        if not self.committed:
            return 0.0
        return self.total_response / self.committed

    @property
    def blocking_rate(self) -> float:
        """Lock waits per executed action."""
        if not self.actions:
            return 0.0
        return self.blocks / self.actions

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        if not total:
            return 0.0
        return self.aborted / total

    # ------------------------------------------------------------------
    # Conflict-case accounting (from the snapshot; 0 when absent)
    # ------------------------------------------------------------------
    def _case(self, name: str) -> int:
        return self.snapshot.counter(name) if self.snapshot is not None else 0

    @property
    def commutative_grants(self) -> int:
        return self._case(CASE_COMMUTATIVE)

    @property
    def case1_reliefs(self) -> int:
        return self._case(CASE1_RELIEF)

    @property
    def case2_waits(self) -> int:
        return self._case(CASE2_WAIT)

    @property
    def toplevel_waits(self) -> int:
        return self._case(CASE_TOPLEVEL_WAIT)

    # ------------------------------------------------------------------
    # Lock-manager work accounting (from the snapshot; 0 when absent)
    # ------------------------------------------------------------------
    @property
    def conflict_tests(self) -> int:
        """Fig. 9 conflict-test invocations over the whole run."""
        return self._case("lock.conflict_tests")

    @property
    def release_ops(self) -> int:
        """Bulk release/reassign operations (commit/abort boundaries)."""
        return self._case("lock.release_ops")

    # ------------------------------------------------------------------
    # Fault plane (from the snapshot; 0 when absent or no plan bound)
    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        """Faults fired by the bound :class:`~repro.faults.FaultPlan`."""
        return self._case("fault.injected")

    @property
    def timeouts_fired(self) -> int:
        """Lock-wait timers that expired (a wait outlived its budget)."""
        return self._case("timeout.fired")

    @property
    def retries_exhausted(self) -> int:
        """Transactions escalated to abort after burning the retry budget."""
        return self._case("retry.exhausted")

    @property
    def p50_response(self) -> float:
        return percentile(self.response_times, 50)

    @property
    def p95_response(self) -> float:
        return percentile(self.response_times, 95)

    @property
    def conflict_tests_per_release(self) -> float:
        """Mean conflict tests paid per release operation.

        The headline figure for the indexed lock manager: with dirty-mark
        re-evaluation this tracks the number of *affected* requests, not
        the table size.
        """
        if not self.release_ops:
            return float(self.conflict_tests)
        return self.conflict_tests / self.release_ops

    def row(self) -> dict[str, float | int | str]:
        """Flat dict for table rendering."""
        return {
            "protocol": self.protocol,
            "committed": self.committed,
            "aborted": self.aborted,
            "throughput": round(self.throughput, 4),
            "mean_resp": round(self.mean_response, 2),
            "blocks": self.blocks,
            "block_rate": round(self.blocking_rate, 4),
            "deadlocks": self.deadlocks,
            "restarts": self.subtxn_restarts,
            "max_locks": self.max_locks_held,
            "ct_per_rel": round(self.conflict_tests_per_release, 2),
        }


def collect(kernel: "TransactionManager", protocol_name: str, retries: int = 0) -> RunMetrics:
    """Snapshot a finished kernel's registry into a :class:`RunMetrics`."""
    snapshot = kernel.obs.snapshot()
    metrics = RunMetrics(protocol=protocol_name, retries=retries, snapshot=snapshot)
    metrics.deadlocks = snapshot.counter("kernel.deadlocks")
    metrics.blocks = snapshot.counter("kernel.blocks")
    metrics.subtxn_restarts = snapshot.counter("kernel.subtxn_restarts")
    metrics.compensations = snapshot.counter("kernel.compensations")
    metrics.actions = snapshot.counter("kernel.actions")
    metrics.clock = kernel.scheduler.clock
    metrics.max_locks_held = int(snapshot.gauge_hwm("lock.held"))
    response_times = []
    for handle in kernel.handles.values():
        if handle.committed:
            metrics.committed += 1
            metrics.total_response += handle.response_time
            response_times.append(handle.response_time)
        elif handle.aborted:
            metrics.aborted += 1
    metrics.response_times = tuple(sorted(response_times))
    return metrics


def aggregate(runs: list[RunMetrics]) -> RunMetrics:
    """Sum counters (and clocks) across repeated runs of one protocol."""
    if not runs:
        raise ValueError("nothing to aggregate")
    total = RunMetrics(protocol=runs[0].protocol)
    for run in runs:
        total.committed += run.committed
        total.aborted += run.aborted
        total.retries += run.retries
        total.deadlocks += run.deadlocks
        total.blocks += run.blocks
        total.subtxn_restarts += run.subtxn_restarts
        total.compensations += run.compensations
        total.actions += run.actions
        total.clock += run.clock
        total.total_response += run.total_response
        total.response_times = tuple(
            sorted(total.response_times + run.response_times)
        )
        total.max_locks_held = max(total.max_locks_held, run.max_locks_held)
        if run.snapshot is not None:
            total.snapshot = (
                run.snapshot
                if total.snapshot is None
                else total.snapshot.merged(run.snapshot)
            )
    return total
