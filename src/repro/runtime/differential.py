"""Differential harness: virtual-time scheduler vs. threaded runtime.

The deterministic virtual-time :class:`~repro.runtime.scheduler.Scheduler`
is the oracle for the threaded engine: both runtimes replay the *same*
seeded order-entry workload (the stream is a pure function of its
config, so two :class:`OrderEntryWorkload` instantiations yield
corresponding programs), and the report cross-checks the outcomes:

* **identical serializability verdicts** — both histories must pass
  :func:`is_semantically_serializable`;
* **committed-state equivalence** — each runtime's final database state
  must equal a fresh serial execution of *its own* committed
  transactions in the serial order the checker found.  The committed
  sets themselves may legitimately differ between runtimes (deadlock
  victims depend on timing), which is exactly why each run is compared
  against its own serial oracle rather than against the other run.

Used by ``tests/test_runtime_differential.py`` (seeds x all six
protocols) and by ``repro check --runtime threaded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.kernel import run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.faults.torture import state_of
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.protocols import protocol_by_name, protocols_by_name
from repro.runtime.threaded import run_threaded_transactions

@dataclass(frozen=True)
class RuntimeOutcome:
    """What one runtime did with the workload."""

    runtime: str
    committed: tuple[str, ...]
    aborted: tuple[str, ...]
    serializable: bool
    serial_order: tuple[str, ...]
    state_matches_serial: bool
    # The checker's search budget ran out: nothing was refuted, but
    # nothing was proven either (``serializable`` is then False).
    unknown: bool = False

    @property
    def ok(self) -> bool:
        return self.serializable and self.state_matches_serial

    @property
    def verdict(self) -> str:
        return "unknown" if self.unknown else str(self.serializable)


@dataclass(frozen=True)
class DifferentialReport:
    """The cross-check of one seeded workload under one protocol."""

    protocol: str
    seed: int
    n_transactions: int
    virtual: RuntimeOutcome
    threaded: RuntimeOutcome

    @property
    def verdicts_identical(self) -> bool:
        return self.virtual.verdict == self.threaded.verdict

    @property
    def ok(self) -> bool:
        return self.verdicts_identical and self.virtual.ok and self.threaded.ok

    def summary(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return (
            f"[{mark}] {self.protocol} seed={self.seed}: "
            f"virtual committed={len(self.virtual.committed)} "
            f"serializable={self.virtual.verdict} "
            f"state={'=' if self.virtual.state_matches_serial else '!='}serial | "
            f"threaded committed={len(self.threaded.committed)} "
            f"serializable={self.threaded.verdict} "
            f"state={'=' if self.threaded.state_matches_serial else '!='}serial"
        )


def _workload_config(
    seed: int, n_items: int, orders_per_item: int, mix: Optional[dict] = None
) -> WorkloadConfig:
    kwargs = {"n_items": n_items, "orders_per_item": orders_per_item, "seed": seed}
    if mix is not None:
        kwargs["mix"] = dict(mix)
    return WorkloadConfig(**kwargs)


def _outcome(runtime: str, kernel, config: WorkloadConfig, n_transactions: int) -> RuntimeOutcome:
    """Classify one finished run and compare it to its serial oracle."""
    committed = tuple(
        sorted(name for name, handle in kernel.handles.items() if handle.committed)
    )
    aborted = tuple(
        sorted(name for name, handle in kernel.handles.items() if handle.aborted)
    )
    verdict = is_semantically_serializable(kernel.history(), db=kernel.db)
    serial_order = tuple(verdict.serial_order or committed)
    if not verdict.serializable:
        return RuntimeOutcome(
            runtime, committed, aborted, False, serial_order, False, verdict.exhausted
        )
    # Serial oracle: a fresh instantiation of the same seeded workload,
    # replaying exactly this run's committed transactions one at a time
    # in the serial order the checker found.
    oracle = OrderEntryWorkload(config)
    oracle_programs = dict(oracle.take(n_transactions))
    for name in serial_order:
        run_transactions(oracle.db, {name: oracle_programs[name]})
    matches = state_of(kernel.db) == state_of(oracle.db)
    return RuntimeOutcome(runtime, committed, aborted, True, serial_order, matches)


def run_differential(
    protocol: str,
    seed: int,
    n_transactions: int = 6,
    n_items: int = 2,
    orders_per_item: int = 2,
    mix: Optional[dict] = None,
    n_threads: int = 4,
    time_scale: float = 0.0,
) -> DifferentialReport:
    """Replay one seeded workload through both runtimes and cross-check."""
    factory = protocol_by_name(protocol)
    config = _workload_config(seed, n_items, orders_per_item, mix)

    virtual_workload = OrderEntryWorkload(config)
    virtual_programs = dict(virtual_workload.take(n_transactions))
    virtual_kernel = run_transactions(virtual_workload.db, virtual_programs, protocol=factory())
    virtual = _outcome("virtual", virtual_kernel, config, n_transactions)

    threaded_workload = OrderEntryWorkload(config)
    threaded_programs = dict(threaded_workload.take(n_transactions))
    threaded_kernel = run_threaded_transactions(
        threaded_workload.db,
        threaded_programs,
        protocol=factory(),
        n_threads=n_threads,
        time_scale=time_scale,
    )
    threaded_kernel.locks.check_invariants()
    threaded = _outcome("threaded", threaded_kernel, config, n_transactions)

    return DifferentialReport(
        protocol=protocol,
        seed=seed,
        n_transactions=n_transactions,
        virtual=virtual,
        threaded=threaded,
    )


def run_differential_sweep(
    seeds,
    protocols=None,
    **kwargs,
) -> list[DifferentialReport]:
    """One report per (protocol, seed) pair; see :func:`run_differential`."""
    reports = []
    for protocol in protocols if protocols is not None else protocols_by_name():
        for seed in seeds:
            reports.append(run_differential(protocol, seed, **kwargs))
    return reports
