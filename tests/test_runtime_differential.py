"""Differential tests: threaded runtime vs. the virtual-time oracle.

The acceptance bar from the runtime issue: identical serializability
verdicts and committed-state equivalence on >= 20 seeded workloads
across all six protocols.  4 seeds x 6 protocols = 24 workloads here,
plus a handful of shape/diagnostic cases.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.kernel import TransactionManager, run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.protocols import protocol_by_name, protocols_by_name
from repro.runtime.differential import (
    run_differential,
    run_differential_sweep,
)
from repro.runtime.threaded import run_threaded_transactions

SEEDS = (0, 1, 2, 3)

# The naive open-nested protocol is deliberately unsound under the
# encapsulation-bypassing T3/T4 status checks (the Fig. 5 anomaly the
# torture harness documents), and whether the anomaly manifests depends
# on the interleaving — so the full-equivalence sweep runs it on the
# bypass-free mix, where it is sound.  The default mix is covered by
# test_naive_protocol_anomaly_agreement below.
NO_BYPASS_MIX = {"T1": 1.0, "T2": 1.0, "T5": 1.0}
PROTOCOL_MIX = {"open-nested-naive": NO_BYPASS_MIX}


@pytest.mark.parametrize("protocol", sorted(protocols_by_name()))
@pytest.mark.parametrize("seed", SEEDS)
def test_runtimes_agree(protocol: str, seed: int) -> None:
    report = run_differential(
        protocol, seed=seed, n_transactions=6, mix=PROTOCOL_MIX.get(protocol)
    )
    assert report.verdicts_identical, report.summary()
    assert report.virtual.serializable, report.summary()
    assert report.threaded.serializable, report.summary()
    assert report.virtual.state_matches_serial, report.summary()
    assert report.threaded.state_matches_serial, report.summary()


def test_naive_protocol_anomaly_agreement() -> None:
    # Under the default mix (with T3/T4 bypass reads) the naive protocol
    # produces a non-serializable history on the deterministic virtual
    # run.  Whether the *threaded* run hits the anomaly depends on the
    # interleaving, so "same verdict" is not a guarantee; the threaded
    # half is test_naive_protocol_threaded_verdict_is_self_consistent.
    workload = OrderEntryWorkload(WorkloadConfig(n_items=2, orders_per_item=2, seed=0))
    kernel = run_transactions(
        workload.db,
        dict(workload.take(6)),
        protocol=protocol_by_name("open-nested-naive")(),
    )
    verdict = is_semantically_serializable(kernel.history(), db=workload.db)
    assert not verdict.serializable and not verdict.exhausted  # a proof, not a budget


@pytest.mark.slow
def test_naive_protocol_threaded_verdict_is_self_consistent() -> None:
    # Nightly (threaded-stress): whichever verdict a runtime reaches, it
    # agrees with that runtime's own state-vs-serial-replay check.
    report = run_differential("open-nested-naive", seed=0, n_transactions=6)
    assert not report.virtual.serializable, report.summary()
    for outcome in (report.virtual, report.threaded):
        assert outcome.state_matches_serial == outcome.serializable, report.summary()


def test_exhausted_budget_is_its_own_verdict(monkeypatch) -> None:
    """A search that ran out of budget is "unknown", not a refutation."""
    import repro.runtime.differential as differential

    monkeypatch.setattr(
        differential,
        "is_semantically_serializable",
        partial(is_semantically_serializable, budget=1),
    )
    report = run_differential("semantic", seed=7, n_transactions=5)
    for outcome in (report.virtual, report.threaded):
        assert outcome.unknown and outcome.verdict == "unknown"
        assert not outcome.ok
    assert report.verdicts_identical and not report.ok
    assert "serializable=unknown" in report.summary()


def test_report_accounts_for_every_transaction() -> None:
    report = run_differential("semantic", seed=7, n_transactions=5)
    for outcome in (report.virtual, report.threaded):
        assert len(outcome.committed) + len(outcome.aborted) == 5
        # the serial order covers exactly the committed set
        assert sorted(outcome.serial_order) == list(outcome.committed)


def test_higher_contention_single_item() -> None:
    # n_items=1 maximises collisions (every transaction hits the same
    # item); the cross-check must still hold.
    report = run_differential(
        "semantic", seed=11, n_transactions=6, n_items=1, orders_per_item=3
    )
    assert report.ok, report.summary()


def test_sweep_helper_covers_grid() -> None:
    reports = run_differential_sweep(
        seeds=(5,), protocols=("semantic", "object-rw-2pl"), n_transactions=4
    )
    assert len(reports) == 2
    assert {r.protocol for r in reports} == {"semantic", "object-rw-2pl"}
    assert all(r.ok for r in reports), [r.summary() for r in reports]


@pytest.mark.parametrize("protocol", sorted(protocols_by_name()))
def test_serial_runs_count_the_same_lock_work(protocol: str) -> None:
    """One request list, one transaction at a time, under both runtimes:
    the striped table grants as many locks and counts one release
    operation per operation — not one per stripe visited."""
    config = WorkloadConfig(n_items=2, orders_per_item=2, seed=3)
    workload = OrderEntryWorkload(config)
    virtual = TransactionManager(workload.db, protocol=protocol_by_name(protocol)())
    for name, program in workload.take(8):
        virtual.spawn(name, program)
        virtual.run()
    workload = OrderEntryWorkload(config)
    threaded = run_threaded_transactions(
        workload.db, workload.take(8), protocol=protocol_by_name(protocol)(), n_threads=1
    )
    threaded.locks.check_invariants()
    assert sorted(h.committed for h in virtual.handles.values()) == sorted(
        h.committed for h in threaded.handles.values()
    )
    serial, striped = virtual.obs.snapshot(), threaded.obs.snapshot()
    assert serial.counter("kernel.blocks") == striped.counter("kernel.blocks") == 0
    for name in ("lock.grants", "lock.release_ops", "lock.reeval_passes"):
        assert striped.counter(name) == serial.counter(name) > 0, name
