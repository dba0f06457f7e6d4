"""Soak tests: larger workloads through every protocol, no wreckage.

These runs are too large for the reduction checker (hundreds of leaves);
they assert operational invariants instead: every transaction reaches a
terminal state, no locks / queue entries / wait edges leak, restarts and
deadlocks stay bounded, and the kernel never stalls.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_closed_loop
from repro.core.protocol import SemanticLockingProtocol, SemanticNoReliefProtocol
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.protocols.closed_nested import ClosedNestedProtocol
from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol
from repro.protocols.two_phase_object import ObjectRW2PLProtocol
from repro.protocols.two_phase_page import PageLockingProtocol

from tests.helpers import run_programs

ALL = [
    SemanticLockingProtocol,
    SemanticNoReliefProtocol,
    OpenNestedNaiveProtocol,
    ClosedNestedProtocol,
    ObjectRW2PLProtocol,
    PageLockingProtocol,
]


@pytest.mark.parametrize("protocol_cls", ALL, ids=lambda c: c.name)
def test_soak_concurrent_batch(protocol_cls):
    """60 mixed transactions, 12-way concurrent, full mix incl. T0."""
    config = WorkloadConfig(
        n_items=4,
        orders_per_item=3,
        mix={"T0": 0.5, "T1": 1.0, "T2": 1.0, "T3": 0.7, "T4": 0.7, "T5": 0.5},
        seed=99,
    )
    workload = OrderEntryWorkload(config)
    programs = dict(workload.take(60))
    kernel = run_programs(
        workload.db, programs, protocol=protocol_cls(), policy="random", seed=99
    )
    terminal = sum(1 for h in kernel.handles.values() if h.committed or h.aborted)
    assert terminal == 60
    assert kernel.locks.lock_count == 0
    assert kernel.locks.pending_count == 0
    assert kernel.waits.edge_count == 0
    # Without client-side retries the thrashy protocols abort a lot under
    # this contention; the floor only guards against mass failure.
    floors = {"page-2pl": 20, "semantic-no-relief": 25, "closed-nested": 25}
    assert kernel.metrics.commits >= floors.get(protocol_cls.name, 40)


def test_soak_deadlock_detection():
    from repro.core.kernel import TransactionManager
    from repro.runtime.scheduler import Scheduler

    config = WorkloadConfig(n_items=2, orders_per_item=2, seed=7)
    workload = OrderEntryWorkload(config)
    kernel = TransactionManager(workload.db, scheduler=Scheduler(policy="random", seed=7))
    for name, program in workload.take(40):
        kernel.spawn(name, program)
    kernel.run()
    terminal = sum(1 for h in kernel.handles.values() if h.committed or h.aborted)
    assert terminal == 40
    assert kernel.locks.lock_count == 0
    assert kernel.locks.pending_count == 0
    assert kernel.waits.edge_count == 0


def test_soak_closed_loop_throughput_positive():
    """The closed-loop bench harness at scale: everything drains."""
    metrics = run_closed_loop(
        SemanticLockingProtocol,
        WorkloadConfig(n_items=3, orders_per_item=3, seed=41),
        n_transactions=80,
        mpl=10,
    )
    assert metrics.committed >= 70
    assert metrics.throughput > 0
