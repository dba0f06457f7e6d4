"""The crash-torture harness: pinned windows, properties, zero-cost-off.

The sweep itself runs in ``benchmarks/bench_r2_torture.py`` and CI's
``torture-smoke``; here we pin the windows the issue names — crash
*during compensation*, crash *between a subtransaction's WAL commit
record and its lock conversion*, and a top-level commit record logged
*before* the locks are released — plus a hypothesis property over crash
steps and the bit-identity guarantee for fault-free runs.
"""

from __future__ import annotations

import ast
import glob
import os
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.torture as torture_module
from repro.core.kernel import run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.faults import FaultPlan
from repro.faults.torture import (
    TortureScenario,
    _run_instance,
    _torture_point,
    corpse_checks,
    find_bypass_anomaly,
    order_entry_scenario,
    run_torture,
)
from repro.orderentry.schema import (
    ITEM_TYPE,
    ORDER_TYPE,
    build_order_entry_database,
)
from repro.orderentry.transactions import make_t1, make_t2
from repro.recovery.wal import SubtxnCommitRecord, TxnStatusRecord, WriteAheadLog

TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}


def aborting_scenario() -> TortureScenario:
    """T1 ships both orders then fails: the abort compensates both
    ShipOrders, so crash points land before, inside, and after the
    compensation run."""

    def instantiate():
        built = build_order_entry_database(n_items=2, orders_per_item=2)

        async def doomed(tx):
            await tx.call(built.item(0), "ShipOrder", 1)
            await tx.call(built.item(1), "ShipOrder", 2)
            raise ValueError("business rule violated")

        return built.db, {
            "D": doomed,
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
        }

    return TortureScenario(
        name="aborting", instantiate=instantiate, type_specs=TYPE_SPECS
    )


class TestCrashDuringCompensation:
    def test_every_point_of_an_aborting_run_recovers(self):
        report = run_torture(aborting_scenario())
        assert report.all_ok, report.summary()
        # the sweep actually crossed the compensation regime
        assert any(o.detail["compensated"] > 0 for o in report.outcomes if o.crashed)

    def test_pinned_crash_between_compensations(self, tmp_path):
        scenario = aborting_scenario()
        __, ref_wal, __crash = _run_instance(scenario)
        comp_positions = [
            i + 1  # 1-based WAL visit
            for i, record in enumerate(ref_wal)
            if isinstance(record, SubtxnCommitRecord) and record.compensates
        ]
        assert len(comp_positions) == 2  # both ShipOrders compensated
        # Crash right after the FIRST compensation committed: one
        # ShipOrder logically undone and durable, the other still live.
        # Recovery must honour the committed compensation (cover its
        # target) and compensate only the remaining one.
        outcome = _torture_point(
            scenario,
            f"wal-{comp_positions[0]}",
            FaultPlan.crash_at_wal_record(comp_positions[0]),
            str(tmp_path),
        )
        assert outcome.crashed and outcome.crash_site == "wal-append"
        assert outcome.ok, outcome.failures
        assert outcome.detail["compensated"] == 1
        assert "D" in outcome.losers


class TestSubcommitWindow:
    def test_crash_between_subcommit_record_and_lock_conversion(self, tmp_path):
        # A wal-append crash on a SubtxnCommit record dies after the
        # record is durable but before _complete_node converts the
        # subtransaction's locks — the window step-granularity sweeps
        # cannot reach.  Every such point must recover.
        scenario = order_entry_scenario(seed=0, n_transactions=4)
        __, ref_wal, __crash = _run_instance(scenario)
        subcommits = [
            i + 1
            for i, record in enumerate(ref_wal)
            if isinstance(record, SubtxnCommitRecord) and not record.compensates
        ]
        assert subcommits, "workload must commit subtransactions"
        for position in subcommits:
            outcome = _torture_point(
                scenario,
                f"wal-{position}",
                FaultPlan.crash_at_wal_record(position),
                str(tmp_path),
            )
            assert outcome.crashed, position
            assert outcome.ok, (position, outcome.failures)

    def test_subcommit_crash_leaves_unconverted_locks_held(self, order_entry):
        # The crashed kernel itself proves the window: the committed
        # subtransaction's WAL record exists, yet its top-level
        # transaction is unfinished — exactly the state recovery's
        # multi-level undo is for.
        from repro.errors import CrashPoint
        from repro.faults import FaultSpec
        from repro.recovery import WriteAheadLog
        from repro.core.kernel import TransactionManager
        from repro.runtime.scheduler import Scheduler

        import pytest

        plan = FaultPlan(
            specs=(FaultSpec(site="wal-append", action="crash",
                             operation="SubtxnCommit"),)
        )
        wal = WriteAheadLog()
        kernel = TransactionManager(
            order_entry.db, scheduler=Scheduler(), wal=wal, faults=plan
        )
        kernel.spawn("T1", make_t1(order_entry.item(0), 1, order_entry.item(1), 2))
        with pytest.raises(CrashPoint):
            kernel.run()
        committed = [r for r in wal if isinstance(r, SubtxnCommitRecord)]
        assert len(committed) == 1
        assert wal.status_of("T1") == "in-flight"
        # the subtree's locks were never converted/released
        assert kernel.locks.locks_held_by_tree(kernel.handles["T1"].root)


class LockProbeLog(WriteAheadLog):
    """Records how many locks each transaction's tree holds at the moment
    its top-level commit record is appended."""

    def __init__(self) -> None:
        super().__init__()
        self.kernel = None
        self.held_at_commit: dict[str, int] = {}

    def append(self, record) -> None:
        super().append(record)
        if isinstance(record, TxnStatusRecord) and record.status == "commit":
            root = self.kernel.handles[record.txn].root
            self.held_at_commit[record.txn] = len(self.kernel.locks.locks_held_by_tree(root))


class TestCommitBeforeRelease:
    """Strict commit: a top-level commit record is logged while the
    transaction still holds its locks, so nothing it wrote is visible
    before its commit can be durable (the force rule of the file-backed
    log relies on this to skip read-only transactions' syncs)."""

    @pytest.mark.parametrize("runtime", ["virtual", "threaded"])
    def test_commit_record_is_logged_before_locks_release(self, order_entry, runtime):
        from repro.core.kernel import TransactionManager
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.threaded import ThreadedKernel

        wal = LockProbeLog()
        if runtime == "virtual":
            kernel = TransactionManager(order_entry.db, scheduler=Scheduler(), wal=wal)
        else:
            kernel = ThreadedKernel(order_entry.db, n_threads=2, wal=wal)
        wal.kernel = kernel
        kernel.spawn("T1", make_t1(order_entry.item(0), 1, order_entry.item(1), 2))
        kernel.spawn("T2", make_t2(order_entry.item(0), 1, order_entry.item(1), 2))
        kernel.run()
        assert all(handle.committed for handle in kernel.handles.values())
        assert set(wal.held_at_commit) == {"T1", "T2"}
        assert all(held > 0 for held in wal.held_at_commit.values()), wal.held_at_commit
        assert kernel.locks.lock_count == 0  # and released right after

    def test_crash_at_commit_record_leaves_locks_held(self, order_entry):
        from repro.core.kernel import TransactionManager
        from repro.errors import CrashPoint
        from repro.faults import FaultSpec
        from repro.runtime.scheduler import Scheduler

        # T1's second TxnStatus visit is its commit record (the first is begin).
        crash_at_commit = FaultSpec(
            site="wal-append", action="crash", txn="T1", operation="TxnStatus", at_visit=2
        )
        plan = FaultPlan(specs=(crash_at_commit,))
        wal = WriteAheadLog()
        kernel = TransactionManager(order_entry.db, scheduler=Scheduler(), wal=wal, faults=plan)
        kernel.spawn("T1", make_t1(order_entry.item(0), 1, order_entry.item(1), 2))
        with pytest.raises(CrashPoint):
            kernel.run()
        assert wal.status_of("T1") == "commit"
        assert not kernel.handles["T1"].committed
        assert kernel.locks.locks_held_by_tree(kernel.handles["T1"].root)

    def test_sweep_point_at_a_commit_record(self, tmp_path):
        # The sweep's wal-N point on the first commit record: the corpse
        # still holds the committer's locks, and recovery counts it a winner.
        scenario = order_entry_scenario(seed=0, n_transactions=4)
        __, ref_wal, __crash = _run_instance(scenario)
        position, name = next(
            (i + 1, r.txn)
            for i, r in enumerate(ref_wal)
            if isinstance(r, TxnStatusRecord) and r.status == "commit"
        )
        plan = FaultPlan.crash_at_wal_record(position)
        corpse, __, crash = _run_instance(scenario, faults=plan)
        assert crash is not None
        assert corpse.locks.locks_held_by_tree(corpse.handles[name].root)
        corpse.scheduler.shutdown()
        outcome = _torture_point(scenario, f"wal-{position}", plan, str(tmp_path))
        assert outcome.crashed and outcome.ok, outcome.failures
        assert name in outcome.winners


class TestCrashStepProperty:
    @settings(max_examples=20, deadline=None)
    @given(step=st.integers(min_value=0, max_value=10_000))
    def test_any_step_crash_recovers(self, step):
        scenario = order_entry_scenario(seed=1, n_transactions=3)
        reference, __, __crash = _run_instance(scenario)
        at = step % reference.scheduler.steps
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            outcome = _torture_point(scenario, f"step-{at}", FaultPlan.crash_at_step(at), tmp)
        assert outcome.crashed
        assert outcome.ok, (at, outcome.failures)


class TestAnomalyDetection:
    def test_naive_protocol_caught_semantic_clean(self):
        seed, report = find_bypass_anomaly()
        assert seed is not None
        assert report.anomalies
        from repro.core.protocol import SemanticLockingProtocol
        from repro.faults.torture import fig5_bypass_scenario

        clean = run_torture(
            fig5_bypass_scenario(SemanticLockingProtocol, seed), wal_sweep=False
        )
        assert clean.all_ok, clean.summary()

    def test_report_json_roundtrip(self):
        import json

        report = run_torture(
            order_entry_scenario(seed=0, n_transactions=3), steps=5, wal_sweep=False
        )
        data = json.loads(report.to_json())
        assert data["all_ok"] is True
        assert data["crash_points"] == report.crash_points == 5
        assert [o["label"] for o in data["outcomes"]] == [o.label for o in report.outcomes]
        assert "-> OK" in report.summary()

    def test_a_sweep_that_verified_nothing_does_not_pass(self):
        # A zero budget covers no point; "no anomalies among zero points"
        # is not a pass, and the summary says so.
        report = run_torture(order_entry_scenario(seed=0, n_transactions=3), max_seconds=0)
        assert report.truncated and report.outcomes == []
        assert report.planned_points > 0
        assert not report.all_ok
        assert "PARTIAL" in report.summary()
        assert "NOTHING VERIFIED" in report.summary()


class TestUnknownVerdict:
    def test_exhausted_budget_is_not_a_refutation(self, monkeypatch):
        """The corpse check names a budget-limited search on its own."""
        monkeypatch.setattr(
            torture_module,
            "is_semantically_serializable",
            partial(is_semantically_serializable, budget=1),
        )
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = run_transactions(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 2),
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
            },
        )
        assert corpse_checks(kernel) == (("unknown-surviving-history",), [])


class TestZeroCostWhenOff:
    def fingerprint(self, kernel):
        return (
            [e.to_dict() for e in kernel.trace],
            {n: (h.committed, h.result) for n, h in kernel.handles.items()},
            kernel.scheduler.clock,
            kernel.scheduler.steps,
        )

    def run_once(self, **kwargs):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        return run_transactions(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 2),
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
            },
            policy="random",
            seed=13,
            **kwargs,
        )

    def test_empty_plan_is_bit_identical(self):
        bare = self.fingerprint(self.run_once())
        # An empty plan binds an injector but can never fire: it must
        # leave traces, results, clock, and step count untouched.
        plumbed = self.fingerprint(self.run_once(faults=FaultPlan()))
        assert plumbed == bare


class TestOneHarness:
    """Guards against a second report, outcome or budget loop growing
    back beside the shared ones: the SIGKILL and shard-kill sweeps are
    point-runners over :func:`repro.faults.torture.sweep`."""

    FAULTS = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro", "faults")

    def nodes(self, kind):
        for path in sorted(glob.glob(os.path.join(self.FAULTS, "*.py"))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, kind):
                    yield os.path.basename(path), node

    def test_one_report_and_one_outcome_class(self):
        classes = [(path, node.name) for path, node in self.nodes(ast.ClassDef)]
        reports = [c for c in classes if c[1].endswith("Report")]
        outcomes = [c for c in classes if c[1].endswith("Outcome")]
        assert reports == [("torture.py", "TortureReport")]
        assert outcomes == [("torture.py", "CrashOutcome")]

    def test_one_function_spends_the_time_budget(self):
        # Entry points may accept and forward max_seconds; only the
        # sweep loop may compare elapsed time against it.
        def spends_budget(function):
            return any(
                isinstance(node, ast.Compare)
                and not isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and any(
                    isinstance(name, ast.Name) and name.id == "max_seconds"
                    for name in ast.walk(node)
                )
                for node in ast.walk(function)
            )

        found = [
            (path, node.name)
            for path, node in self.nodes(ast.FunctionDef)
            if spends_budget(node)
        ]
        assert found == [("torture.py", "sweep")]
