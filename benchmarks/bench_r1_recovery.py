"""R1 (extension) — multi-level crash recovery sweep.

The paper defers recovery to the multi-level techniques of
[WHBM90, HW91]; this bench exercises our implementation of them: the
order-entry workload runs with a write-ahead log and is crashed at a
grid of points; each crash is recovered onto a restored backup and the
result compared against a serial execution of exactly the
durably-committed transactions (modulo the order-number counter, which
compensation deliberately does not rewind).

Expected (asserted): every crash point recovers to the oracle state;
committed subtransactions of losers are undone by logical compensation,
never by physically erasing concurrent committed effects.
"""

from repro.core.kernel import TransactionManager
from repro.faults.torture import serial_replay, state_of
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.orderentry.transactions import make_new_order_txn, make_t1, make_t2
from repro.recovery import WriteAheadLog, recover
from repro.recovery.wal import TxnStatusRecord
from repro.runtime.scheduler import Scheduler

TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}
CRASH_POINTS = list(range(0, 140, 5))


def build():
    return build_order_entry_database(n_items=2, orders_per_item=2)


def programs(built):
    return {
        "T1": make_t1(built.item(0), 1, built.item(1), 2),
        "T2": make_t2(built.item(0), 1, built.item(1), 2),
        "N1": make_new_order_txn(built.item(0), 777, 3),
    }


def oracle(winners):
    fresh = build()
    serial_replay(fresh.db, winners, programs(fresh).__getitem__)
    return state_of(fresh.db)


def experiment():
    outcomes = []
    for crash_at in CRASH_POINTS:
        built = build()
        wal = WriteAheadLog()
        kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
        for name, program in programs(built).items():
            kernel.spawn(name, program)
        finished = kernel.scheduler.run(max_steps=crash_at)
        if not finished:
            kernel.scheduler.shutdown()
        restored = build()
        report = recover(restored.db, wal, TYPE_SPECS)
        winners = [
            r.txn
            for r in wal
            if isinstance(r, TxnStatusRecord) and r.status == "commit"
        ]
        outcomes.append(
            {
                "crash_at": crash_at,
                "winners": len(winners),
                "losers": len(report.losers),
                "redone": report.redone,
                "compensated": report.compensated,
                "phys_undone": report.physically_undone,
                "state_ok": state_of(restored.db) == oracle(winners),
                "analysis_ms": round(report.analysis_seconds * 1e3, 3),
                "redo_ms": round(report.redo_seconds * 1e3, 3),
                "undo_ms": round(report.undo_seconds * 1e3, 3),
                "recover_ms": round(report.total_seconds * 1e3, 3),
            }
        )
    return outcomes


def test_r1_recovery_sweep(benchmark):
    outcomes = benchmark.pedantic(experiment, rounds=1, iterations=1)

    from bench_common import print_rows

    print_rows(outcomes, f"R1 — recovery at {len(CRASH_POINTS)} crash points")

    assert all(o["state_ok"] for o in outcomes)
    # the sweep crosses the interesting regimes
    assert any(o["losers"] > 0 for o in outcomes)
    assert any(o["compensated"] > 0 for o in outcomes), (
        "some crash point must exercise logical compensation"
    )
    assert any(o["phys_undone"] > 0 for o in outcomes)
    assert outcomes[-1]["losers"] <= 1  # late crashes: mostly complete
    # the pass timers actually measure the passes
    assert all(o["recover_ms"] >= 0 for o in outcomes)
    assert any(o["recover_ms"] > 0 for o in outcomes)
