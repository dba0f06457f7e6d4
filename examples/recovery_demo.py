"""Multi-level crash recovery — the paper's deferred future work, built.

Runs the order-entry workload with a write-ahead log, crashes the
"process" at an inconvenient moment (after a NewOrder subtransaction
committed, before its transaction did), restores a backup of the
initial database, and recovers: redo repeats history, then losers are
undone at the highest level — the committed NewOrder is *compensated*
with CancelOrder rather than physically rolled back, exactly the
multi-level recovery of [WHBM90, HW91] the paper points to.

Run:  python examples/recovery_demo.py
"""

from repro.core.kernel import TransactionManager
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.orderentry.transactions import make_t1
from repro.recovery import WriteAheadLog, recover
from repro.recovery.wal import SubtxnCommitRecord, TxnStatusRecord, UpdateRecord
from repro.runtime.scheduler import Scheduler

TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}


def build():
    return build_order_entry_database(n_items=2, orders_per_item=2)


def programs(built):
    async def new_order_then_linger(tx):
        order_no = await tx.call(built.item(0), "NewOrder", 4711, 5)
        for __ in range(30):
            await tx.pause()  # plenty of time to crash before commit
        return order_no

    return {
        "SHIP": make_t1(built.item(0), 1, built.item(1), 2),
        "ENTER": new_order_then_linger,
    }


def describe_wal(wal: WriteAheadLog) -> None:
    for record in wal:
        if isinstance(record, TxnStatusRecord):
            print(f"  [{record.lsn:>3}] {record.txn}: {record.status.upper()}")
        elif isinstance(record, SubtxnCommitRecord):
            inverse = (
                f" (inverse: {record.inverse_operation}{record.inverse_args})"
                if record.inverse_operation
                else ""
            )
            print(f"  [{record.lsn:>3}] {record.txn}: subtxn-commit "
                  f"{record.operation}{record.args}{inverse}")
        elif isinstance(record, UpdateRecord):
            if record.operation == "Put":
                print(f"  [{record.lsn:>3}] {record.txn}: Put {record.before!r} -> "
                      f"{record.after!r}")
            else:
                print(f"  [{record.lsn:>3}] {record.txn}: {record.operation} "
                      f"key={record.key!r}")


def main() -> None:
    # ----- the doomed run -----
    built = build()
    wal = WriteAheadLog()
    kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
    for name, program in programs(built).items():
        kernel.spawn(name, program)

    crash_after = 40  # scheduler steps; mid-run by construction
    finished = kernel.scheduler.run(max_steps=crash_after)
    kernel.scheduler.shutdown()
    print(f"=== process 'crashed' after {crash_after} steps "
          f"(run complete: {finished}) ===\n")
    print("surviving write-ahead log:")
    describe_wal(wal)

    print(f"\ndurable outcomes: {wal.outcomes()}")

    # ----- recovery -----
    print("\n=== restoring backup and recovering ===\n")
    restored = build()
    report = recover(restored.db, wal, TYPE_SPECS)
    print(report)

    orders = restored.item(0).impl_component("Orders")
    print(f"\norders of item 1 after recovery: {orders.raw_size()} "
          f"(the in-flight NewOrder was compensated away)" if wal.outcomes().get("ENTER") == "in-flight"
          else f"\norders of item 1 after recovery: {orders.raw_size()}")
    print("item 1 QOH:", restored.item(0).impl_component("QOH").raw_get())
    status = restored.status_atom(0, 0).raw_get()
    print("order (1,1) status:", sorted(status) or ["new"])


if __name__ == "__main__":
    main()
