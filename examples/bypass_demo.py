"""Bypassing encapsulation: the Fig. 5/6/7 scenarios (Section 4).

The paper's core problem: transactions that invoke methods directly on
*implementation* objects, bypassing the encapsulated object above them.
This demo shows

* Fig. 5 — the naive Section-3 open-nested protocol (release locks at
  subtransaction commit) admits an execution in which T3 sees one order
  shipped and the other not — impossible in any serial execution — and
  the full protocol (retained locks) blocks T3 until T1 commits instead;
* Fig. 6 — *case 1*: the full protocol ignores a formal conflict with a
  retained lock when the holder's commutative ancestor has committed;
* Fig. 7 — *case 2*: with the commutative ancestor still active, the
  requester waits only for that subtransaction, not for the whole
  transaction.

Run:  python examples/bypass_demo.py
"""

from repro import (
    OpenNestedNaiveProtocol,
    SemanticLockingProtocol,
    SemanticNoReliefProtocol,
    build_order_entry_database,
    is_semantically_serializable,
    make_t1,
    run_transactions,
)
from repro.core.kernel import TransactionManager
from repro.orderentry.schema import PAID, SHIPPED
from repro.orderentry.transactions import make_t3
from repro.runtime.scheduler import Scheduler


def fig5() -> None:
    print("=" * 64)
    print("Fig. 5 — the bypass anomaly")
    print("=" * 64)

    def run(protocol, seed):
        built = build_order_entry_database(n_items=2, orders_per_item=1)
        kernel = run_transactions(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 1),
                "T3": make_t3(built.order(0, 0), built.order(1, 0)),
            },
            protocol=protocol,
            policy="random",
            seed=seed,
        )
        return built, kernel

    print("\nnaive Section-3 protocol (locks released at subtxn commit):")
    for seed in range(60):
        built, kernel = run(OpenNestedNaiveProtocol(), seed)
        observed = kernel.handles["T3"].result
        if observed == (True, False):
            check = is_semantically_serializable(kernel.history(), db=built.db)
            print(f"  seed {seed}: T3 observed {observed}  <-- order 1 shipped, order 2 not!")
            print(f"  checker verdict: serializable = {check.serializable}")
            break
    else:
        print("  (no anomalous seed found)")

    print("\nfull protocol (retained locks):")
    outcomes = set()
    for seed in range(60):
        built, kernel = run(SemanticLockingProtocol(), seed)
        outcomes.add(kernel.handles["T3"].result)
        assert is_semantically_serializable(kernel.history(), db=built.db).serializable
    print(f"  T3 outcomes over 60 random interleavings: {sorted(outcomes)}")
    print("  (always a consistent snapshot; every history serializable)")


def fig6() -> None:
    print()
    print("=" * 64)
    print("Fig. 6 — case 1: commutative and committed ancestor")
    print("=" * 64)

    def run(protocol):
        built = build_order_entry_database(n_items=2, orders_per_item=1)
        scheduler = Scheduler()
        kernel = TransactionManager(built.db, protocol=protocol, scheduler=scheduler)
        gate = scheduler.create_signal()

        def probe(node, phase):
            if (
                phase == "post"
                and node.invocation.operation == "ShipOrder"
                and node.top_level_name == "T1"
                and not gate.done
            ):
                gate.fire()
            return None

        kernel.probe = probe

        async def t4(tx):
            await gate  # start once T1's first ShipOrder has committed
            a = await tx.call(built.order(0, 0), "TestStatus", PAID)
            b = await tx.call(built.order(1, 0), "TestStatus", PAID)
            return (a, b)

        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 1))
        kernel.spawn("T4", t4)
        kernel.run()
        blocks = [e for e in kernel.trace.of_kind("block") if e.txn == "T4"]
        return kernel, blocks

    kernel, blocks = run(SemanticLockingProtocol())
    print(f"\nfull protocol:     T4 lock waits = {len(blocks)} "
          f"(ChangeStatus(shipped) commutes with TestStatus(paid), and it committed)")
    kernel, blocks = run(SemanticNoReliefProtocol())
    print(f"no-relief ablation: T4 lock waits = {len(blocks)} "
          f"-> blocked on {blocks[0].detail['waits_for']} until top-level commit")


def fig7() -> None:
    print()
    print("=" * 64)
    print("Fig. 7 — case 2: commutative but not yet committed ancestor")
    print("=" * 64)

    built = build_order_entry_database(
        n_items=1, orders_per_item=1, initial_events=frozenset({PAID})
    )
    scheduler = Scheduler()
    kernel = TransactionManager(
        built.db, protocol=SemanticLockingProtocol(), scheduler=scheduler
    )
    g_mid = scheduler.create_signal()
    g_go = scheduler.create_signal()
    status_oid = built.status_atom(0, 0).oid

    def probe(node, phase):
        if phase == "post" and node.invocation.operation == "ChangeStatus":
            g_mid.fire()
            return g_go  # T1 suspended inside ShipOrder
        if (
            phase == "pre"
            and node.top_level_name == "T5"
            and node.invocation.operation == "Get"
            and node.target == status_oid
            and not g_go.done
        ):
            g_go.fire()
        return None

    kernel.probe = probe

    async def t1(tx):
        return await tx.call(built.item(0), "ShipOrder", 1)

    async def t5(tx):
        await g_mid
        return await tx.call(built.item(0), "TotalPayment")

    kernel.spawn("T1", t1)
    kernel.spawn("T5", t5)
    kernel.run()

    print("\nT5's TotalPayment reads the order's status atom directly")
    print("(footnote 4 of the paper) while T1's ShipOrder is active but")
    print("its ChangeStatus subtransaction has committed:\n")
    for event in kernel.trace.of_kind("block", "regrant"):
        print(f"  {event}")
    print(f"\nT5 computed total = {kernel.handles['T5'].result}")
    print("T5 waited exactly for the ShipOrder *subtransaction* commit —")
    print("not for T1's top-level commit.")


def main() -> None:
    fig5()
    fig6()
    fig7()


if __name__ == "__main__":
    main()
