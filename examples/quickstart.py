"""Quickstart: one conflict, two runtimes, five minutes.

A tiny encapsulated counter whose ``Add`` methods commute.  Two
transactions add to the *same* counter concurrently: their inner
``Get``/``Put`` leaves formally conflict, but the semantic protocol
relieves the conflict through the commuting ``Add`` ancestors — case 1
(Fig. 6) if the holder's Add already committed, case 2 (Fig. 7) if it
is still running.  The same programs run under the deterministic
virtual-time scheduler and the real-thread engine.

Run:  python examples/quickstart.py
"""

from repro import Database, TypeSpec, is_semantically_serializable, run_transactions
from repro.runtime.threaded import run_threaded_transactions

COUNTER = TypeSpec("Counter")


@COUNTER.method(inverse=lambda result, args: ("Add", (-args[0],)))
async def Add(ctx, counter, amount):
    value = counter.impl_component("value")
    await ctx.put(value, await ctx.get(value) + amount)
    return None


COUNTER.matrix.allow("Add", "Add")  # increments commute


def build() -> tuple[Database, object]:
    db = Database()
    counter = db.new_encapsulated(COUNTER, "hits")
    db.attach_child(counter)
    impl = db.new_tuple("hits-impl")
    impl.add_component("value", db.new_atom("value", 0))
    counter.set_implementation(impl)
    return db, counter


def programs(counter) -> dict:
    def adder(amount):
        async def program(tx):
            for __ in range(2):
                await tx.call(counter, "Add", amount)

        return program

    return {"T1": adder(1), "T2": adder(10)}


def report(label: str, kernel, db, counter) -> None:
    snap = kernel.obs.snapshot()
    committed = sum(1 for h in kernel.handles.values() if h.committed)
    verdict = is_semantically_serializable(kernel.history(), db=db)
    print(f"[{label}] committed {committed}/2 transactions, "
          f"final value = {counter.impl_component('value').raw_get()}")
    print(f"[{label}] conflict cases: "
          f"commutative={snap.counter('conflict.commutative')}, "
          f"case1_relief={snap.counter('conflict.case1_relief')} (Fig. 6), "
          f"case2_wait={snap.counter('conflict.case2_wait')} (Fig. 7)")
    print(f"[{label}] semantically serializable: {verdict.serializable}\n")


def main() -> None:
    db, counter = build()  # virtual-time scheduler: the deterministic oracle
    report("virtual ", run_transactions(db, programs(counter)), db, counter)

    db, counter = build()  # the same programs on real threads
    kernel = run_threaded_transactions(db, programs(counter), n_threads=2)
    report("threaded", kernel, db, counter)


if __name__ == "__main__":
    main()
