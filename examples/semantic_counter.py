"""Define your own encapsulated type: an escrow-style account.

Shows the library's public API for building abstract data types with
commutativity-based concurrency control from scratch:

* declare a ``TypeSpec`` with methods, a compatibility matrix (with a
  parameter-dependent entry), and compensation inverses;
* run commuting deposits concurrently — leaf-level read-modify-write
  conflicts are resolved by subtransaction restart, never by aborting a
  whole transaction;
* abort a transaction and watch its deposit be logically compensated
  while a concurrent commuting deposit survives.

Run:  python examples/semantic_counter.py
"""

from repro import Database, TypeSpec, run_transactions
from repro.core.serializability import is_semantically_serializable

# ---------------------------------------------------------------------------
# The Account type
# ---------------------------------------------------------------------------
ACCOUNT = TypeSpec("Account")


@ACCOUNT.method(inverse=lambda result, args: ("Withdraw", args))
async def Deposit(ctx, account, amount):
    """Add money; commutes with other deposits and withdrawals."""
    balance = account.impl_component("balance")
    await ctx.put(balance, await ctx.get(balance) + amount)
    return amount


@ACCOUNT.method(inverse=lambda result, args: ("Deposit", args) if result == "ok" else None)
async def Withdraw(ctx, account, amount):
    """Remove money (no overdraft check here, for simplicity)."""
    balance = account.impl_component("balance")
    await ctx.put(balance, await ctx.get(balance) - amount)
    return "ok"


@ACCOUNT.method(readonly=True)
async def Balance(ctx, account):
    return await ctx.get(account.impl_component("balance"))


def _build_matrix() -> None:
    m = ACCOUNT.matrix
    m.allow("Deposit", "Deposit")    # additions commute
    m.allow("Deposit", "Withdraw")   # ...with subtractions too
    m.allow("Withdraw", "Withdraw")
    m.conflict("Deposit", "Balance")  # reading observes updates
    m.conflict("Withdraw", "Balance")
    m.allow("Balance", "Balance")


_build_matrix()
ACCOUNT.validate()


def new_account(db: Database, name: str, opening: int):
    account = db.new_encapsulated(ACCOUNT, name)
    db.attach_child(account)
    impl = db.new_tuple(f"{name}-impl")
    impl.add_component("balance", db.new_atom("balance", opening))
    account.set_implementation(impl)
    return account


def main() -> None:
    db = Database()
    account = new_account(db, "acct", 100)

    # ------------------------------------------------------------------
    # Five concurrent deposits: all commute, all commit.
    # ------------------------------------------------------------------
    def depositor(amount):
        async def program(tx):
            return await tx.call(account, "Deposit", amount)
        return program

    kernel = run_transactions(
        db,
        {f"D{i}": depositor(i * 10) for i in range(1, 6)},
        policy="random",
        seed=42,
    )
    print("=== five concurrent deposits ===")
    print("balance:", account.impl_component("balance").raw_get(), "(expected 250)")
    print("commits:", kernel.metrics.commits, " aborts:", kernel.metrics.aborts)
    print("leaf-level deadlocks resolved by subtransaction restart:",
          kernel.metrics.subtxn_restarts)
    print("serializable:", is_semantically_serializable(kernel.history(), db=db).serializable)

    # ------------------------------------------------------------------
    # Compensation: an aborting deposit is withdrawn again, while a
    # concurrent commuting deposit's effect survives.
    # ------------------------------------------------------------------
    async def deposit_then_abort(tx):
        await tx.call(account, "Deposit", 1000)
        for __ in range(10):
            await tx.pause()  # let the other transaction slip in
        tx.abort("changed my mind")

    async def small_deposit(tx):
        return await tx.call(account, "Deposit", 7)

    kernel = run_transactions(
        db, {"BIG": deposit_then_abort, "SMALL": small_deposit}
    )
    print("\n=== compensation ===")
    print("BIG aborted:", kernel.handles["BIG"].aborted,
          "| SMALL committed:", kernel.handles["SMALL"].committed)
    print("compensating subtransactions run:", kernel.metrics.compensations)
    print("balance:", account.impl_component("balance").raw_get(),
          "(expected 257: the aborted 1000 was withdrawn, the 7 survived)")


if __name__ == "__main__":
    main()
