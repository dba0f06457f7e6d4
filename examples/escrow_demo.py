"""State-dependent commutativity: the escrow method (O'Neil 1986).

The paper restricts itself to state-independent commutativity but notes
that "more general forms of conflict test, based on state-dependent or
return-value commutativity [Bee83, CRR91, LMWF92, O'N86, We88], are
possible within the framework of open nested transactions."  This demo
implements the classic example — an escrow account:

* two ``Withdraw`` invocations are *state-independently* in conflict
  (whether the second succeeds depends on whether the first drained the
  balance);
* with a **state-dependent cell**, they commute whenever the current
  balance covers every granted-but-uncommitted withdrawal plus the
  requested one — the escrow test.

Run:  python examples/escrow_demo.py
"""

from repro import Database, TypeSpec, run_transactions
from repro.core.serializability import is_semantically_serializable

INSUFFICIENT = "insufficient-funds"


def make_account_type(escrow: bool) -> TypeSpec:
    spec = TypeSpec("EscrowAccount" if escrow else "StrictAccount")

    @spec.method(inverse=lambda result, args: ("Deposit", args) if result == "ok" else None)
    async def Withdraw(ctx, account, amount):
        balance_atom = account.impl_component("balance")
        balance = await ctx.get(balance_atom)
        if balance < amount:
            return INSUFFICIENT
        await ctx.put(balance_atom, balance - amount)
        return "ok"

    @spec.method(inverse=lambda result, args: ("Withdraw", args))
    async def Deposit(ctx, account, amount):
        balance_atom = account.impl_component("balance")
        await ctx.put(balance_atom, await ctx.get(balance_atom) + amount)
        return "ok"

    @spec.method(readonly=True)
    async def Balance(ctx, account):
        return await ctx.get(account.impl_component("balance"))

    m = spec.matrix
    m.allow("Deposit", "Deposit")
    m.allow("Deposit", "Withdraw")  # a deposit never invalidates a withdrawal
    m.conflict("Deposit", "Balance")
    m.conflict("Withdraw", "Balance")
    m.allow("Balance", "Balance")

    if escrow:
        def funds_cover_all(held, requested, view):
            """The escrow test: balance covers every granted withdrawal
            on this account plus the requested one."""
            balance = view.obj.impl_component("balance").raw_get()
            reserved = sum(
                inv.arg(0, 0)
                for inv in view.held_invocations
                if inv.operation == "Withdraw"
            )
            return balance >= reserved + requested.arg(0, 0)

        m.allow_if_state("Withdraw", "Withdraw", funds_cover_all, "escrow")
    else:
        m.conflict("Withdraw", "Withdraw")
    spec.validate()
    return spec


def build(spec: TypeSpec, opening: int):
    db = Database()
    account = db.new_encapsulated(spec, "acct")
    db.attach_child(account)
    impl = db.new_tuple("impl")
    impl.add_component("balance", db.new_atom("balance", opening))
    account.set_implementation(impl)
    return db, account


def run(spec: TypeSpec, opening: int, amounts: list[int]):
    db, account = build(spec, opening)

    def withdrawer(amount):
        async def program(tx):
            return await tx.call(account, "Withdraw", amount)
        return program

    kernel = run_transactions(
        db, {f"W{i}-{a}": withdrawer(a) for i, a in enumerate(amounts)}
    )
    balance = account.impl_component("balance").raw_get()
    return db, kernel, balance


def main() -> None:
    amounts = [30, 30, 30]

    print("=== strict (state-independent) account: Withdraw conflicts with Withdraw ===")
    db, kernel, balance = run(make_account_type(escrow=False), 100, amounts)
    print(f"balance after three Withdraw(30) from 100: {balance}")
    print(f"lock waits: {kernel.metrics.blocks}  (withdrawals serialized)")

    print("\n=== escrow account: state-dependent Withdraw/Withdraw cell ===")
    db, kernel, balance = run(make_account_type(escrow=True), 100, amounts)
    print(f"balance after three Withdraw(30) from 100: {balance}")
    method_blocks = [
        e for e in kernel.trace.of_kind("block")
        if "Withdraw" in str(e.detail.get("mode", ""))
    ]
    print(f"method-level lock waits: {len(method_blocks)}  "
          f"(the balance covers all three: they commute)")
    print("results:", {n: h.result for n, h in kernel.handles.items()})
    print("serializable:", is_semantically_serializable(kernel.history(), db=db).serializable)

    print("\n=== escrow guards correctness: funds cover only two of three ===")
    db, kernel, balance = run(make_account_type(escrow=True), 70, amounts)
    results = sorted(h.result for h in kernel.handles.values())
    print(f"balance after three Withdraw(30) from 70: {balance}")
    print(f"results: {results}")
    print("the third withdrawal was *not* granted concurrency by the escrow")
    print("test; it waited and then failed cleanly — no overdraft.")
    assert balance >= 0


if __name__ == "__main__":
    main()
