"""Three-level ADT nesting: ADTs implemented in terms of other ADTs.

The paper's differentiator over earlier ADT concurrency control is that
"ADTs can be implemented in terms of other ADTs" at arbitrary depth.
This module builds a three-level stack —

    Ledger  (PostTransfer / NetTotal)
      +-- two Account ADTs (Credit / Debit / Balance)
            +-- Counter ADT (Add / Value)
                  +-- atom

— and checks the protocol through the resulting four-deep invocation
trees: commuting top-level methods interleave, conflicts are relieved
through the *deepest* applicable ancestor pair, and compensation
cascades through the levels.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.faults import FaultPlan, FaultSpec
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.objects.oid import Oid
from repro.semantics.invocation import Invocation
from repro.txn.transaction import TransactionNode

from tests.helpers import run_programs

# ---------------------------------------------------------------------------
# Level 1: Counter on an atom
# ---------------------------------------------------------------------------
COUNTER = TypeSpec("NCounter")


@COUNTER.method(inverse=lambda result, args: ("Add", (-args[0],)))
async def Add(ctx, counter, amount):
    atom = counter.impl_component("value")
    await ctx.put(atom, await ctx.get(atom) + amount)
    return None


@COUNTER.method(readonly=True)
async def Value(ctx, counter):
    return await ctx.get(counter.impl_component("value"))


COUNTER.matrix.allow("Add", "Add")
COUNTER.matrix.conflict("Add", "Value")
COUNTER.matrix.allow("Value", "Value")
COUNTER.validate()

# ---------------------------------------------------------------------------
# Level 2: Account built on a Counter
# ---------------------------------------------------------------------------
ACCOUNT = TypeSpec("NAccount")


@ACCOUNT.method(inverse=lambda result, args: ("Debit", (args[0],)))
async def Credit(ctx, account, amount):
    await ctx.call(account.impl_component("counter"), "Add", amount)
    return None


@ACCOUNT.method(inverse=lambda result, args: ("Credit", (args[0],)))
async def Debit(ctx, account, amount):
    await ctx.call(account.impl_component("counter"), "Add", -amount)
    return None


@ACCOUNT.method(readonly=True)
async def Balance(ctx, account):
    return await ctx.call(account.impl_component("counter"), "Value")


ACCOUNT.matrix.allow("Credit", "Credit")
ACCOUNT.matrix.allow("Credit", "Debit")
ACCOUNT.matrix.allow("Debit", "Debit")
ACCOUNT.matrix.conflict("Credit", "Balance")
ACCOUNT.matrix.conflict("Debit", "Balance")
ACCOUNT.matrix.allow("Balance", "Balance")
ACCOUNT.validate()

# ---------------------------------------------------------------------------
# Level 3: Ledger built on two Accounts
# ---------------------------------------------------------------------------
LEDGER = TypeSpec("NLedger")


@LEDGER.method(inverse=lambda result, args: ("PostTransfer", (args[1], args[0], args[2])))
async def PostTransfer(ctx, ledger, source, destination, amount):
    accounts = {"a": ledger.impl_component("a"), "b": ledger.impl_component("b")}
    await ctx.call(accounts[source], "Debit", amount)
    await ctx.call(accounts[destination], "Credit", amount)
    return None


@LEDGER.method(readonly=True)
async def NetTotal(ctx, ledger):
    total_a = await ctx.call(ledger.impl_component("a"), "Balance")
    total_b = await ctx.call(ledger.impl_component("b"), "Balance")
    return total_a + total_b


LEDGER.matrix.allow("PostTransfer", "PostTransfer")  # transfers commute
LEDGER.matrix.conflict("PostTransfer", "NetTotal")
LEDGER.matrix.allow("NetTotal", "NetTotal")
LEDGER.validate()


@pytest.fixture
def ledger_world():
    db = Database()
    ledger = db.new_encapsulated(LEDGER, "ledger")
    db.attach_child(ledger)
    impl = db.new_tuple("ledger-impl")
    for label in ("a", "b"):
        account = db.new_encapsulated(ACCOUNT, f"acct-{label}")
        account_impl = db.new_tuple(f"acct-{label}-impl")
        counter = db.new_encapsulated(COUNTER, f"counter-{label}")
        counter_impl = db.new_tuple(f"counter-{label}-impl")
        counter_impl.add_component("value", db.new_atom("value", 100))
        counter.set_implementation(counter_impl)
        account_impl.add_component("counter", counter)
        account.set_implementation(account_impl)
        impl.add_component(label, account)
    ledger.set_implementation(impl)
    return db, ledger


def transfer(ledger, source, destination, amount):
    async def program(tx):
        await tx.call(ledger, "PostTransfer", source, destination, amount)

    return program


def balances(db, ledger):
    def value(label):
        account = ledger.impl_component(label)
        counter = account.impl_component("counter")
        return counter.impl_component("value").raw_get()

    return value("a"), value("b")


class TestDeepTrees:
    def test_invocation_tree_is_four_deep(self, ledger_world):
        db, ledger = ledger_world
        kernel = run_programs(db, {"T": transfer(ledger, "a", "b", 10)})
        history = kernel.history()
        assert max(r.depth for r in history.records) == 4  # txn->ledger->acct->counter->leaf
        ops = {r.operation for r in history.records}
        assert {"PostTransfer", "Debit", "Credit", "Add", "Get", "Put"} <= ops

    def test_commuting_transfers_interleave_and_balance(self, ledger_world):
        db, ledger = ledger_world
        programs = {
            "T1": transfer(ledger, "a", "b", 10),
            "T2": transfer(ledger, "b", "a", 25),
            "T3": transfer(ledger, "a", "b", 5),
        }
        kernel = run_programs(db, programs, policy="random", seed=3)
        assert kernel.metrics.commits == 3
        a, b = balances(db, ledger)
        assert a + b == 200
        assert (a, b) == (100 - 10 + 25 - 5, 100 + 10 - 25 + 5)
        assert is_semantically_serializable(kernel.history(), db=db).serializable

    def test_relief_at_the_deepest_level(self, ledger_world):
        """Two transfers touching the same account conflict only at the
        leaf read-modify-write; the blocker must be a Counter-level Add
        (or deeper), never a top-level transaction."""
        db, ledger = ledger_world
        programs = {
            "T1": transfer(ledger, "a", "b", 10),
            "T2": transfer(ledger, "a", "b", 20),
        }
        kernel = run_programs(db, programs)
        for event in kernel.trace.of_kind("block"):
            assert all(w not in ("T1", "T2") for w in event.detail["waits_for"]), event

    def test_reader_waits_for_writer_commit(self, ledger_world):
        db, ledger = ledger_world
        order: list[str] = []

        async def writer(tx):
            await tx.call(ledger, "PostTransfer", "a", "b", 10)
            for __ in range(4):
                await tx.pause()
            order.append("writer-done")

        async def reader(tx):
            total = await tx.call(ledger, "NetTotal")
            order.append(f"read:{total}")
            return total

        kernel = run_programs(db, {"W": writer, "R": reader})
        assert kernel.handles["R"].result == 200
        assert order == ["writer-done", "read:200"]

    def test_abort_cascades_logical_compensation(self, ledger_world):
        db, ledger = ledger_world

        async def doomed(tx):
            await tx.call(ledger, "PostTransfer", "a", "b", 40)
            tx.abort("nope")

        kernel = run_programs(db, {"D": doomed})
        assert kernel.handles["D"].aborted
        assert balances(db, ledger) == (100, 100)
        # compensated at the highest level: one inverse PostTransfer
        comp = kernel.trace.of_kind("compensate")
        assert len(comp) == 1
        assert "PostTransfer" in comp[0].detail["with_"]

    def test_concurrent_aborts_and_commits_net_correctly(self, ledger_world):
        db, ledger = ledger_world

        async def doomed(tx):
            await tx.call(ledger, "PostTransfer", "a", "b", 40)
            for __ in range(10):
                await tx.pause()
            tx.abort("nope")

        programs = {
            "GOOD": transfer(ledger, "a", "b", 7),
            "BAD": doomed,
        }
        kernel = run_programs(db, programs, policy="random", seed=5)
        assert kernel.handles["GOOD"].committed
        assert kernel.handles["BAD"].aborted
        assert balances(db, ledger) == (93, 107)


class TestRestartHistory:
    def test_compensated_restart_absent_from_history(self, ledger_world):
        """PostTransfer restarts after its Debit committed: the rollback
        compensates the Debit with a Credit that attaches to the root.
        The history holds neither the rolled-back attempt nor that
        compensation; the retried PostTransfer appears once."""
        db, ledger = ledger_world
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="pre-acquire",
                    action="restart",
                    txn="T",
                    operation="Credit",
                    at_visit=1,
                    scope="parent",
                ),
            )
        )
        kernel = run_transactions(db, {"T": transfer(ledger, "a", "b", 7)}, faults=plan)
        assert kernel.handles["T"].committed and kernel.handles["T"].restarts == 1
        (compensation,) = kernel.trace.of_kind("compensate")
        assert "Credit" in compensation.detail["with_"]
        assert balances(db, ledger) == (93, 107)
        history = kernel.history()
        assert not any(r.is_compensation for r in history.records)
        assert [r.operation for r in history.children_of("T")] == ["PostTransfer"]
        (post,) = history.children_of("T")
        assert [r.operation for r in history.children_of(post.node_id)] == ["Debit", "Credit"]
        assert all(r.status == "committed" for r in history.records)
        ops = [r.operation for r in history.records]
        assert ops.count("Add") == 2 and ops.count("Get") == 2 and ops.count("Put") == 2
        assert is_semantically_serializable(history, db=db).serializable


class TestNodeIdentity:
    """A node fixes its root and top-level name when it is built; both
    must equal what walking ``parent`` to the top gives, for every node
    a run creates — deep ones, compensations, and the children a
    restarted subtransaction builds afresh."""

    @pytest.fixture
    def created(self, monkeypatch):
        nodes: list[TransactionNode] = []
        build = TransactionNode.__init__

        def recording_init(node, *args, **kwargs):
            build(node, *args, **kwargs)
            nodes.append(node)

        monkeypatch.setattr(TransactionNode, "__init__", recording_init)
        return nodes

    @staticmethod
    def assert_identity(nodes):
        for node in nodes:
            root = node
            while root.parent is not None:
                root = root.parent
            assert node.root() is root, node
            assert node.top_level_name == str(root.invocation.arg(0, root.node_id)), node

    def test_deep_and_compensation_nodes(self, ledger_world, created):
        db, ledger = ledger_world

        async def doomed(tx):
            await tx.call(ledger, "PostTransfer", "a", "b", 40)
            tx.abort("nope")

        programs = {"GOOD": transfer(ledger, "a", "b", 7), "BAD": doomed}
        kernel = run_programs(db, programs, policy="random", seed=5)
        assert kernel.handles["BAD"].aborted
        assert max(node.depth for node in created) >= 3
        compensations = [node for node in created if node.is_compensation]
        assert max(n.depth for c in compensations for n in c.descendants(True)) >= 3
        assert {node.top_level_name for node in created} == {"GOOD", "BAD"}
        self.assert_identity(created)

    def test_nodes_built_after_a_restart(self, ledger_world, created):
        db, ledger = ledger_world
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="pre-acquire",
                    action="restart",
                    txn="GOOD",
                    operation="Add",
                    at_visit=1,
                    scope="parent",
                ),
            )
        )
        kernel = run_transactions(db, {"GOOD": transfer(ledger, "a", "b", 7)}, faults=plan)
        assert kernel.handles["GOOD"].committed and kernel.handles["GOOD"].restarts == 1
        (event,) = kernel.trace.of_kind("restart")
        (restarted,) = [node for node in created if node.node_id == event.node]
        # The rollback cleared the first attempt's children; the ones
        # left were built by the retry.
        assert len([n for n in created if n.parent is restarted]) > len(restarted.children) > 0
        assert max(node.depth for node in restarted.descendants()) >= 3
        self.assert_identity(created)


class TestDescendantsWalk:
    """``descendants`` walks a subtree with one explicit stack: it yields
    the pre-order of the recursive walk it replaced, and a chain deeper
    than the interpreter's recursion limit walks too."""

    @staticmethod
    def node(name, parent=None):
        return TransactionNode(name, parent, Oid("Atom", 0), Invocation("Op", (name,)))

    @classmethod
    def recursive(cls, node, include_self):
        if include_self:
            yield node
        for child in node.children:
            yield from cls.recursive(child, True)

    def test_the_recursive_pre_order_on_a_mixed_width_tree(self):
        widths = {"T": 3, "T.1": 2, "T.2": 1, "T.1.0": 3, "T.2.0": 2, "T.1.0.2": 1}
        nodes = [self.node("T")]
        for parent in nodes:  # grows while it is walked: breadth-first build
            for i in range(widths.get(parent.node_id, 0)):
                nodes.append(self.node(f"{parent.node_id}.{i}", parent))
        for start in nodes:
            for include_self in (False, True):
                walked = list(start.descendants(include_self))
                assert walked == list(self.recursive(start, include_self)), start
        assert len(list(nodes[0].descendants(True))) == len(nodes) == 13

    def test_a_3000_deep_chain(self):
        chain = [self.node("T")]
        for depth in range(1, 3000):
            chain.append(self.node(f"T.{depth}", chain[-1]))
        assert list(chain[0].descendants(include_self=True)) == chain
        assert list(chain[0].descendants()) == chain[1:]
