"""Micro-benchmarks of the hot kernel paths (real timing, many rounds).

Unlike the experiment benches (single-shot reproductions), these measure
wall-clock cost of the operations a lock manager lives on:

* the Fig. 9 conflict test against deep ancestor chains;
* compatibility-matrix lookups (boolean and parameter-dependent cells);
* a full single-transaction kernel execution (lock + execute + commit);
* the trace-based serializability checker on a Fig. 4-sized history;
* release + re-evaluation against a growing lock table (the O(affected)
  contract of the owner/blocker indices, asserted via the conflict-test
  counters and enforced by the perf-smoke CI job).
"""

from repro.core.conflict import test_conflict as fig9
from repro.core.kernel import run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.objects.oid import Oid
from repro.orderentry.schema import ITEM_TYPE, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.runtime.scheduler import Scheduler
from repro.semantics.invocation import Invocation
from repro.txn.locks import LockTable
from repro.txn.transaction import TransactionNode


def build_chain_world():
    spec = TypeSpec("MBox")

    @spec.method
    async def Op(ctx, obj, key):
        return None

    spec.matrix.allow_if_distinct_arg("Op", "Op")
    db = Database()
    box = db.new_encapsulated(spec, "box")
    db.attach_child(box)
    impl = db.new_tuple("impl")
    box.set_implementation(impl)
    atom = db.new_atom("a")
    impl.add_component("a", atom)

    def chain(name, depth, key):
        root = TransactionNode(name, None, db.oid, Invocation("Transaction", (name,)))
        node = root
        for level in range(depth):
            node = TransactionNode(
                f"{name}.{level}", node, box.oid, Invocation("Op", (key + level,))
            )
        leaf = TransactionNode(f"{name}.leaf", node, atom.oid, Invocation("Put", ("v",)))
        return root, leaf

    __, holder_leaf = chain("H", depth=6, key=0)
    __, requester_leaf = chain("R", depth=6, key=100)
    return db, holder_leaf, requester_leaf


def test_micro_conflict_test_deep_chains(benchmark):
    db, holder, requester = build_chain_world()

    def run():
        return fig9(
            db,
            holder, holder.invocation, holder.target,
            requester, requester.invocation, requester.target,
        )

    result = benchmark(run)
    # keys differ at every level: the deepest pair commutes; active -> case 2
    assert result is not None and result.invocation.operation == "Op"


def test_micro_matrix_lookup(benchmark):
    inv_a = Invocation("ShipOrder", (1,))
    inv_b = Invocation("ShipOrder", (2,))
    matrix = ITEM_TYPE.matrix

    def run():
        return matrix.compatible(inv_a, inv_b)

    assert benchmark(run) is True


def test_micro_single_transaction(benchmark):
    def run():
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        kernel = run_transactions(
            built.db, {"T": make_t1(built.item(0), 1, built.item(0), 1)}
        )
        return kernel.metrics.actions

    actions = benchmark(run)
    assert actions > 5


class RetestEverythingTable(LockTable):
    """The pre-index re-evaluation policy: every queue, every pass."""

    def _queue_needs_retest(self, target, queue, dirty, retest):
        return True


def _txn(name, target, op="Op"):
    root = TransactionNode(name, None, Oid("Database", 0), Invocation("Transaction", (name,)))
    leaf = TransactionNode(f"{name}.1", root, target, Invocation(op, (name,)))
    return root, leaf


def _always_conflicts(holder, h_inv, requester, r_inv, target):
    return holder.root()


def build_release_world(table_cls, n_cold, n_waiters=4):
    """One hot object (a holder plus *n_waiters* blocked requests) and
    *n_cold* cold objects each locked by an unrelated transaction."""
    scheduler = Scheduler()
    table = table_cls()
    hot = Oid("Atom", 0)
    __, holder = _txn("H", hot)
    table.grant(holder, hot, holder.invocation)
    for w in range(n_waiters):
        __, waiter = _txn(f"W{w}", hot)
        pending = table.enqueue(waiter, hot, waiter.invocation, scheduler.create_signal())
        table.set_blockers(pending, {holder.root()})
    cold_roots = []
    for i in range(n_cold):
        root, leaf = _txn(f"C{i}", Oid("Atom", i + 1))
        table.grant(leaf, Oid("Atom", i + 1), leaf.invocation)
        cold_roots.append(root)
    # Drain the dirty marks left by setup so the measured releases start
    # from a quiesced table (the hot queue is re-tested once here).
    table.reevaluate(_always_conflicts)
    return table, cold_roots


def _conflict_tests_for_cold_releases(table_cls, n_cold):
    """Conflict tests spent releasing every cold transaction (each
    release followed by a re-evaluation pass, as in the kernel)."""
    table, cold_roots = build_release_world(table_cls, n_cold)
    before = table.total_conflict_tests
    for root in cold_roots:
        table.release_tree(root)
        table.reevaluate(_always_conflicts)
    return table.total_conflict_tests - before


def test_micro_release_cost_independent_of_table_size(benchmark):
    """The tentpole contract: releasing a lock that affects no queue
    costs zero conflict tests, however large the table is.

    The retest-everything baseline pays the hot queue's full scan on
    every release, so its total grows linearly with the number of
    releases; the indexed table's stays at zero.
    """
    sizes = (8, 64, 512)
    indexed = [_conflict_tests_for_cold_releases(LockTable, m) for m in sizes]
    baseline = [_conflict_tests_for_cold_releases(RetestEverythingTable, m) for m in sizes]

    assert indexed == [0, 0, 0], indexed
    # the baseline re-tests the untouched hot queue on every release
    assert all(b >= m for b, m in zip(baseline, sizes)), baseline
    assert baseline[-1] > baseline[0] * 8, baseline

    benchmark.extra_info["conflict_tests_by_table_size"] = {
        "sizes": list(sizes),
        "indexed": indexed,
        "retest_everything": baseline,
    }

    def run():
        return _conflict_tests_for_cold_releases(LockTable, sizes[-1])

    assert benchmark(run) == 0


def test_micro_serializability_checker(benchmark):
    built = build_order_entry_database(n_items=2, orders_per_item=2)
    kernel = run_transactions(
        built.db,
        {
            "T1": make_t1(built.item(0), 1, built.item(1), 2),
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
        },
    )
    history = kernel.history()

    def run():
        return is_semantically_serializable(history, db=built.db)

    assert benchmark(run).serializable
