"""Scenario tests reproducing the paper's figures (F4–F9).

Each test pins down one of the paper's worked examples:

* Fig. 4 — T1 (ship) and T2 (pay) interleave on the same orders without
  blocking under the semantic protocol; the history is semantically
  serializable.
* Fig. 5 — the naive Section-3 protocol admits a non-serializable
  execution when T3 bypasses the Item encapsulation; the full protocol
  blocks T3 until T1's top-level commit.
* Fig. 6 — case 1: a formal conflict with a retained lock is ignored
  when the commutative holder-side ancestor has committed.
* Fig. 7 — case 2: with the commutative ancestor still active, the
  requester waits exactly for that subtransaction's commit.
* Figs. 8/9 — lifecycle conformance of the kernel's lock events.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import TransactionManager
from repro.core.protocol import SemanticLockingProtocol, SemanticNoReliefProtocol
from repro.core.serializability import is_semantically_serializable
from repro.orderentry.schema import PAID, SHIPPED, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2, make_t3
from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol
from repro.runtime.scheduler import Scheduler

from tests.helpers import run_programs


class TestFig4:
    """T1 ships and T2 pays the same two orders, concurrently."""

    def run_fig4(self, protocol=None, policy="fifo", seed=None):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        programs = {
            "T1": make_t1(built.item(0), 1, built.item(1), 2),
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
        }
        kernel = run_programs(built.db, programs, protocol=protocol, policy=policy, seed=seed)
        return built, kernel

    def test_both_commit_without_top_level_waits(self):
        built, kernel = self.run_fig4()
        assert kernel.handles["T1"].committed
        assert kernel.handles["T2"].committed
        for event in kernel.trace.of_kind("block"):
            assert all(w not in ("T1", "T2") for w in event.detail["waits_for"])

    def test_non_leaf_actions_actually_interleave(self):
        """The figure shows concurrent non-leaf actions: T2's PayOrder
        overlaps T1's ShipOrder on the same item."""
        built, kernel = self.run_fig4()
        history = kernel.history()
        ships = [r for r in history.records if r.operation == "ShipOrder"]
        pays = [r for r in history.records if r.operation == "PayOrder"]
        overlaps = [
            (s, p)
            for s in ships
            for p in pays
            if s.target == p.target and s.begin_seq < p.end_seq and p.begin_seq < s.end_seq
        ]
        assert overlaps, "ShipOrder and PayOrder on the same item should overlap"

    def test_history_semantically_serializable(self):
        built, kernel = self.run_fig4()
        result = is_semantically_serializable(kernel.history(), db=built.db)
        assert result.serializable

    def test_effects_as_after_serial_execution(self):
        built, kernel = self.run_fig4()
        assert built.status_atom(0, 0).raw_get().events == frozenset({SHIPPED, PAID})
        assert built.status_atom(1, 1).raw_get().events == frozenset({SHIPPED, PAID})
        assert built.item(0).impl_component("QOH").raw_get() == 999

    @pytest.mark.parametrize("seed", range(8))
    def test_serializable_under_random_interleavings(self, seed):
        built, kernel = self.run_fig4(policy="random", seed=seed)
        assert kernel.handles["T1"].committed or kernel.handles["T1"].aborted
        result = is_semantically_serializable(kernel.history(), db=built.db)
        assert result.serializable, f"seed {seed}"


class TestFig5:
    """T3 bypasses the Item encapsulation while T1 ships two orders."""

    def build(self):
        built = build_order_entry_database(n_items=2, orders_per_item=1)
        programs = {
            "T1": make_t1(built.item(0), 1, built.item(1), 1),
            "T3": make_t3(built.order(0, 0), built.order(1, 0)),
        }
        return built, programs

    def test_naive_protocol_admits_anomaly(self):
        """Some interleaving lets T3 observe (shipped, not shipped) —
        impossible in any serial execution — and the checker agrees."""
        anomaly_seen = False
        for seed in range(40):
            built, programs = self.build()
            kernel = run_programs(
                built.db,
                programs,
                protocol=OpenNestedNaiveProtocol(),
                policy="random",
                seed=seed,
            )
            if kernel.handles["T3"].result == (True, False):
                anomaly_seen = True
                result = is_semantically_serializable(kernel.history(), db=built.db)
                assert not result.serializable
                break
        assert anomaly_seen, "expected the Fig. 5 anomaly under some seed"

    @pytest.mark.parametrize("seed", range(20))
    def test_full_protocol_never_admits_anomaly(self, seed):
        built, programs = self.build()
        kernel = run_programs(
            built.db,
            programs,
            protocol=SemanticLockingProtocol(),
            policy="random",
            seed=seed,
        )
        t3 = kernel.handles["T3"]
        if t3.committed:
            assert t3.result in ((True, True), (False, False))
        result = is_semantically_serializable(kernel.history(), db=built.db)
        assert result.serializable

    def test_retained_lock_blocks_t3_until_top_commit(self):
        """With T1 suspended after its first completed ShipOrder, T3's
        direct TestStatus(shipped) must block on T1 (the paper's point:
        the retained ChangeStatus lock still conflicts)."""
        built = build_order_entry_database(n_items=2, orders_per_item=1)
        scheduler = Scheduler()
        kernel = TransactionManager(
            built.db, protocol=SemanticLockingProtocol(), scheduler=scheduler
        )
        gate = scheduler.create_signal("after-first-ship")

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

        async def t3(tx):
            await gate
            first = await tx.call(built.order(0, 0), "TestStatus", SHIPPED)
            second = await tx.call(built.order(1, 0), "TestStatus", SHIPPED)
            return (first, second)

        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 1))
        kernel.spawn("T3", t3)
        kernel.run()

        t3_blocks = [e for e in kernel.trace.of_kind("block") if e.txn == "T3"]
        assert t3_blocks, "T3 should have hit T1's retained lock"
        assert t3_blocks[0].detail["waits_for"] == ["T1"]
        # blocked until T1's commit, so T3 sees a consistent snapshot
        assert kernel.handles["T3"].result == (True, True)


def _fig6_setup(protocol):
    """T1 finished ShipOrder(i1, o1); T4 then checks payment of o1."""
    built = build_order_entry_database(n_items=2, orders_per_item=1)
    scheduler = Scheduler()
    kernel = TransactionManager(built.db, protocol=protocol, scheduler=scheduler)
    gate = scheduler.create_signal("after-first-ship")

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
        await gate
        first = await tx.call(built.order(0, 0), "TestStatus", PAID)
        second = await tx.call(built.order(1, 0), "TestStatus", PAID)
        return (first, second)

    kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 1))
    kernel.spawn("T4", t4)
    kernel.run()
    return built, kernel


class TestFig6:
    """Case 1: committed commutative ancestor relieves the conflict."""

    def test_semantic_protocol_does_not_block_t4(self):
        built, kernel = _fig6_setup(SemanticLockingProtocol())
        t4_blocks = [e for e in kernel.trace.of_kind("block") if e.txn == "T4"]
        assert t4_blocks == []
        assert kernel.handles["T4"].result == (False, False)

    def test_t4_reads_inside_t1_span(self):
        built, kernel = _fig6_setup(SemanticLockingProtocol())
        history = kernel.history()
        t1_root = next(r for r in history.top_level() if r.txn == "T1")
        t4_gets = [r for r in history.records if r.txn == "T4" and r.operation == "Get"]
        assert t4_gets
        assert any(r.begin_seq < t1_root.end_seq for r in t4_gets)

    def test_ablation_blocks_without_relief(self):
        """Without the commutative-ancestor check, the retained Put lock
        blocks T4 until T1's commit — the unnecessary blocking the
        paper's case 1 eliminates."""
        built, kernel = _fig6_setup(SemanticNoReliefProtocol())
        t4_blocks = [e for e in kernel.trace.of_kind("block") if e.txn == "T4"]
        assert t4_blocks
        assert t4_blocks[0].detail["waits_for"] == ["T1"]

    def test_history_serializable_either_way(self):
        for protocol in (SemanticLockingProtocol(), SemanticNoReliefProtocol()):
            built, kernel = _fig6_setup(protocol)
            assert is_semantically_serializable(kernel.history(), db=built.db).serializable


def _fig7_setup(protocol):
    """T5 computes TotalPayment(i1) while T1 is mid-ShipOrder(i1, o1):
    ChangeStatus completed, ShipOrder not yet."""
    built = build_order_entry_database(
        n_items=1, orders_per_item=1, initial_events=frozenset({PAID})
    )
    scheduler = Scheduler()
    kernel = TransactionManager(built.db, protocol=protocol, scheduler=scheduler)
    g_mid_ship = scheduler.create_signal("mid-ship")
    g_t5_requested = scheduler.create_signal("t5-requested")
    status_oid = built.status_atom(0, 0).oid

    def probe(node, phase):
        if (
            phase == "post"
            and node.invocation.operation == "ChangeStatus"
            and node.top_level_name == "T1"
        ):
            g_mid_ship.fire()
            return g_t5_requested  # suspend T1 inside ShipOrder
        if (
            phase == "pre"
            and node.top_level_name == "T5"
            and node.invocation.operation == "Get"
            and node.target == status_oid
            and not g_t5_requested.done
        ):
            # fire in the same step: T5's lock request lands while
            # ShipOrder is still active
            g_t5_requested.fire()
        return None

    kernel.probe = probe

    async def t1(tx):
        return await tx.call(built.item(0), "ShipOrder", 1)

    async def t5(tx):
        await g_mid_ship
        return await tx.call(built.item(0), "TotalPayment")

    kernel.spawn("T1", t1)
    kernel.spawn("T5", t5)
    kernel.run()
    return built, kernel, status_oid


class TestFig7:
    """Case 2: active commutative ancestor — wait for its subtxn commit."""

    def test_t5_blocks_on_shiporder_subtransaction(self):
        built, kernel, status_oid = _fig7_setup(SemanticLockingProtocol())
        t5_blocks = [e for e in kernel.trace.of_kind("block") if e.txn == "T5"]
        assert t5_blocks, "T5's status read should hit the retained Put lock"
        history = kernel.history()
        ship = next(r for r in history.records if r.operation == "ShipOrder")
        assert t5_blocks[0].detail["waits_for"] == [ship.node_id]

    @staticmethod
    def _event_indexes(kernel):
        """(index of T5's lock re-grant, index of T1's lock release)."""
        events = list(kernel.trace)
        regrant = next(
            i for i, e in enumerate(events) if e.kind == "regrant" and e.txn == "T5"
        )
        release = next(
            i for i, e in enumerate(events) if e.kind == "release" and e.txn == "T1"
        )
        return regrant, release

    def test_t5_granted_at_subtransaction_commit_not_top_level(self):
        built, kernel, status_oid = _fig7_setup(SemanticLockingProtocol())
        regrant, release = self._event_indexes(kernel)
        assert regrant < release  # woken by ShipOrder's commit
        assert kernel.handles["T5"].result == 10  # 1 paid order, qty 1 * 10

    def test_ablation_waits_for_top_level(self):
        built, kernel, status_oid = _fig7_setup(SemanticNoReliefProtocol())
        regrant, release = self._event_indexes(kernel)
        assert regrant > release  # only T1's release unblocks T5

    def test_history_serializable(self):
        built, kernel, __ = _fig7_setup(SemanticLockingProtocol())
        assert is_semantically_serializable(kernel.history(), db=built.db).serializable


class TestFig8Fig9Conformance:
    """Lock-lifecycle obligations of the Fig. 8 pseudo-code."""

    def test_every_action_requests_before_granting(self):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = run_programs(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 2),
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
            },
        )
        by_node: dict[str, list[str]] = {}
        for event in kernel.trace.of_kind("request", "grant", "block", "wake"):
            by_node.setdefault(event.node, []).append(event.kind)
        for node, kinds in by_node.items():
            assert kinds[0] == "request", (node, kinds)
            assert kinds[-1] in ("grant", "wake"), (node, kinds)
            if "block" in kinds:
                assert kinds.index("block") < kinds.index("wake")

    def test_top_level_commit_releases_everything(self):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = run_programs(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 2),
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
            },
        )
        releases = kernel.trace.of_kind("release")
        assert len(releases) == 2  # one per transaction
        assert kernel.locks.lock_count == 0

    def test_subtransaction_locks_retained_not_released(self):
        """Under the semantic protocol no lock disappears before the
        top-level release events."""
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        scheduler = Scheduler()
        kernel = TransactionManager(
            built.db, protocol=SemanticLockingProtocol(), scheduler=scheduler
        )
        counts = []

        def probe(node, phase):
            if phase == "post" and node.invocation.operation == "ShipOrder":
                counts.append(kernel.locks.lock_count)
            return None

        kernel.probe = probe

        async def t1(tx):
            await tx.call(built.item(0), "ShipOrder", 1)

        kernel.spawn("T1", t1)
        kernel.run()
        # Transaction + ShipOrder + Select + 3x atom ops + ChangeStatus
        # + its 2 leaf ops = 9 locks, all still held at ShipOrder end.
        assert counts == [9]
