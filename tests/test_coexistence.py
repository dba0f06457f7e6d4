"""Coexistence of object-oriented and "conventional" transactions.

The paper's central motivation (Section 1.1): real systems mix
transactions that invoke object-type-specific methods with transactions
that access objects *directly* through a generic data manipulation
language — object-assembly queries, ad-hoc SQL, legacy code.  These
tests drive that mix explicitly:

* a *conventional reporting query* reads the whole database through
  generic operations only (Scan / Get — no methods at all);
* *object-oriented updaters* run the Section-2 methods concurrently;
* the protocol must give the query a semantically consistent view and
  keep every history reducible.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SemanticLockingProtocol
from repro.core.serializability import is_semantically_serializable
from repro.orderentry.schema import PAID, SHIPPED, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol

from tests.helpers import run_programs


def make_report_query(built):
    """A conventional transaction: assemble every order's state via
    generic operations only (no encapsulated methods)."""

    async def report(tx):
        rows = []
        for __, item in await tx.scan(built.items_set):
            orders = item.impl_component("Orders")
            for order_no, order in await tx.scan(orders):
                status = await tx.get(order.impl_component("Status"))
                quantity = await tx.get(order.impl_component("Quantity"))
                rows.append((item.name, order_no, status.events, quantity))
        return tuple(rows)

    return report


def make_conventional_update(built, item_index, order_index):
    """A conventional updater: raw Get/Put on a status atom (bypassing
    both Item and Order encapsulation entirely)."""

    async def update(tx):
        atom = built.status_atom(item_index, order_index)
        events = await tx.get(atom)
        await tx.put(atom, events.add("audited"))
        return True

    return update


class TestReportingQueryCoexistence:
    def test_query_sees_consistent_snapshot(self):
        """The report never observes a half-applied T1: every order it
        sees as shipped by T1 implies T1's other order is shipped too
        (when the report ran after T1)."""
        for seed in range(10):
            built = build_order_entry_database(n_items=2, orders_per_item=1)
            kernel = run_programs(
                built.db,
                {
                    "T1": make_t1(built.item(0), 1, built.item(1), 1),
                    "Q": make_report_query(built),
                },
                protocol=SemanticLockingProtocol(),
                policy="random",
                seed=seed,
            )
            report = kernel.handles["Q"].result
            if report is None:
                continue  # query aborted (deadlock victim); retried IRL
            shipped = {row[:2] for row in report if SHIPPED in row[2]}
            assert shipped in (set(), {("i1", 1), ("i2", 1)}), (seed, report)
            assert is_semantically_serializable(kernel.history(), db=built.db).serializable

    def test_naive_protocol_lets_query_see_torn_state(self):
        """Under the Section-3 protocol some interleaving shows the
        query a half-applied T1 — the coexistence problem in vivo."""
        torn_seen = False
        for seed in range(60):
            built = build_order_entry_database(n_items=2, orders_per_item=1)
            kernel = run_programs(
                built.db,
                {
                    "T1": make_t1(built.item(0), 1, built.item(1), 1),
                    "Q": make_report_query(built),
                },
                protocol=OpenNestedNaiveProtocol(),
                policy="random",
                seed=seed,
            )
            report = kernel.handles["Q"].result
            if report is None:
                continue
            shipped = {row[:2] for row in report if SHIPPED in row[2]}
            if shipped not in (set(), {("i1", 1), ("i2", 1)}):
                torn_seen = True
                verdict = is_semantically_serializable(kernel.history(), db=built.db)
                assert not verdict.serializable
                break
        assert torn_seen

    def test_query_and_payments_interleave(self):
        """TotalPayment-irrelevant updates (shipping) do not serialize
        against the report's *status* reads of other orders... but the
        report reads every status, so updates and the query genuinely
        contend; all we require is commit + reducibility."""
        built = build_order_entry_database(n_items=3, orders_per_item=2)
        kernel = run_programs(
            built.db,
            {
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
                "Q": make_report_query(built),
                "T2b": make_t2(built.item(1), 1, built.item(2), 2),
            },
            policy="random",
            seed=5,
        )
        finished = sum(1 for h in kernel.handles.values() if h.committed or h.aborted)
        assert finished == 3
        assert is_semantically_serializable(kernel.history(), db=built.db).serializable


class TestConventionalUpdaters:
    def test_raw_updates_coexist_with_methods(self):
        """A Get/Put bypasser marking orders 'audited' races method
        transactions; the protocol serializes them at the leaf level and
        the result contains both effects."""
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        kernel = run_programs(
            built.db,
            {
                "PAY": make_t2(built.item(0), 1, built.item(0), 1),
                "AUDIT": make_conventional_update(built, 0, 0),
            },
            policy="random",
            seed=1,
        )
        status = built.status_atom(0, 0).raw_get()
        committed = {n for n, h in kernel.handles.items() if h.committed}
        if committed == {"PAY", "AUDIT"}:
            assert status.events == frozenset({PAID, "audited"})
        assert is_semantically_serializable(kernel.history(), db=built.db).serializable

    @pytest.mark.parametrize("seed", range(8))
    def test_no_lost_audit_flags(self, seed):
        """Two raw updaters on the same atom: strict leaf R/W locking
        plus restart means no lost update, whatever the interleaving."""
        built = build_order_entry_database(n_items=1, orders_per_item=1)

        def marker(tag):
            async def update(tx):
                atom = built.status_atom(0, 0)
                events = await tx.get(atom)
                await tx.put(atom, events.add(tag))
            return update

        kernel = run_programs(
            built.db,
            {"A": marker("a"), "B": marker("b")},
            policy="random",
            seed=seed,
        )
        committed_tags = {
            tag for tag, name in (("a", "A"), ("b", "B"))
            if kernel.handles[name].committed
        }
        final_events = built.status_atom(0, 0).raw_get().events
        assert committed_tags.issubset(final_events)
