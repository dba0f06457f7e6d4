"""Unit tests for the semantic-serializability checker (BBG89 reduction)."""

from __future__ import annotations

from typing import Any, Optional

import pytest

from repro.core.serializability import is_semantically_serializable, matrices_from_database
from repro.objects.oid import Oid
from repro.semantics.compatibility import CompatibilityMatrix
from repro.txn.history import ActionRecord, History

DB = Oid("Database", 1)
BOX = Oid("Box", 2)
ATOM = Oid("Atom", 3)
ATOM2 = Oid("Atom", 4)

COMPOSITION = {DB: None, BOX: DB, ATOM: BOX, ATOM2: DB}


def box_matrix() -> CompatibilityMatrix:
    m = CompatibilityMatrix("Box", ["Add", "Read"])
    m.allow("Add", "Add")
    m.conflict("Add", "Read")
    m.allow("Read", "Read")
    return m


class _HistoryBuilder:
    """Tiny DSL for histories: sequential begin/end numbering."""

    def __init__(self) -> None:
        self.records: list[ActionRecord] = []
        self._seq = 0

    def seq(self) -> int:
        self._seq += 1
        return self._seq

    def add(
        self,
        node_id: str,
        parent: Optional[str],
        txn: str,
        target: Oid,
        op: str,
        begin: int,
        end: int,
        args: tuple[Any, ...] = (),
    ) -> None:
        self.records.append(
            ActionRecord(
                node_id=node_id,
                parent_id=parent,
                txn=txn,
                target=target,
                operation=op,
                args=args,
                begin_seq=begin,
                end_seq=end,
                status="committed",
                depth=0 if parent is None else 1,
            )
        )

    def history(self) -> History:
        return History(records=self.records, composition_parent=dict(COMPOSITION))


def check(history: History, budget: int = 50_000):
    return is_semantically_serializable(
        history, type_matrices={"Box": box_matrix()}, budget=budget
    )


class TestTrivialCases:
    def test_empty_history(self):
        assert check(History(records=[], composition_parent={})).serializable

    def test_single_transaction(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 6)
        b.add("a", "t1", "T1", BOX, "Add", 2, 5)
        b.add("p", "a", "T1", ATOM, "Put", 3, 4, args=(1,))
        result = check(b.history())
        assert result.serializable
        assert result.serial_order == ["T1"]

    def test_serial_transactions(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 4)
        b.add("p1", "t1", "T1", ATOM, "Put", 2, 3, args=(1,))
        b.add("t2", None, "T2", DB, "Transaction", 5, 8)
        b.add("p2", "t2", "T2", ATOM, "Put", 6, 7, args=(2,))
        result = check(b.history())
        assert result.serializable
        assert result.serial_order == ["T1", "T2"]


class TestFlatConflicts:
    def test_interleaved_writes_same_atom_not_serializable(self):
        """w1(x) w2(x) w1(x): classic non-serializable pattern."""
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 8)
        b.add("w1a", "t1", "T1", ATOM, "Put", 2, 3, args=("a",))
        b.add("w1b", "t1", "T1", ATOM, "Put", 6, 7, args=("b",))
        b.add("t2", None, "T2", DB, "Transaction", 1, 8)
        b.add("w2", "t2", "T2", ATOM, "Put", 4, 5, args=("c",))
        result = check(b.history())
        assert not result.serializable
        assert not result.exhausted

    def test_interleaved_writes_different_atoms_serializable(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 8)
        b.add("w1a", "t1", "T1", ATOM, "Put", 2, 3, args=("a",))
        b.add("w1b", "t1", "T1", ATOM, "Put", 6, 7, args=("b",))
        b.add("t2", None, "T2", DB, "Transaction", 1, 8)
        b.add("w2", "t2", "T2", ATOM2, "Put", 4, 5, args=("c",))
        assert check(b.history()).serializable

    def test_reads_always_serializable(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 8)
        b.add("r1a", "t1", "T1", ATOM, "Get", 2, 3)
        b.add("r1b", "t1", "T1", ATOM, "Get", 6, 7)
        b.add("t2", None, "T2", DB, "Transaction", 1, 8)
        b.add("r2", "t2", "T2", ATOM, "Get", 4, 5)
        assert check(b.history()).serializable


class TestSemanticRelief:
    def test_leaf_conflict_masked_by_commuting_parents(self):
        """The paper's key effect: interleaved Put/Put on the same atom
        is reducible when both sit under commuting Add actions."""
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 20)
        b.add("add1", "t1", "T1", BOX, "Add", 2, 7, args=(1,))
        b.add("p1", "add1", "T1", ATOM, "Put", 3, 4, args=("x",))
        b.add("q1", "t1", "T1", ATOM2, "Put", 10, 11, args=("later",))
        b.add("t2", None, "T2", DB, "Transaction", 1, 20)
        b.add("add2", "t2", "T2", BOX, "Add", 5, 9, args=(2,))
        b.add("p2", "add2", "T2", ATOM, "Put", 8, 8, args=("y",))
        # Leaf orders: p1(3) p2(8) q1(10) — T1's Put before T2's Put
        # before T1's second op: un-reducible at the leaf level, but the
        # Adds commute so the collapsed subtrees can be exchanged.
        result = check(b.history())
        assert result.serializable

    def test_conflicting_action_sandwiched_not_serializable(self):
        """T2's Read sits between two T1 Adds it conflicts with: the
        conflict cycle T1 -> T2 -> T1 makes the history irreducible."""
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 20)
        b.add("add1", "t1", "T1", BOX, "Add", 2, 4, args=(1,))
        b.add("p1", "add1", "T1", ATOM, "Put", 3, 3, args=("x",))
        b.add("add2", "t1", "T1", BOX, "Add", 10, 12, args=(2,))
        b.add("p2", "add2", "T1", ATOM, "Put", 11, 11, args=("y",))
        b.add("t2", None, "T2", DB, "Transaction", 1, 20)
        b.add("read2", "t2", "T2", BOX, "Read", 6, 8, args=(3,))
        b.add("g2", "read2", "T2", ATOM, "Get", 7, 7)
        result = check(b.history())
        assert not result.serializable
        assert not result.exhausted

    def test_bypass_conflict_detected(self):
        """A direct leaf read between an action's leaf write and a later
        same-atom write of the same transaction cannot be serialized —
        the Fig. 5 shape at its smallest."""
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 20)
        b.add("add1", "t1", "T1", BOX, "Add", 2, 5, args=(1,))
        b.add("p1", "add1", "T1", ATOM, "Put", 3, 4, args=("x",))
        b.add("q1", "t1", "T1", ATOM, "Put", 10, 11, args=("z",))
        # T2 bypasses BOX and reads ATOM directly between T1's writes
        b.add("t2", None, "T2", DB, "Transaction", 1, 20)
        b.add("g2", "t2", "T2", ATOM, "Get", 7, 8)
        result = check(b.history())
        assert not result.serializable


class TestAbortedFiltering:
    def test_aborted_transactions_ignored(self):
        records = [
            ActionRecord("t1", None, "T1", DB, "Transaction", (), 1, 4, "committed", 0),
            ActionRecord("p1", "t1", "T1", ATOM, "Put", ("a",), 2, 3, "committed", 1),
            ActionRecord("t2", None, "T2", DB, "Transaction", (), 1, 4, "aborted", 0),
            ActionRecord("p2", "t2", "T2", ATOM, "Put", ("b",), 2, 3, "committed", 1),
        ]
        history = History(records=records, composition_parent=dict(COMPOSITION))
        result = check(history)
        assert result.serializable
        assert result.serial_order == ["T1"]


class TestBudget:
    def test_budget_exhaustion_reported(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 40)
        b.add("t2", None, "T2", DB, "Transaction", 1, 40)
        # alternating commuting reads generate many swap states
        for i in range(6):
            owner = "t1" if i % 2 == 0 else "t2"
            txn = "T1" if i % 2 == 0 else "T2"
            b.add(f"r{i}", owner, txn, ATOM, "Get", 2 + i * 2, 3 + i * 2)
        result = check(b.history(), budget=2)
        assert not result.serializable
        assert result.exhausted
        with pytest.raises(TypeError):
            bool(result)  # unknown is neither verdict

    def test_same_history_succeeds_with_budget(self):
        b = _HistoryBuilder()
        b.add("t1", None, "T1", DB, "Transaction", 1, 40)
        b.add("t2", None, "T2", DB, "Transaction", 1, 40)
        for i in range(6):
            owner = "t1" if i % 2 == 0 else "t2"
            txn = "T1" if i % 2 == 0 else "T2"
            b.add(f"r{i}", owner, txn, ATOM, "Get", 2 + i * 2, 3 + i * 2)
        result = check(b.history())
        assert result.serializable


class TestMatricesFromDatabase:
    def test_collects_encapsulated_matrices(self, order_entry):
        matrices = matrices_from_database(order_entry.db)
        assert set(matrices) == {"Item", "Order"}
