"""Unit tests for invocations and compatibility matrices."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.errors import SchemaError
from repro.objects.oid import Oid
from repro.protocols.base import LockSpec
from repro.semantics.compatibility import CompatibilityMatrix
from repro.semantics.generic import ATOM_MATRIX, DATABASE_MATRIX, SET_MATRIX
from repro.semantics.invocation import Invocation, _freeze
from repro.txn.compensation import UndoEntry


def inv(op: str, *args) -> Invocation:
    return Invocation(op, args)


class TestInvocation:
    def test_args_frozen_and_hashable(self):
        i = inv("Op", [1, 2], {"a": 1}, {3, 4})
        assert hash(i) is not None
        assert i.args[0] == (1, 2)

    def test_arg_accessor(self):
        i = inv("Op", "x", "y")
        assert i.arg(0) == "x"
        assert i.arg(5) is None
        assert i.arg(5, "d") == "d"

    def test_str(self):
        assert str(inv("ShipOrder", 3)) == "ShipOrder(3)"

    def test_equality(self):
        assert inv("A", 1) == inv("A", 1)
        assert inv("A", 1) != inv("A", 2)
        assert inv("A") != inv("B")

    def test_repr(self):
        assert repr(inv("ShipOrder", 3, Oid("Item", 1))) == (
            "Invocation(operation='ShipOrder', args=(3, Oid(Item#1)))"
        )
        assert str(inv("ShipOrder", 3, Oid("Item", 1))) == "ShipOrder(3, Oid(Item#1))"

    def test_keyword_construction(self):
        i = Invocation(operation="Get", args=[1, [2]])
        assert i == inv("Get", 1, (2,))
        assert (i.operation, i.args) == ("Get", (1, (2,)))
        assert Invocation("R") == Invocation("R", ()) and Invocation("R").args == ()

    def test_equal_values_hash_equal(self):
        assert hash(inv("A", [1, 2], {"k": {3}})) == hash(inv("A", (1, 2), {"k": {3}}))
        assert len({inv("A", 1), inv("A", 1), inv("A", 2)}) == 2

    def test_fields_cannot_be_assigned(self):
        i = inv("A", 1)
        with pytest.raises(AttributeError):
            i.operation = "B"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            i.args = ()  # type: ignore[misc]

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        i = inv("Op", [1, 2], {"a": 1}, Oid("Item", 3))
        again = pickle.loads(pickle.dumps(i))
        assert again == i and hash(again) == hash(i) and type(again) is Invocation
        assert type(again.args[2]) is Oid

    def test_pickle_from_another_process_hashes_here(self):
        """String hashes are per process: an invocation pickled under
        another hash seed hashes like one built here, so no hash
        travels in the pickle."""
        code = (
            "import pickle, sys; from repro.objects.oid import Oid; "
            "from repro.semantics.invocation import Invocation; "
            "sys.stdout.buffer.write(pickle.dumps(Invocation('Get', ('x', Oid('Item', 1)))))"
        )
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
        dumped = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        local = inv("Get", "x", Oid("Item", 1))
        assert {pickle.loads(dumped): True}[local]
        assert hash(pickle.loads(dumped)) == hash(local)

    def test_freeze_keeps_an_oid_and_freezes_containers(self):
        oid = Oid("Item", 3)
        assert _freeze(oid) is oid
        assert type(_freeze((oid, [1]))[0]) is Oid
        assert _freeze(inv("A", 1)) == inv("A", 1) and type(_freeze(inv("A", 1))) is Invocation
        assert _freeze([1, [2]]) == (1, (2,))
        assert _freeze({2, 1}) == frozenset({1, 2})
        assert _freeze({"b": [1], "a": 2}) == (("a", 2), ("b", (1,)))
        assert _freeze((1, [2])) == (1, (2,))


class TestLockSpecAndUndoEntry:
    """LockSpec and UndoEntry are named tuples built on every action;
    their fields, text and pickling are those of the dataclasses they
    replaced."""

    @staticmethod
    def values():
        oid = Oid("Item", 3)
        spec = LockSpec(target=oid, invocation=Invocation("R"))
        inverse = UndoEntry.make_inverse("undo ship", oid, "Unship", [1])
        physical = UndoEntry(kind="physical", description="undo put")
        return spec, inverse, physical

    def test_repr(self):
        spec, inverse, physical = self.values()
        assert repr(spec) == str(spec) == (
            "LockSpec(target=Oid(Item#3), invocation=Invocation(operation='R', args=()))"
        )
        assert repr(inverse) == str(inverse) == (
            "UndoEntry(kind='inverse', description='undo ship', physical=None, "
            "inverse_target=Oid(Item#3), inverse_operation='Unship', inverse_args=(1,))"
        )
        assert repr(physical) == (
            "UndoEntry(kind='physical', description='undo put', physical=None, "
            "inverse_target=None, inverse_operation=None, inverse_args=())"
        )

    def test_keyword_construction_and_defaults(self):
        spec, inverse, physical = self.values()
        assert (spec.target, spec.invocation) == (Oid("Item", 3), Invocation("R"))
        assert inverse.inverse_args == (1,) and inverse.kind == "inverse"
        assert physical.physical is None and physical.inverse_args == ()

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        for value in self.values():
            again = pickle.loads(pickle.dumps(value))
            assert again == value and hash(again) == hash(value)
            assert type(again) is type(value)

    def test_equal_values_hash_equal(self):
        for value, twin in zip(self.values(), self.values()):
            assert value == twin and hash(value) == hash(twin)

    def test_fields_cannot_be_assigned(self):
        spec, inverse, __ = self.values()
        with pytest.raises(AttributeError):
            spec.target = Oid("Item", 4)  # type: ignore[misc]
        with pytest.raises(AttributeError):
            inverse.kind = "physical"  # type: ignore[misc]


class TestCompatibilityMatrix:
    def make(self) -> CompatibilityMatrix:
        return CompatibilityMatrix("T", ["A", "B", "C"])

    def test_boolean_entries_symmetric(self):
        m = self.make()
        m.allow("A", "B")
        assert m.compatible(inv("A"), inv("B"))
        assert m.compatible(inv("B"), inv("A"))

    def test_conflict_entries(self):
        m = self.make()
        m.conflict("A", "B")
        assert not m.compatible(inv("A"), inv("B"))

    def test_unknown_pairs_conflict(self):
        m = self.make()
        assert not m.compatible(inv("A"), inv("C"))

    def test_unknown_operation_rejected(self):
        m = self.make()
        with pytest.raises(SchemaError, match="not declared"):
            m.allow("A", "Z")

    def test_predicate_entries_mirror_arguments(self):
        m = self.make()
        # compatible iff held's first arg is smaller than requested's
        m.allow_if("A", "B", lambda h, r: h.arg(0) < r.arg(0))
        assert m.compatible(inv("A", 1), inv("B", 2))
        assert not m.compatible(inv("A", 2), inv("B", 1))
        # mirrored cell swaps roles: held B(2), requested A(1) means
        # A(1) < B(2) in the original orientation
        assert m.compatible(inv("B", 2), inv("A", 1))
        assert not m.compatible(inv("B", 1), inv("A", 2))

    def test_distinct_arg_helper(self):
        m = self.make()
        m.allow_if_distinct_arg("A", "A")
        assert m.compatible(inv("A", 1), inv("A", 2))
        assert not m.compatible(inv("A", 1), inv("A", 1))

    def test_exactly_one_of_value_predicate(self):
        m = self.make()
        with pytest.raises(SchemaError):
            m.set_entry("A", "B")
        with pytest.raises(SchemaError):
            m.set_entry("A", "B", value=True, predicate=lambda h, r: True)

    def test_completeness_tracking(self):
        m = CompatibilityMatrix("T", ["A", "B"])
        assert not m.is_complete()
        m.allow("A", "A")
        m.allow("A", "B")
        m.conflict("B", "B")
        assert m.is_complete()
        assert m.missing_pairs() == []

    def test_table_rendering(self):
        m = CompatibilityMatrix("T", ["A", "B"])
        m.allow("A", "A")
        m.conflict("A", "B")
        m.allow_if_distinct_arg("B", "B")
        table = m.as_table()
        assert table[0] == ["T", "A", "B"]
        assert table[1] == ["A", "ok", "conflict"]
        assert table[2][2] == "ok iff arg0 differs"
        assert "conflict" in m.format_table()


class TestGenericMatrices:
    def test_atom_matrix(self):
        assert ATOM_MATRIX.compatible(inv("Get"), inv("Get"))
        assert not ATOM_MATRIX.compatible(inv("Get"), inv("Put", 1))
        assert not ATOM_MATRIX.compatible(inv("Put", 1), inv("Put", 1))
        assert ATOM_MATRIX.is_complete()

    def test_set_matrix_key_dependence(self):
        assert SET_MATRIX.compatible(inv("Insert", 1), inv("Insert", 2))
        assert not SET_MATRIX.compatible(inv("Insert", 1), inv("Insert", 1))
        assert SET_MATRIX.compatible(inv("Insert", 1), inv("Select", 2))
        assert not SET_MATRIX.compatible(inv("Insert", 1), inv("Select", 1))
        assert SET_MATRIX.compatible(inv("Remove", 1), inv("Remove", 2))
        assert not SET_MATRIX.compatible(inv("Remove", 1), inv("Remove", 1))

    def test_set_matrix_scan_and_size(self):
        assert not SET_MATRIX.compatible(inv("Insert", 1), inv("Scan"))
        assert not SET_MATRIX.compatible(inv("Remove", 1), inv("Size"))
        assert SET_MATRIX.compatible(inv("Scan"), inv("Scan"))
        assert SET_MATRIX.compatible(inv("Select", 1), inv("Scan"))
        assert SET_MATRIX.compatible(inv("Size"), inv("Size"))
        assert SET_MATRIX.is_complete()

    def test_database_matrix(self):
        assert DATABASE_MATRIX.compatible(inv("Transaction", "a"), inv("Transaction", "b"))
