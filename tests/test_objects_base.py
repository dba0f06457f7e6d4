"""Unit tests for the object model base: OIDs and the composition tree."""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro.errors import SchemaError
from repro.objects.base import DatabaseObject
from repro.objects.oid import Oid
from repro.semantics.invocation import Invocation
from repro.util.tracelog import TraceLog


def make(name: str, number: int = 0) -> DatabaseObject:
    return DatabaseObject(Oid("T", number), name)


class TestOid:
    def test_equality_and_hash(self):
        assert Oid("Item", 1) == Oid("Item", 1)
        assert Oid("Item", 1) != Oid("Item", 2)
        assert Oid("Item", 1) != Oid("Order", 1)
        assert len({Oid("Item", 1), Oid("Item", 1), Oid("Item", 2)}) == 2

    def test_str(self):
        assert str(Oid("Item", 3)) == "Item#3"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Oid("Item", 1).number = 2  # type: ignore[misc]

    def test_repr(self):
        assert repr(Oid("Item", 3)) == "Oid(Item#3)"

    def test_keyword_construction(self):
        oid = Oid(type_name="Item", number=3)
        assert oid == Oid("Item", 3)
        assert (oid.type_name, oid.number) == ("Item", 3)

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        oid = Oid("Item", 3)
        again = pickle.loads(pickle.dumps(oid))
        assert again == oid and hash(again) == hash(oid)
        assert type(again) is Oid and repr(again) == "Oid(Item#3)"

    def test_equals_a_plain_tuple_of_its_fields(self):
        """An Oid is a tuple: it equals, and hashes like, the plain
        tuple of its fields.  No kernel map mixes the two kinds of key."""
        assert Oid("Item", 3) == ("Item", 3)
        assert hash(Oid("Item", 3)) == hash(("Item", 3))
        assert Oid("Item", 3) != ("Item", 4)

    def test_trace_jsonl_renders_an_oid_as_type_and_number(self):
        trace = TraceLog()
        trace.record(1, "grant", "n1", "T1", {"target": Oid("Item", 3), "mode": Invocation("R")})
        out = io.StringIO()
        assert trace.write_jsonl(out) == 1
        detail = json.loads(out.getvalue())["detail"]
        assert detail == {"target": "Item#3", "mode": "R()"}


class TestCompositionTree:
    def test_attach_sets_parent_and_children(self):
        parent, child = make("p", 1), make("c", 2)
        parent.attach_child(child)
        assert child.parent is parent
        assert parent.children == (child,)

    def test_disjointness_enforced(self):
        a, b, child = make("a", 1), make("b", 2), make("c", 3)
        a.attach_child(child)
        with pytest.raises(SchemaError, match="disjoint"):
            b.attach_child(child)

    def test_cycle_rejected(self):
        a, b = make("a", 1), make("b", 2)
        a.attach_child(b)
        with pytest.raises(SchemaError, match="cycle"):
            b.attach_child(a)

    def test_self_attach_rejected(self):
        a = make("a", 1)
        with pytest.raises(SchemaError, match="cycle"):
            a.attach_child(a)

    def test_detach(self):
        parent, child = make("p", 1), make("c", 2)
        parent.attach_child(child)
        parent.detach_child(child)
        assert child.parent is None
        assert parent.children == ()

    def test_detach_wrong_parent(self):
        parent, other, child = make("p", 1), make("o", 2), make("c", 3)
        parent.attach_child(child)
        with pytest.raises(SchemaError):
            other.detach_child(child)

    def test_reattach_after_detach_allowed(self):
        a, b, child = make("a", 1), make("b", 2), make("c", 3)
        a.attach_child(child)
        a.detach_child(child)
        b.attach_child(child)
        assert child.parent is b

    def test_ancestors_bottom_up(self):
        a, b, c = make("a", 1), make("b", 2), make("c", 3)
        a.attach_child(b)
        b.attach_child(c)
        assert [x.name for x in c.composition_ancestors()] == ["b", "a"]
        assert [x.name for x in c.composition_ancestors(include_self=True)] == ["c", "b", "a"]

    def test_is_composition_ancestor_of(self):
        a, b, c, d = make("a", 1), make("b", 2), make("c", 3), make("d", 4)
        a.attach_child(b)
        b.attach_child(c)
        assert a.is_composition_ancestor_of(c)
        assert not c.is_composition_ancestor_of(a)
        assert not a.is_composition_ancestor_of(a)  # strict
        assert not a.is_composition_ancestor_of(d)

    def test_subtree_preorder(self):
        a, b, c, d = make("a", 1), make("b", 2), make("c", 3), make("d", 4)
        a.attach_child(b)
        a.attach_child(d)
        b.attach_child(c)
        assert [x.name for x in a.subtree()] == ["a", "b", "c", "d"]

    def test_path(self):
        a, b, c = make("DB", 1), make("Items", 2), make("i1", 3)
        a.attach_child(b)
        b.attach_child(c)
        assert c.path == "DB.Items.i1"
