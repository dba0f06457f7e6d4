"""Logical object addresses and structural snapshots.

Log records must survive a crash that destroys every in-memory object,
so they cannot reference OIDs (OID assignment depends on allocation
order, which differs between the original run and recovery).  Instead an
object is addressed by its *logical path* from the database root — a
tuple of navigation steps:

* ``("component", label)`` — tuple component;
* ``("member", key)`` — set member by primary key;
* ``("impl",)`` — an encapsulated object's implementation;
* ``("child", name)`` — plain composition child (top-level objects).

Set members inserted by transactions are logged as *snapshots*: a
recursive structural description (kind, name, values, spec name) from
which :func:`rebuild_snapshot` recreates an equivalent fresh object
during redo.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import UnknownObjectError
from repro.objects.atoms import AtomicObject
from repro.objects.base import DatabaseObject
from repro.objects.database import Database
from repro.objects.encapsulated import EncapsulatedObject, TypeSpec
from repro.objects.sets import SetObject
from repro.objects.tuples import TupleObject

Address = tuple[tuple, ...]


def _walk_up(obj: DatabaseObject) -> tuple[Address, DatabaseObject]:
    """*obj*'s logical path from its composition root, and that root.

    One walk up the parent chain: each step reads the key or label the
    parent recorded on the child (:attr:`DatabaseObject.key_in_parent`)
    and checks that the parent still files the child under it.
    """
    steps: list[tuple] = []
    node = obj
    while node.parent is not None:
        parent = node.parent
        key = node.key_in_parent
        if isinstance(parent, TupleObject):
            if not (parent.has_component(key) and parent.component(key) is node):
                raise UnknownObjectError(f"{node.oid} is not a component of {parent.oid}")
            steps.append(("component", key))
        elif isinstance(parent, SetObject):
            if parent.raw_select(key) is not node:
                raise UnknownObjectError(f"{node.oid} is not a member of {parent.oid}")
            steps.append(("member", key))
        elif isinstance(parent, EncapsulatedObject):
            steps.append(("impl",))
        else:  # Database root or plain object
            steps.append(("child", node.name))
        node = parent
    return tuple(reversed(steps)), node


def address_of(obj: DatabaseObject) -> Address:
    """The logical path of *obj* from its database root."""
    return _walk_up(obj)[0]


def attached_address(obj: DatabaseObject, root: DatabaseObject) -> Optional[Address]:
    """:func:`address_of` *obj* if its composition root is *root*, else
    None (an object not yet, or no longer, in the database)."""
    address, top = _walk_up(obj)
    return address if top is root else None


def resolve_address(db: Database, address: Address) -> DatabaseObject:
    """Navigate *address* from the root of *db*."""
    node: DatabaseObject = db
    for step in address:
        kind = step[0]
        if kind == "component":
            assert isinstance(node, TupleObject), node
            node = node.component(step[1])
        elif kind == "member":
            assert isinstance(node, SetObject), node
            member = node.raw_select(step[1])
            if member is None:
                raise UnknownObjectError(f"no member {step[1]!r} at {address}")
            node = member
        elif kind == "impl":
            assert isinstance(node, EncapsulatedObject), node
            node = node.impl
        elif kind == "child":
            child = next((c for c in node.children if c.name == step[1]), None)
            if child is None:
                raise UnknownObjectError(f"no child {step[1]!r} at {address}")
            node = child
        else:  # pragma: no cover - malformed log
            raise ValueError(f"unknown address step {step!r}")
    return node


def snapshot(obj: DatabaseObject) -> dict:
    """A structural description sufficient to rebuild *obj* fresh."""
    if isinstance(obj, AtomicObject):
        return {"kind": "atom", "name": obj.name, "value": obj.raw_get()}
    if isinstance(obj, TupleObject):
        return {
            "kind": "tuple",
            "name": obj.name,
            "components": [
                (label, snapshot(obj.component(label))) for label in obj.component_labels
            ],
        }
    if isinstance(obj, SetObject):
        return {
            "kind": "set",
            "name": obj.name,
            "members": [(key, snapshot(member)) for key, member in obj.raw_scan()],
        }
    if isinstance(obj, EncapsulatedObject):
        return {
            "kind": "encapsulated",
            "name": obj.name,
            "spec": obj.spec.name,
            "impl": snapshot(obj.impl),
        }
    raise ValueError(f"cannot snapshot {obj!r}")


def rebuild_snapshot(
    db: Database,
    description: Mapping[str, Any],
    type_specs: Optional[Mapping[str, TypeSpec]] = None,
) -> DatabaseObject:
    """Recreate a fresh object (tree) from a :func:`snapshot`.

    *type_specs* maps encapsulated type names to their specs (recovery
    cannot guess which TypeSpec instance produced a name).
    """
    kind = description["kind"]
    if kind == "atom":
        return db.new_atom(description["name"], description["value"])
    if kind == "tuple":
        obj = db.new_tuple(description["name"])
        for label, child in description["components"]:
            obj.add_component(label, rebuild_snapshot(db, child, type_specs))
        return obj
    if kind == "set":
        obj = db.new_set(description["name"])
        for key, child in description["members"]:
            obj.raw_insert(key, rebuild_snapshot(db, child, type_specs))
        return obj
    if kind == "encapsulated":
        if type_specs is None or description["spec"] not in type_specs:
            raise UnknownObjectError(
                f"no TypeSpec registered for {description['spec']!r}"
            )
        obj = db.new_encapsulated(type_specs[description["spec"]], description["name"])
        obj.set_implementation(rebuild_snapshot(db, description["impl"], type_specs))
        return obj
    raise ValueError(f"unknown snapshot kind {kind!r}")
