"""Common base class of all database objects.

Objects form a *composition tree*: every object has at most one
composition parent (the paper restricts itself to disjoint complex
objects, i.e. no referentially shared subobjects).  Disjointness is
enforced here: re-parenting an object that already has a parent raises
:class:`~repro.errors.SchemaError`.

The composition tree matters to concurrency control in two ways:

* the semantic-serializability checker treats actions on objects from
  *disjoint* composition subtrees as trivially commutative, while actions
  on hierarchically related objects are conservatively in conflict;
* baseline protocols use it to map encapsulated objects onto their
  implementation objects.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import SchemaError
from repro.objects.oid import Oid


class DatabaseObject:
    """A node of the composition tree.

    Subclasses add state (atoms), structure (tuples, sets) or behaviour
    (encapsulated ADTs).  The base class only manages identity, naming,
    and the parent/child composition relationship.
    """

    def __init__(self, oid: Oid, name: str) -> None:
        self.oid = oid
        self.name = name
        self._parent: Optional["DatabaseObject"] = None
        self._children: list["DatabaseObject"] = []
        #: The key (set member) or label (tuple component) this object
        #: is filed under in its parent, recorded by the parent, so a
        #: logical address is a walk up the tree, not a parent scan.
        self.key_in_parent: Any = None

    # ------------------------------------------------------------------
    # Composition tree
    # ------------------------------------------------------------------
    @property
    def parent(self) -> Optional["DatabaseObject"]:
        """The unique composition parent, or None for roots."""
        return self._parent

    @property
    def children(self) -> tuple["DatabaseObject", ...]:
        """Direct composition children, in attachment order."""
        return tuple(self._children)

    def attach_child(self, child: "DatabaseObject") -> None:
        """Make *child* a component of this object.

        Raises:
            SchemaError: if *child* already has a composition parent
                (complex objects must be disjoint) or if attaching would
                create a cycle.
        """
        if child._parent is not None:
            raise SchemaError(
                f"{child.oid} already belongs to {child._parent.oid}; "
                "complex objects must be disjoint"
            )
        if child is self or child.is_composition_ancestor_of(self):
            raise SchemaError(f"attaching {child.oid} under {self.oid} would create a cycle")
        child._parent = self
        self._children.append(child)

    def detach_child(self, child: "DatabaseObject") -> None:
        """Remove *child* from this object's components."""
        if child._parent is not self:
            raise SchemaError(f"{child.oid} is not a component of {self.oid}")
        child._parent = None
        self._children.remove(child)

    def composition_ancestors(self, include_self: bool = False) -> Iterator["DatabaseObject"]:
        """Yield ancestors bottom-up (optionally starting with self)."""
        node = self if include_self else self._parent
        while node is not None:
            yield node
            node = node._parent

    def is_composition_ancestor_of(self, other: "DatabaseObject") -> bool:
        """True if *self* is a strict composition ancestor of *other*."""
        return any(node is self for node in other.composition_ancestors())

    def subtree(self) -> Iterator["DatabaseObject"]:
        """Yield this object and every composition descendant (pre-order)."""
        yield self
        for child in self._children:
            yield from child.subtree()

    @property
    def path(self) -> str:
        """Dotted path from the composition root, e.g. ``"DB.Items.i1.QOH"``."""
        names = [obj.name for obj in self.composition_ancestors(include_self=True)]
        return ".".join(reversed(names))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.oid} {self.name!r}>"
