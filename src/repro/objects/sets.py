"""Keyed set objects.

A set object holds member objects keyed by a primary key (the paper
assumes a primary key among the atomic components of the member type and
a generic ``Select`` operation returning the member with a given key).

The synchronized generic operations are ``Insert``, ``Remove``,
``Select``, ``Scan`` and ``Size``; as with atoms, the methods here are
raw accessors for kernel use.  Inserting a member also attaches it to the
composition tree, so member objects become components of the set.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SchemaError
from repro.objects.base import DatabaseObject
from repro.objects.oid import Oid


class SetObject(DatabaseObject):
    """A keyed collection of member objects."""

    def __init__(self, oid: Oid, name: str) -> None:
        super().__init__(oid, name)
        self._members: dict[Any, DatabaseObject] = {}

    def raw_insert(self, key: Any, member: DatabaseObject) -> None:
        """Unsynchronized insert (kernel use only).

        Raises:
            SchemaError: if *key* is already present (primary keys are
                unique; the synchronized ``Insert`` surfaces this to the
                caller as a failed operation).
        """
        if key in self._members:
            raise SchemaError(f"{self.oid} already contains key {key!r}")
        self.attach_child(member)
        self._members[key] = member
        member.key_in_parent = key

    def raw_remove(self, key: Any) -> DatabaseObject:
        """Unsynchronized remove (kernel use only); returns the member."""
        try:
            member = self._members.pop(key)
        except KeyError:
            raise SchemaError(f"{self.oid} has no member with key {key!r}") from None
        self.detach_child(member)
        member.key_in_parent = None
        return member

    def raw_select(self, key: Any) -> Optional[DatabaseObject]:
        """Unsynchronized keyed lookup (kernel use only)."""
        return self._members.get(key)

    def raw_scan(self) -> list[tuple[Any, DatabaseObject]]:
        """Unsynchronized scan in key-insertion order (kernel use only)."""
        return list(self._members.items())

    def raw_size(self) -> int:
        """Unsynchronized cardinality (kernel use only)."""
        return len(self._members)

    def raw_contains(self, key: Any) -> bool:
        return key in self._members
