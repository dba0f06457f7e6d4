"""Object identifiers.

Every database object carries a unique, immutable :class:`Oid`.  OIDs are
the keys of the lock table and of the history's composition map, so they
must be hashable and cheap to compare: an ``Oid`` is a
:class:`typing.NamedTuple`, so its hash and equality are the tuple's,
computed in C with no Python frame.
"""

from __future__ import annotations

from typing import NamedTuple


class Oid(NamedTuple):
    """Unique identifier of a database object.

    Being a tuple, an ``Oid`` equals a plain tuple of its fields
    (``Oid("Item", 3) == ("Item", 3)``) and hashes like it.  No map of
    the kernel mixes ``Oid`` keys with plain-tuple keys: the lock table,
    the object registry, the storage map and the composition maps are
    keyed by ``Oid`` alone.

    Attributes:
        type_name: The object's type label, e.g. ``"Item"`` or ``"Atom"``.
        number: Dense per-database serial number (unique across all types).
    """

    type_name: str
    number: int

    def __str__(self) -> str:
        return f"{self.type_name}#{self.number}"

    def __repr__(self) -> str:
        return f"Oid({self.type_name}#{self.number})"
