"""Tuple objects.

A tuple object aggregates named components (``t.c`` in the paper's
notation).  Component *navigation* is pure structure lookup — the schema
is static — so it is not a synchronized operation; only the operations on
the atoms/sets reached through it are.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.objects.base import DatabaseObject
from repro.objects.oid import Oid

TUPLE_TYPE_NAME = "Tuple"


class TupleObject(DatabaseObject):
    """A record-like object with named components."""

    def __init__(self, oid: Oid, name: str) -> None:
        super().__init__(oid, name)
        self._components: dict[str, DatabaseObject] = {}

    def add_component(self, label: str, component: DatabaseObject) -> DatabaseObject:
        """Attach *component* under the name *label*.

        Returns the component for chaining convenience.
        """
        if label in self._components:
            raise SchemaError(f"{self.oid} already has a component {label!r}")
        self.attach_child(component)
        self._components[label] = component
        component.key_in_parent = label
        return component

    def component(self, label: str) -> DatabaseObject:
        """Return the component named *label* (``t.c`` navigation)."""
        try:
            return self._components[label]
        except KeyError:
            raise SchemaError(f"{self.oid} has no component {label!r}") from None

    def has_component(self, label: str) -> bool:
        return label in self._components

    @property
    def component_labels(self) -> tuple[str, ...]:
        return tuple(self._components)
