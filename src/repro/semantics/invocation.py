"""Operation invocations.

An :class:`Invocation` is the semantic identity of an action: the name of
the invoked operation plus its actual input parameters.  The paper's
conflict test is defined over invocations ("taking into account the
actual input parameters of operations"), so compatibility-matrix entries
receive both invocations and may inspect the arguments.

Every action builds one and the lock table hashes it, so an invocation
is a ``tuple`` subclass ``(operation, frozen args)``: its hash and
equality are the tuple's, computed in C, and its two fields are read
through C-level item getters.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable


def _freeze(value: Any) -> Any:
    """Make an argument hashable for use inside a frozen invocation.

    Lists and plain tuples become tuples of frozen items, sets become
    frozensets and dicts sorted item tuples; a tuple subclass (an
    :class:`~repro.objects.oid.Oid`, an :class:`Invocation`) is already
    an immutable value and is kept as it is.
    """
    if type(value) is tuple or isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Invocation(tuple):
    """An operation name bound to its actual parameters.

    Attributes:
        operation: The method / generic operation name (``"ShipOrder"``,
            ``"Get"``, ...).
        args: The actual input parameters, frozen to hashable form.
    """

    __slots__ = ()

    def __new__(cls, operation: str, args: Iterable[Any] = ()) -> "Invocation":
        return tuple.__new__(cls, (operation, tuple(_freeze(a) for a in args)))

    operation = property(itemgetter(0), doc="The operation name.")
    args = property(itemgetter(1), doc="The frozen actual parameters.")

    def __getnewargs__(self) -> tuple[str, tuple[Any, ...]]:
        return (self[0], self[1])

    def arg(self, index: int, default: Any = None) -> Any:
        """The *index*-th actual parameter, or *default* if absent."""
        args = self[1]
        if 0 <= index < len(args):
            return args[index]
        return default

    def __repr__(self) -> str:
        return f"Invocation(operation={self[0]!r}, args={self[1]!r})"

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self[1])
        return f"{self[0]}({rendered})"
