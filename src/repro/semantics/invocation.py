"""Operation invocations.

An :class:`Invocation` is the semantic identity of an action: the name of
the invoked operation plus its actual input parameters.  The paper's
conflict test is defined over invocations ("taking into account the
actual input parameters of operations"), so compatibility-matrix entries
receive both invocations and may inspect the arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def _freeze(value: Any) -> Any:
    """Make an argument hashable for use inside a frozen invocation."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class Invocation:
    """An operation name bound to its actual parameters.

    Attributes:
        operation: The method / generic operation name (``"ShipOrder"``,
            ``"Get"``, ...).
        args: The actual input parameters, frozen to hashable form.
    """

    operation: str
    args: tuple[Any, ...] = field(default=())

    def __post_init__(self) -> None:
        args = tuple(_freeze(a) for a in self.args)
        object.__setattr__(self, "args", args)
        # Precomputing the hash once makes invocations cheap dict and
        # set keys.
        object.__setattr__(self, "_hash", hash((self.operation, args)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __getstate__(self) -> tuple[str, tuple]:
        # Hashes are per-process (string hashing is randomised); never
        # let a cached one survive pickling.
        return (self.operation, self.args)

    def __setstate__(self, state: tuple[str, tuple]) -> None:
        operation, args = state
        object.__setattr__(self, "operation", operation)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((operation, args)))

    def arg(self, index: int, default: Any = None) -> Any:
        """The *index*-th actual parameter, or *default* if absent."""
        if 0 <= index < len(self.args):
            return self.args[index]
        return default

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.operation}({rendered})"
