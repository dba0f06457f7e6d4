"""Parameter-aware (and state-aware) compatibility matrices.

A :class:`CompatibilityMatrix` answers the question at the heart of the
paper's conflict test: *do two method invocations on the same object
commute?*  Entries can be

* plain booleans — state-independent, parameter-blind commutativity, as
  in most of Fig. 2;
* predicates over the two invocations — parameter-dependent
  commutativity, as in Fig. 3 where ``ChangeStatus(e1)`` and
  ``TestStatus(e2)`` conflict exactly when ``e1 == e2``;
* *state predicates* over the two invocations plus a :class:`StateView`
  of the target object — the state-dependent commutativity the paper
  cites as possible within the framework ([O'N86]'s escrow method,
  [We88]): e.g. two ``Withdraw`` calls commute while the balance covers
  every currently-granted withdrawal plus the requested one.  State
  cells are evaluated only where a live view is available (the lock
  manager at request time); contexts without one — notably the post-hoc
  serializability checker — treat them conservatively as conflicts.

Unknown operation pairs default to *conflict* — the safe choice the
paper's framework implies: without a commutativity specification, no
concurrency may be claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SchemaError
from repro.semantics.invocation import Invocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objects.base import DatabaseObject

CompatPredicate = Callable[[Invocation, Invocation], bool]
StatePredicate = Callable[[Invocation, Invocation, "StateView"], bool]


@dataclass
class StateView:
    """What a state-dependent compatibility cell may inspect.

    Attributes:
        obj: The live target object (read-only access by convention).
        held_invocations: Every invocation currently holding a lock on
            the object — escrow-style predicates must account for all
            granted-but-uncommitted operations, not just the one being
            compared, or concurrent grants race past the state check.
    """

    obj: "DatabaseObject"
    held_invocations: tuple[Invocation, ...] = field(default_factory=tuple)


@dataclass
class MatrixEntry:
    """One cell of a compatibility matrix.

    Exactly one of ``value`` (boolean), ``predicate``
    (parameter-dependent), or ``state_predicate`` (state-dependent) is
    set.  ``label`` is used when rendering the matrix as a table.
    """

    value: Optional[bool] = None
    predicate: Optional[CompatPredicate] = None
    state_predicate: Optional[StatePredicate] = None
    label: str = ""

    def compatible(
        self,
        held: Invocation,
        requested: Invocation,
        view: Optional[StateView] = None,
    ) -> bool:
        if self.state_predicate is not None:
            if view is None:
                return False  # no state to consult: conservative
            return bool(self.state_predicate(held, requested, view))
        if self.predicate is not None:
            return bool(self.predicate(held, requested))
        return bool(self.value)

    def render(self) -> str:
        if self.state_predicate is not None:
            return self.label or "state"
        if self.predicate is not None:
            return self.label or "param"
        return "ok" if self.value else "conflict"


class CompatibilityMatrix:
    """Compatibility (commutativity) of operations of one object type.

    The matrix is indexed by *(held operation, requested operation)*.
    Plain commutativity is symmetric, and :meth:`set_entry` installs both
    orientations by default; an asymmetric entry can be installed with
    ``symmetric=False`` (useful for derived lock-mode tables).
    """

    def __init__(self, type_name: str, operations: Optional[list[str]] = None) -> None:
        self.type_name = type_name
        self._operations: list[str] = []
        self._entries: dict[tuple[str, str], MatrixEntry] = {}
        for op in operations or []:
            self.add_operation(op)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def operations(self) -> tuple[str, ...]:
        return tuple(self._operations)

    def add_operation(self, name: str) -> None:
        """Register an operation name (idempotent)."""
        if name not in self._operations:
            self._operations.append(name)

    def _require_known(self, *names: str) -> None:
        for name in names:
            if name not in self._operations:
                raise SchemaError(
                    f"operation {name!r} is not declared for type {self.type_name!r}"
                )

    def set_entry(
        self,
        held_op: str,
        requested_op: str,
        value: Optional[bool] = None,
        predicate: Optional[CompatPredicate] = None,
        state_predicate: Optional[StatePredicate] = None,
        label: str = "",
        symmetric: bool = True,
    ) -> None:
        """Install a matrix cell.

        Exactly one of *value* / *predicate* / *state_predicate* must be
        given.  For symmetric predicate entries the mirrored cell swaps
        the invocation order, so a predicate may be written purely in
        terms of its two arguments.
        """
        provided = sum(p is not None for p in (value, predicate, state_predicate))
        if provided != 1:
            raise SchemaError(
                "exactly one of value/predicate/state_predicate must be provided"
            )
        self._require_known(held_op, requested_op)
        self._entries[(held_op, requested_op)] = MatrixEntry(
            value, predicate, state_predicate, label
        )
        if symmetric and held_op != requested_op:
            mirrored = None
            mirrored_state = None
            if predicate is not None:
                def mirrored(a: Invocation, b: Invocation, _p: CompatPredicate = predicate) -> bool:
                    return _p(b, a)
            if state_predicate is not None:
                def mirrored_state(
                    a: Invocation, b: Invocation, v: StateView, _p: StatePredicate = state_predicate
                ) -> bool:
                    return _p(b, a, v)
            self._entries[(requested_op, held_op)] = MatrixEntry(
                value, mirrored, mirrored_state, label
            )

    def allow(self, held_op: str, requested_op: str) -> None:
        """Mark the pair as always compatible (``ok``)."""
        self.set_entry(held_op, requested_op, value=True)

    def conflict(self, held_op: str, requested_op: str) -> None:
        """Mark the pair as always conflicting."""
        self.set_entry(held_op, requested_op, value=False)

    def allow_if(
        self, held_op: str, requested_op: str, predicate: CompatPredicate, label: str = "param"
    ) -> None:
        """Mark the pair as compatible exactly when *predicate* holds."""
        self.set_entry(held_op, requested_op, predicate=predicate, label=label)

    def allow_if_state(
        self,
        held_op: str,
        requested_op: str,
        predicate: StatePredicate,
        label: str = "state",
    ) -> None:
        """State-dependent cell: compatible when *predicate(h, r, view)*.

        The predicate sees the live object and every invocation holding
        a lock on it; where no view is available (e.g. the post-hoc
        checker), the cell conservatively conflicts.
        """
        self.set_entry(held_op, requested_op, state_predicate=predicate, label=label)

    def allow_if_distinct_arg(self, held_op: str, requested_op: str, index: int = 0) -> None:
        """Compatible iff the *index*-th actual parameters differ.

        This is the most common parameter-dependent pattern: two updates
        commute when they address different sub-entities (e.g. two
        ``ShipOrder`` calls naming different orders).
        """
        def distinct(a: Invocation, b: Invocation) -> bool:
            return a.arg(index) != b.arg(index)

        self.allow_if(held_op, requested_op, distinct, label=f"ok iff arg{index} differs")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def entry(self, held_op: str, requested_op: str) -> Optional[MatrixEntry]:
        return self._entries.get((held_op, requested_op))

    def compatible(
        self,
        held: Invocation,
        requested: Invocation,
        view: Optional[StateView] = None,
    ) -> bool:
        """True iff the two invocations commute.

        Unknown pairs (no declared entry) conservatively conflict.
        State-dependent cells require a *view*; without one they
        conflict.
        """
        cell = self._entries.get((held.operation, requested.operation))
        if cell is None:
            return False
        return cell.compatible(held, requested, view)

    def has_state_cells(self) -> bool:
        """True if any cell is state-dependent."""
        return any(cell.state_predicate is not None for cell in self._entries.values())

    def is_complete(self) -> bool:
        """True if every ordered operation pair has a declared entry."""
        return all(
            (a, b) in self._entries for a in self._operations for b in self._operations
        )

    def missing_pairs(self) -> list[tuple[str, str]]:
        return [
            (a, b)
            for a in self._operations
            for b in self._operations
            if (a, b) not in self._entries
        ]

    # ------------------------------------------------------------------
    # Rendering (Figs. 2 / 3 reproduction)
    # ------------------------------------------------------------------
    def as_table(self) -> list[list[str]]:
        """Render as rows of strings: header row then one row per op."""
        header = [self.type_name] + list(self._operations)
        rows = [header]
        for held in self._operations:
            row = [held]
            for requested in self._operations:
                cell = self._entries.get((held, requested))
                row.append(cell.render() if cell is not None else "conflict*")
            rows.append(row)
        return rows

    def format_table(self) -> str:
        """Pretty fixed-width rendering of :meth:`as_table`."""
        table = self.as_table()
        widths = [max(len(row[col]) for row in table) for col in range(len(table[0]))]
        lines = []
        for row in table:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<CompatibilityMatrix {self.type_name} ops={list(self._operations)}>"
