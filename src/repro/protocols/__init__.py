"""Pluggable concurrency control protocols.

All protocols implement :class:`~repro.protocols.base.CCProtocol` and run
on the same kernel, runtimes, and workloads:

* :class:`~repro.core.protocol.SemanticLockingProtocol` — the paper's
  full protocol (Figs. 8 + 9): semantic locks at every level, retained
  after subtransaction commit, conflicts relaxed through commutative
  ancestors.
* :class:`~repro.core.protocol.SemanticNoReliefProtocol` — ablation:
  retained locks but no commutative-ancestor relief.
* :class:`~repro.protocols.open_nested_naive.OpenNestedNaiveProtocol` —
  the Section-3 protocol that releases a subtransaction's locks on its
  completion; *incorrect* when encapsulation is bypassed (Fig. 5).
* :class:`~repro.protocols.closed_nested.ClosedNestedProtocol` — Moss's
  closed nested transactions: read/write leaf locks inherited by the
  parent on subtransaction commit.
* :class:`~repro.protocols.two_phase_object.ObjectRW2PLProtocol` —
  object-granularity strict two-phase locking with read/write modes
  (the "record-oriented" conventional scheme, lifted to objects).
* :class:`~repro.protocols.two_phase_page.PageLockingProtocol` —
  page-granularity strict two-phase locking (the classical OODBS
  implementation technique the paper argues against).
"""

from repro.protocols.base import CCProtocol, LockSpec, READ_MODE, WRITE_MODE
from repro.protocols.closed_nested import ClosedNestedProtocol
from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol
from repro.protocols.two_phase_object import ObjectRW2PLProtocol
from repro.protocols.two_phase_page import PageLockingProtocol


def all_protocols() -> tuple[type[CCProtocol], ...]:
    """Every protocol class, the paper's first.

    Imported lazily because the semantic protocols live in
    :mod:`repro.core` (they are the contribution), which itself builds
    on :mod:`repro.protocols.base`.
    """
    from repro.core.protocol import SemanticLockingProtocol, SemanticNoReliefProtocol

    return (
        SemanticLockingProtocol,
        SemanticNoReliefProtocol,
        OpenNestedNaiveProtocol,
        ClosedNestedProtocol,
        ObjectRW2PLProtocol,
        PageLockingProtocol,
    )


def protocols_by_name() -> dict[str, type[CCProtocol]]:
    """The one name -> class table: every protocol keyed by its ``name``."""
    return {cls.name: cls for cls in all_protocols()}


def protocol_by_name(name: str) -> type[CCProtocol]:
    """Look a protocol class up by its ``name``; unknown names list the valid ones."""
    table = protocols_by_name()
    if name not in table:
        raise ValueError(f"unknown protocol {name!r} (know: {', '.join(table)})")
    return table[name]


__all__ = [
    "CCProtocol",
    "LockSpec",
    "READ_MODE",
    "WRITE_MODE",
    "OpenNestedNaiveProtocol",
    "ClosedNestedProtocol",
    "ObjectRW2PLProtocol",
    "PageLockingProtocol",
    "all_protocols",
    "protocols_by_name",
    "protocol_by_name",
]
