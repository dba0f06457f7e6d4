"""Structured trace log of kernel events.

The kernel records an event for every interesting protocol step (lock
request, grant, block, retained-lock conversion, release, commit,
abort).  Tests and the Fig. 8 conformance benchmark assert over this log;
examples pretty-print it.

The kernel's hot path stores an event's raw fields (:meth:`TraceLog.record`);
each :class:`TraceEvent` is built when the log is read, rendering the
immutable ``Oid`` and ``Invocation`` detail values with ``str()`` then.
Readers see the strings an eager render gave.  A served threaded kernel
keeps no trace log at all: nothing there reads a request's events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Iterator

from repro.objects.oid import Oid
from repro.semantics.invocation import Invocation

#: Detail value types rendered with ``str()`` on read.
_RENDERED = (Oid, Invocation)


@dataclass(frozen=True)
class TraceEvent:
    """One kernel event.

    Attributes:
        seq: Logical sequence number at which the event happened.
        kind: Event kind, e.g. ``"lock-request"``, ``"lock-grant"``,
            ``"block"``, ``"wake"``, ``"retain"``, ``"release"``,
            ``"commit"``, ``"abort"``, ``"compensate"``.
        node: Id of the transaction-tree node the event belongs to.
        txn: Name of the node's top-level transaction.
        detail: Kind-specific payload (target oid, operation, blockers...).
    """

    seq: int
    kind: str
    node: str
    txn: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.seq:>4}] {self.kind:<12} {self.txn}/{self.node} {parts}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form, the unit of the JSONL trace export."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "node": self.node,
            "txn": self.txn,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=data["seq"],
            kind=data["kind"],
            node=data["node"],
            txn=data["txn"],
            detail=dict(data.get("detail", {})),
        )


class TraceLog:
    """Kernel events in emission order.

    Virtual and batch runs keep every event.  Safe while workers emit,
    without a lock: ``record`` is one list append, which the interpreter
    performs atomically, and readers iterate a copy of the list, never
    the live one.
    """

    def __init__(self) -> None:
        # Events as (seq, kind, node, txn, detail) tuples.
        self._events: list[tuple[int, str, str, str, dict[str, Any]]] = []

    def record(self, seq: int, kind: str, node: str, txn: str, detail: dict[str, Any]) -> None:
        """Emit an event from its fields; *detail* must not change after."""
        self._events.append((seq, kind, node, txn, detail))

    def emit(self, event: TraceEvent) -> None:
        self.record(event.seq, event.kind, event.node, event.txn, event.detail)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (
            TraceEvent(
                seq,
                kind,
                node,
                txn,
                {k: str(v) if isinstance(v, _RENDERED) else v for k, v in detail.items()},
            )
            for seq, kind, node, txn, detail in self._events.copy()
        )

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """All events whose kind is one of *kinds*, in order."""
        wanted = set(kinds)
        return [e for e in self if e.kind in wanted]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_jsonl(self, fp: IO[str]) -> int:
        """Write one JSON object per event; returns lines written.

        Detail values must be JSON-serializable; the kernel only puts
        strings, numbers, and lists of strings there (a contract the
        golden-trace schema test enforces).
        """
        events = list(self)
        for event in events:
            fp.write(json.dumps(event.to_dict(), default=str) + "\n")
        return len(events)

    @classmethod
    def read_jsonl(cls, lines: Iterable[str]) -> "TraceLog":
        """Rebuild a trace log from :meth:`write_jsonl` output."""
        log = cls()
        for line in lines:
            line = line.strip()
            if line:
                log.emit(TraceEvent.from_dict(json.loads(line)))
        return log
