"""Structured trace log of kernel events.

The kernel emits a :class:`TraceEvent` for every interesting protocol step
(lock request, grant, block, retained-lock conversion, release, commit,
abort).  Tests and the Fig. 8 conformance benchmark assert over this log;
examples pretty-print it.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Iterator


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
    """Kernel events in emission order, filed by top-level transaction.

    A served kernel drops a transaction's events (:meth:`discard`) when
    it reaps it; virtual and batch runs keep everything.  Safe while
    workers emit, without a lock: ``emit`` and ``discard`` are single
    dict and list operations, which the interpreter performs atomically,
    and readers iterate a copy of the dict, never the live one.
    """

    def __init__(self) -> None:
        # Per top-level transaction, its (emission number, event) pairs.
        self._runs: dict[str, list[tuple[int, TraceEvent]]] = {}
        self._emitted = itertools.count()

    def emit(self, event: TraceEvent) -> None:
        self._runs.setdefault(event.txn, []).append((next(self._emitted), event))

    def discard(self, txn: str) -> None:
        """Forget every event of top-level transaction *txn*."""
        self._runs.pop(txn, None)

    def __len__(self) -> int:
        return sum(map(len, self._runs.copy().values()))

    def __iter__(self) -> Iterator[TraceEvent]:
        runs = [list(run) for run in self._runs.copy().values()]
        return (event for _, event in heapq.merge(*runs))

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
