"""Undo and compensation bookkeeping.

Open nested transactions commit subtransactions early, so aborting a
transaction cannot simply restore the pre-transaction storage state:
other transactions may already have performed *commuting* updates on the
same objects.  Committed subtransactions are therefore compensated by
semantically inverse operations, which run as ordinary subtransactions
under the concurrency control protocol (Section 3).

Two kinds of undo information are kept per action node:

* **physical undo** for generic leaf operations (``Put`` remembers the
  old value, ``Insert`` remembers the key to remove, ...) — valid while
  the leaf's lock is still held, which under the retained-lock protocol
  is until top-level commit;
* **inverse invocations** for committed encapsulated-method
  subtransactions, computed by the method's registered inverse function
  from its result and arguments.

On abort the kernel walks the transaction tree in reverse execution
order: committed methods are compensated logically, everything else is
undone physically (recursing structurally into methods without a
registered inverse).

An :class:`UndoEntry` is built for most actions and never changed
after, so it is a :class:`typing.NamedTuple`: immutable, its fields
read through C-level getters.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple, Optional

from repro.objects.oid import Oid


class UndoEntry(NamedTuple):
    """Undo information attached to one action node."""

    kind: str  # "physical" or "inverse"
    description: str
    physical: Optional[Callable[[], None]] = None
    inverse_target: Optional[Oid] = None
    inverse_operation: Optional[str] = None
    inverse_args: tuple[Any, ...] = ()

    @classmethod
    def make_physical(cls, description: str, undo: Callable[[], None]) -> "UndoEntry":
        return cls(kind="physical", description=description, physical=undo)

    @classmethod
    def make_inverse(
        cls, description: str, target: Oid, operation: str, args: tuple[Any, ...]
    ) -> "UndoEntry":
        return cls(
            kind="inverse",
            description=description,
            inverse_target=target,
            inverse_operation=operation,
            inverse_args=tuple(args),
        )


class UndoLog:
    """Per-node undo entries, kept in attachment (execution) order.

    Thread-safe: concurrent workers attach entries while abort paths
    read and discard them; ``setdefault`` + ``append`` and the length
    sum are compound operations, so all access goes through one lock.
    """

    def __init__(self) -> None:
        self._entries: dict[str, list[UndoEntry]] = {}
        self._lock = threading.Lock()

    def attach(self, node_id: str, entry: UndoEntry) -> None:
        with self._lock:
            self._entries.setdefault(node_id, []).append(entry)

    def entries_for(self, node_id: str) -> list[UndoEntry]:
        with self._lock:
            return list(self._entries.get(node_id, ()))

    def inverse_for(self, node_id: str) -> Optional[UndoEntry]:
        """The logical inverse attached to the node, if any."""
        with self._lock:
            for entry in self._entries.get(node_id, ()):
                if entry.kind == "inverse":
                    return entry
            return None

    def physical_for(self, node_id: str) -> list[UndoEntry]:
        """Physical entries for the node, in attachment order."""
        with self._lock:
            return [e for e in self._entries.get(node_id, ()) if e.kind == "physical"]

    def discard(self, node_id: str) -> None:
        with self._lock:
            self._entries.pop(node_id, None)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._entries.values())
