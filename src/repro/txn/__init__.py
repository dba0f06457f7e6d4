"""Transaction substrate.

Open-nested transaction trees, lock control blocks and per-object lock
queues (FCFS), the waits-for graph with cycle detection, recorded
execution histories, and undo/compensation bookkeeping.
"""

from repro.txn.transaction import NodeStatus, TransactionNode
from repro.txn.locks import Lock, LockTable, PendingRequest
from repro.txn.waits import WaitsForGraph
from repro.txn.history import ActionRecord, History
from repro.txn.compensation import UndoEntry, UndoLog

__all__ = [
    "NodeStatus",
    "TransactionNode",
    "Lock",
    "LockTable",
    "PendingRequest",
    "WaitsForGraph",
    "ActionRecord",
    "History",
    "UndoEntry",
    "UndoLog",
]
