"""Storage substrate: records (storage atoms) and pages.

Conventional OODBS implementations map the components of complex objects
onto flat records which in turn live on pages, and run concurrency
control at page or record granularity (Section 1.1 of the paper).  This
package provides that mapping so the page-granularity baseline protocol
has something real to lock, and so the semantic protocol demonstrably
"preserves conventional page- or record-oriented locking protocols as
special cases".
"""

from repro.storage.record import RecordId
from repro.storage.page import Page
from repro.storage.manager import StorageManager

#: Durable-layer names resolved lazily (PEP 562): repro.storage.durable
#: imports the recovery WAL, which imports the object model, which
#: imports this package — eager re-export here would close the cycle.
_DURABLE_EXPORTS = ("DurableWriteAheadLog", "load_wal_file")


def __getattr__(name: str):
    if name in _DURABLE_EXPORTS:
        from repro.storage import durable

        return getattr(durable, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "RecordId",
    "Page",
    "StorageManager",
    "DurableWriteAheadLog",
    "load_wal_file",
]
