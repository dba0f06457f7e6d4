"""On-disk layout of one shard's data directory (shared constants).

Kept import-light in a module of its own so the supervisor
(:mod:`repro.cluster.process`) never has to import the shard server
module — ``python -m repro.cluster.shard`` would then exist twice in
``sys.modules`` (once as itself, once as ``__main__``).
"""

WAL_FILENAME = "wal.log"
READY_FILENAME = "ready.json"
CRASH_MARKER_FILENAME = "crash-marker.json"
COORDINATOR_LOG_FILENAME = "coordinator.log"
