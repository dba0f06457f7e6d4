"""Multi-process sharded cluster over durable storage (docs/CLUSTER.md).

A router consistently hashes order-entry item roots across N shard
server processes — each a :class:`~repro.server.core.TransactionServer`
over its own durable WAL partition — and turns multi-item
requests into presumed-abort two-phase commits whose prepare/decision
frames are durable WAL records on every shard.
"""

from repro.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.cluster.participant import AckBook, ClusterParticipant
from repro.cluster.process import LocalCluster, ShardProcess
from repro.cluster.records import (
    ClusterAckRecord,
    ClusterDecisionRecord,
    ClusterPrepareRecord,
)
from repro.cluster.router import ClusterRouter, CoordinatorLog, RouterWireServer, ShardLink

__all__ = [
    "HashRing",
    "DEFAULT_VNODES",
    "AckBook",
    "ClusterPrepareRecord",
    "ClusterDecisionRecord",
    "ClusterAckRecord",
    "ClusterParticipant",
    "ClusterRouter",
    "CoordinatorLog",
    "RouterWireServer",
    "ShardLink",
    "LocalCluster",
    "ShardProcess",
]
