"""The stacks under test, built only from public entry points.

A stack boots one configuration of the system (in-process server, with
or without the WAL + page store and the TCP front; or a 2-shard cluster
of child processes) and hands out clients.  A client splits one call
into ``encode`` / ``roundtrip`` / ``decode`` so the traced run can time
each step; the untraced run calls the three back to back.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Optional

from repro.cluster.hashring import HashRing
from repro.cluster.process import LocalCluster
from repro.obs.registry import MetricsRegistry
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.recovery.manager import recover
from repro.server.admission import AdmissionConfig
from repro.server.core import TransactionServer
from repro.server.requests import Request, Response
from repro.server.wire import TCPClient, WireServer
from repro.storage.durable import PAGES_FILENAME, DurableStorageManager, DurableWriteAheadLog

from perfbench.workloads import N_SHARDS, ORDERS_PER_ITEM

# Fixed and recorded in every result document.  think_cost and
# time_scale stay 0: every number is the repository's code, not a sleep.
SERVER = {"n_threads": 4, "n_stripes": 8, "default_deadline": 1.0}
ADMISSION = {"max_inflight": 4, "queue_cap": 16}
# group_commit_window 0.0 is the flush policy: one fsync per commit.
DURABLE = {"group_commit_window": 0.0, "wal_buffering": 64, "pool_capacity": 64,
           "records_per_page": 8}
# compact_threshold is set out of reach so the coordinator log only
# grows during a run and its size delta is the bytes written.
CLUSTER = {"n_shards": N_SHARDS, "pool_size": 4, "parallel_prepare": True,
           "compact_threshold": 1 << 20}
CONFIG = {"server": SERVER, "admission": ADMISSION, "durable": DURABLE, "cluster": CLUSTER,
          "think_cost": 0, "time_scale": 0, "protocol": "semantic"}


def build_database(n_items: int):
    return build_order_entry_database(
        n_items=n_items, orders_per_item=ORDERS_PER_ITEM,
        records_per_page=DURABLE["records_per_page"],
    )


def _identity(value):
    return value


class CallClient:
    """In-process client: *call* takes a Request and returns a Response."""

    encode = decode = staticmethod(_identity)

    def __init__(self, call) -> None:
        self.roundtrip = call

    def close(self) -> None:
        pass


class WireClient:
    """One TCP connection speaking the newline-JSON protocol."""

    encode = staticmethod(Request.to_dict)
    decode = staticmethod(Response.from_dict)

    def __init__(self, address) -> None:
        self.tcp = TCPClient(*address)
        self.roundtrip = self.tcp.request

    def close(self) -> None:
        self.tcp.close()


class ShardDirectClient:
    """One TCP connection per shard; a request goes straight to its owner."""

    decode = staticmethod(Response.from_dict)

    def __init__(self, addresses) -> None:
        self.ring = HashRing(len(addresses))
        self.tcps = [TCPClient(*address) for address in addresses]

    def encode(self, request: Request):
        return self.ring.shard_for(request.item), request.to_dict()

    def roundtrip(self, message):
        shard, payload = message
        return self.tcps[shard].request(payload)

    def close(self) -> None:
        for tcp in self.tcps:
            tcp.close()


def _flatten(snapshot) -> dict[str, float]:
    counts: dict[str, float] = dict(snapshot.counters)
    for name, hist in snapshot.histograms.items():
        counts[name + ".sum"] = hist.sum
        counts[name + ".count"] = hist.count
    return counts


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class ServerStack:
    """One TransactionServer in this process.

    ``durable`` puts it on a file WAL and the page store (the registry
    is passed to both); ``wire`` fronts it with a WireServer.
    """

    def __init__(self, n_items: int, workdir: Optional[str] = None, durable: bool = False,
                 wire: bool = False, pool_capacity: int = DURABLE["pool_capacity"],
                 built=None) -> None:
        self.n_items = n_items
        self.workdir = workdir
        self.durable = durable
        self.wire = wire
        self.pool_capacity = pool_capacity
        self.built = built
        self.obs = MetricsRegistry(thread_safe=True)
        self.server = None
        self.wal = None
        self.front = None
        self.child_pids: list[int] = []
        self.boot_s = 0.0

    def start(self) -> "ServerStack":
        started = time.perf_counter()
        if self.built is None:
            self.built = build_database(self.n_items)
        if self.durable:
            os.makedirs(self.workdir, exist_ok=True)
            self.wal_path = os.path.join(self.workdir, "wal.log")
            self.wal = DurableWriteAheadLog(
                self.wal_path,
                group_commit_window=DURABLE["group_commit_window"],
                buffering=DURABLE["wal_buffering"],
            )
            self.built.db.storage = DurableStorageManager.adopt(
                self.built.db.storage, os.path.join(self.workdir, "store"), wal=self.wal,
                pool_capacity=self.pool_capacity, metrics=self.obs,
            )
        self.server = TransactionServer(
            self.built, admission=AdmissionConfig(**ADMISSION), obs=self.obs, wal=self.wal,
            **SERVER,
        ).start()
        if self.wire:
            self.front = WireServer(self.server).start()
        self.boot_s = time.perf_counter() - started
        return self

    def client(self):
        if self.wire:
            return WireClient(self.front.address)
        return CallClient(self.server.submit)

    def counts(self) -> dict[str, float]:
        counts = _flatten(self.obs.snapshot())
        if self.durable:
            counts["file.wal_bytes"] = _size(self.wal_path)
            counts["file.pagefile_bytes"] = _size(
                os.path.join(self.workdir, "store", PAGES_FILENAME))
        return counts

    def crash_image(self) -> str:
        """Copy the WAL as the OS has it now; nothing is flushed first."""
        image = os.path.join(self.workdir, "crash-wal.log")
        shutil.copyfile(self.wal_path, image)
        return image

    def stop(self) -> bool:
        """Drain and close; True when the drain was clean."""
        if self.server is None:
            return True
        if self.front is not None:
            self.front.stop()
        clean = self.server.shutdown().clean
        if self.durable:
            self.wal.close()
            self.built.db.storage.close()
        self.server = None
        return clean


def recover_crash_image(image: str, n_items: int) -> tuple[float, ServerStack]:
    """Fresh build + reopen the crash image + recover(); returns the
    time taken and an in-memory stack over the recovered database."""
    started = time.perf_counter()
    built = build_database(n_items)
    wal = DurableWriteAheadLog(image, buffering=DURABLE["wal_buffering"])
    try:
        recover(built.db, wal, {"Item": ITEM_TYPE, "Order": ORDER_TYPE})
    finally:
        wal.close()
    elapsed = time.perf_counter() - started
    return elapsed, ServerStack(n_items, built=built).start()


class ClusterStack:
    """Two shard child processes behind a router and its wire front."""

    def __init__(self, n_items: int, workdir: str, via: str = "routerwire") -> None:
        self.n_items = n_items
        self.workdir = workdir
        self.via = via  # "routerwire" | "router" | "shard"
        self.obs = MetricsRegistry(thread_safe=True)
        self.cluster: Optional[LocalCluster] = None
        self.boot_s = 0.0

    def start(self) -> "ClusterStack":
        started = time.perf_counter()
        shard_config = {
            "n_items": self.n_items, "orders_per_item": ORDERS_PER_ITEM,
            "group_commit_window": DURABLE["group_commit_window"],
            "wal_buffering": DURABLE["wal_buffering"],
            "n_threads": SERVER["n_threads"], "default_deadline": SERVER["default_deadline"],
            "time_scale": 0.0, "think_cost": 0.0, **ADMISSION,
        }
        self.cluster = LocalCluster(
            CLUSTER["n_shards"], self.workdir, shard_config=shard_config, obs=self.obs,
            pool_size=CLUSTER["pool_size"], parallel_prepare=CLUSTER["parallel_prepare"],
            compact_threshold=CLUSTER["compact_threshold"],
        )
        try:
            self.cluster.start()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        return self

    @property
    def child_pids(self) -> list[int]:
        return [shard.proc.pid for shard in self.cluster.shards if shard.proc is not None]

    def client(self):
        if self.via == "router":
            return CallClient(self.cluster.router.route_request)
        if self.via == "shard":
            return ShardDirectClient([shard.address for shard in self.cluster.shards])
        return WireClient(self.cluster.wire.address)

    def counts(self) -> dict[str, float]:
        counts = _flatten(self.obs.snapshot())
        wal_bytes = pagefile_bytes = 0
        for shard in self.cluster.shards:
            with TCPClient(*shard.address) as tcp:
                for key, value in tcp.stats().items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        counts["shards." + key] = counts.get("shards." + key, 0) + value
            for folder, _, files in os.walk(shard.data_dir):
                for name in files:
                    if name == PAGES_FILENAME:
                        pagefile_bytes += _size(os.path.join(folder, name))
                    elif name.endswith(".log") and folder == shard.data_dir:
                        wal_bytes += _size(os.path.join(folder, name))
        counts["file.wal_bytes"] = wal_bytes
        counts["file.pagefile_bytes"] = pagefile_bytes
        counts["file.coordlog_bytes"] = _size(self.cluster.log.path)
        return counts

    def kill_and_restart(self) -> float:
        """SIGKILL every shard, then time both restarts to ready."""
        for shard in self.cluster.shards:
            shard.kill()
        started = time.perf_counter()
        for shard in self.cluster.shards:
            self.cluster.restart_shard(shard.shard_id)
        return time.perf_counter() - started

    def stop(self) -> bool:
        """Stop every process; True when every live shard exited 0."""
        if self.cluster is None:
            return True
        cluster, self.cluster = self.cluster, None
        cluster.stop()
        return all(shard.returncode == 0 for shard in cluster.shards)


def make_stack(kind: str, n_items: int, workdir: str):
    if kind == "mem":
        return ServerStack(n_items)
    if kind == "wire_durable":
        return ServerStack(n_items, workdir, durable=True, wire=True)
    if kind == "cluster":
        return ClusterStack(n_items, workdir)
    raise ValueError(f"unknown stack {kind!r}")
