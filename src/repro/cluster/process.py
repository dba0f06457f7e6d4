"""Cluster process supervision: shard children + an in-process router.

:class:`ShardProcess` launches ``python -m repro.cluster.shard`` as a
real child process (cold interpreter, own durable files) and watches its
ready file; :class:`LocalCluster` wires N of them to a
:class:`~repro.cluster.router.ClusterRouter` plus the coordinator's
status endpoint, in the order crash recovery requires:

1. the coordinator log + status wire server start first (port 0), so a
   restarting shard can always resolve in-doubt transactions;
2. shard configs are written with the coordinator's address and the
   shards boot in parallel (their ports are read from the ready files);
3. the router is built over the live shard addresses and attached to
   the status server, which then also serves routed requests.

``restart_shard`` relaunches a killed shard *without* its crash switch —
the recovery path of the torture harness — and swaps the router's link
to the shard's new port.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Optional

from repro.cluster.files import COORDINATOR_LOG_FILENAME, READY_FILENAME
from repro.cluster.router import ClusterRouter, CoordinatorLog, RouterWireServer
from repro.obs.registry import MetricsRegistry

__all__ = ["ShardProcess", "LocalCluster"]


class ShardProcess:
    """One shard server child process."""

    def __init__(self, shard_id: int, data_dir: str, config: dict[str, Any]) -> None:
        self.shard_id = shard_id
        self.data_dir = data_dir
        self.config = dict(config)
        self.config["shard_id"] = shard_id
        self.config["data_dir"] = data_dir
        self.config_path = os.path.join(data_dir, "shard-config.json")
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        #: Set when :meth:`terminate` had to SIGKILL the shard.
        self.killed_on_timeout = False

    def start(self) -> "ShardProcess":
        os.makedirs(self.data_dir, exist_ok=True)
        ready = os.path.join(self.data_dir, READY_FILENAME)
        if os.path.exists(ready):
            os.remove(ready)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)
        self.killed_on_timeout = False
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.shard", "--config", self.config_path],
            env=env,
        )
        return self

    def wait_ready(self, timeout: float = 30.0) -> dict[str, Any]:
        """Block until the shard wrote its ready file; returns it."""
        assert self.proc is not None, "start() first"
        ready = os.path.join(self.data_dir, READY_FILENAME)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            code = self.proc.poll()
            if code is not None:
                raise RuntimeError(
                    f"shard {self.shard_id} exited {code} before becoming ready"
                )
            if os.path.exists(ready):
                with open(ready, encoding="utf-8") as fh:
                    info = json.load(fh)
                self.address = (info["host"], int(info["port"]))
                return info
            time.sleep(0.01)
        raise TimeoutError(f"shard {self.shard_id} not ready within {timeout}s")

    def kill(self) -> int:
        """SIGKILL the shard (the torture harness's victim path)."""
        assert self.proc is not None
        self.proc.kill()
        return self.proc.wait()

    def wait_dead(self, timeout: float = 30.0) -> int:
        """Wait for the child to die on its own (armed crash switch)."""
        assert self.proc is not None
        return self.proc.wait(timeout=timeout)

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM the shard and wait; SIGKILL it after *timeout* seconds
        (``killed_on_timeout`` then says so)."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.killed_on_timeout = True
            return self.proc.wait()

    @property
    def returncode(self) -> Optional[int]:
        return self.proc.poll() if self.proc is not None else None


class LocalCluster:
    """N shard processes + router + coordinator, under one base dir.

    ``parallel_prepare`` has no effect: the router sends every prepare
    from the calling thread, then reads every vote; the argument stays
    so that callers passing it (the benchmark stacks) need no change.
    """

    def __init__(
        self,
        n_shards: int,
        base_dir: str,
        shard_config: Optional[dict[str, Any]] = None,
        crash_specs: Optional[dict[int, dict[str, Any]]] = None,
        obs: Optional[MetricsRegistry] = None,
        pool_size: int = 8,
        router_host: str = "127.0.0.1",
        router_port: int = 0,
        parallel_prepare: bool = True,
        compact_threshold: int = 256,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.base_dir = base_dir
        self.shard_config = dict(shard_config or {})
        self.crash_specs = dict(crash_specs or {})
        self.obs = obs if obs is not None else MetricsRegistry(thread_safe=True)
        self.pool_size = pool_size
        self.router_host = router_host
        self.router_port = router_port
        self.compact_threshold = compact_threshold
        self.shards: list[ShardProcess] = []
        self.router: Optional[ClusterRouter] = None
        self.wire: Optional[RouterWireServer] = None
        self.log: Optional[CoordinatorLog] = None

    def start(self, ready_timeout: float = 30.0) -> "LocalCluster":
        os.makedirs(self.base_dir, exist_ok=True)
        self.log = CoordinatorLog(os.path.join(self.base_dir, COORDINATOR_LOG_FILENAME))
        self.wire = RouterWireServer(
            self.log, host=self.router_host, port=self.router_port
        ).start()
        coordinator = "%s:%d" % self.wire.address
        for shard_id in range(self.n_shards):
            config = dict(self.shard_config)
            config["coordinator"] = coordinator
            if shard_id in self.crash_specs:
                config["crash"] = self.crash_specs[shard_id]
            shard = ShardProcess(
                shard_id, os.path.join(self.base_dir, f"shard-{shard_id}"), config
            )
            self.shards.append(shard.start())
        for shard in self.shards:
            shard.wait_ready(ready_timeout)
        self._build_router()
        return self

    def _build_router(self) -> None:
        assert self.log is not None and self.wire is not None
        if self.router is not None:
            self.router.close()
        self.router = ClusterRouter(
            [shard.address for shard in self.shards],
            self.log,
            pool_size=self.pool_size,
            obs=self.obs,
            status_address="%s:%d" % self.wire.address,
            compact_threshold=self.compact_threshold,
        )
        self.wire.attach_router(self.router)

    def restart_shard(
        self, shard_id: int, clear_crash: bool = True, ready_timeout: float = 30.0
    ) -> dict[str, Any]:
        """Relaunch a dead shard over its surviving files; returns the
        ready-file info (including its recovery summary)."""
        shard = self.shards[shard_id]
        if shard.proc is not None and shard.proc.poll() is None:
            raise RuntimeError(f"shard {shard_id} is still running")
        if clear_crash:
            shard.config.pop("crash", None)
        shard.start()
        info = shard.wait_ready(ready_timeout)
        # The shard came back on a fresh port: rebuild the link set.
        self._build_router()
        return info

    def stop(self) -> None:
        for shard in self.shards:
            if shard.proc is not None and shard.proc.poll() is None:
                shard.terminate()
                if shard.killed_on_timeout:
                    print(
                        f"cluster: shard {shard.shard_id} (pid {shard.proc.pid}) did not "
                        "exit within the terminate timeout; SIGKILLed",
                        file=sys.stderr,
                        flush=True,
                    )
        if self.router is not None:
            self.router.close()
        if self.wire is not None:
            self.wire.stop()
        if self.log is not None:
            self.log.close()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
