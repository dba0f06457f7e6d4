"""The per-layer run: spans, the ladder, and the isolated probes.

* **Spans** come from the benchmark's own clock stamps around the calls
  into each layer plus the ``total_time`` / ``queue_wait`` the server
  reports on every ``Response``; a span's self time is its duration
  minus what its children cover.
* **The ladder** replays the head of client 0's list with one client on
  a fresh stack per rung, each rung adding one layer; differences of
  rung means are the ``*_self_us`` rows.
* **Probes** time one public function on its own.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

from repro.cluster.hashring import HashRing
from repro.cluster.router import CoordinatorLog
from repro.obs.registry import MetricsRegistry
from repro.runtime.threaded import run_threaded_transactions
from repro.server.admission import AdmissionConfig, AdmissionController
from repro.server.requests import Request, Response, build_program, op_class

from perfbench.loop import Sample, replay
from perfbench.measure import percentile
from perfbench.stacks import ADMISSION, SERVER, ClusterStack, ServerStack, build_database
from perfbench.workloads import N_SHARDS, WORKLOADS, op_kind, request_list


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def spans_of(samples: list[Sample]) -> list[dict]:
    """Span records of a traced repetition; ``parent`` names the span
    that caused each one and spans of one request share its id."""
    spans = []
    for s in samples:
        rid = s.request.request_id

        def span(name, parent, start, end, **extra):
            spans.append({"request_id": rid, "name": name, "parent": parent,
                          "start": start, "end": end, **extra})

        span("request", None, s.start, s.end, op=s.request.op, status=s.response.status)
        span("client.encode", "request", s.start, s.encoded)
        span("wire.roundtrip", "request", s.encoded, s.answered)
        # The server reports durations, not clock stamps: its spans are
        # centred in the round trip (the two wire halves taken equal).
        total = min(s.response.total_time, s.answered - s.encoded)
        begin = s.encoded + (s.answered - s.encoded - total) / 2
        span("server.total", "wire.roundtrip", begin, begin + total, placed="centred")
        span("admission.queue_wait", "server.total", begin,
             begin + min(s.response.queue_wait, total), placed="centred")
        span("client.decode", "request", s.answered, s.end)
    return spans


def self_times_us(spans: list[dict]) -> dict[str, float]:
    """Mean self time per span name: duration minus covered children."""
    covered: dict[tuple, float] = {}
    for span in spans:
        key = (span["request_id"], span["parent"])
        covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    by_name: dict[str, list[float]] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get((span["request_id"], span["name"]), 0.0)
        by_name.setdefault(span["name"], []).append(own)
    return {name: statistics.fmean(values) * 1e6 for name, values in by_name.items()}


def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Ladder
# ----------------------------------------------------------------------
def _kernel_rung(n_items: int, requests: list[Request]) -> float:
    """L0: the kernel alone — every program in one single-thread run."""
    built = build_database(n_items)
    programs = [(f"l0-{i}", build_program(built, r)) for i, r in enumerate(requests)]
    started = time.perf_counter()
    kernel = run_threaded_transactions(
        built.db, programs, n_threads=1, n_stripes=SERVER["n_stripes"])
    elapsed = time.perf_counter() - started
    lost = [name for name, _ in programs if not kernel.handles[name].committed]
    if lost:
        raise RuntimeError(f"ladder L0: {len(lost)} programs did not commit")
    return elapsed / len(programs) * 1e6


def _client_rung(stack, requests: list[Request], ring=None) -> dict[str, float]:
    """One client replays *requests* on a fresh *stack*; mean and p50 of
    the single-shard requests, and the mean of the cross-shard ones."""
    stack.start()
    try:
        client = stack.client()
        try:
            samples = replay([client], [requests])
        finally:
            client.close()
    finally:
        stack.stop()
        if stack.workdir is not None:
            shutil.rmtree(stack.workdir, ignore_errors=True)
    failed = [s for s in samples if not s.response.ok]
    if failed:
        raise RuntimeError(f"ladder rung: {len(failed)} requests failed, first "
                           f"{failed[0].response.status} {failed[0].response.error}")
    single, cross = [], []
    for s in samples:
        (cross if op_kind(s.request, ring) == "cross" else single).append(s.end - s.start)
    return {
        "mean": statistics.fmean(single) * 1e6,
        "p50": percentile(single, 50) * 1e6,
        "cross_mean": statistics.fmean(cross) * 1e6 if cross else 0.0,
    }


def ladder(workload: str, seed: int, n: int, workroot: str) -> dict[str, float]:
    spec = WORKLOADS[workload]
    ring = HashRing(N_SHARDS) if spec.stack == "cluster" else None
    requests = request_list(workload, seed, 0, n)
    single = [r for r in requests if op_kind(r, ring) != "cross"]
    m: dict[str, float] = {}

    def rung(name: str, stack, reqs=single) -> dict[str, float]:
        result = _client_rung(stack, reqs, ring)
        m[f"{name}_mean_us"], m[f"{name}_p50_us"] = result["mean"], result["p50"]
        return result

    def work(name: str) -> str:
        return os.path.join(workroot, "ladder-" + name)

    l0 = m["core.kernel_mean_us"] = _kernel_rung(spec.n_items, single)
    l1 = rung("server.submit", ServerStack(spec.n_items))["mean"]
    l2 = rung("server.wire", ServerStack(spec.n_items, wire=True))["mean"]
    m["server.core_self_us"] = l1 - l0
    m["server.wire_self_us"] = l2 - l1
    layers = [l0, m["server.core_self_us"]]
    top = l1
    if spec.stack != "mem":
        l3 = rung("storage.durable", ServerStack(spec.n_items, work("l3"), durable=True))["mean"]
        fits = _client_rung(
            ServerStack(spec.n_items, work("l3fit"), durable=True, pool_capacity=4096), single)
        m["storage.durable_self_us"] = l3 - l1
        m["storage.pool_fit_delta_us"] = l3 - fits["mean"]
        layers += [m["server.wire_self_us"], m["storage.durable_self_us"]]
    if spec.stack == "wire_durable":
        top = _client_rung(
            ServerStack(spec.n_items, work("top"), durable=True, wire=True), single)["mean"]
    if spec.stack == "cluster":
        l4 = rung("cluster.shard_direct", ClusterStack(spec.n_items, work("l4"), "shard"))["mean"]
        l5 = rung("cluster.router", ClusterStack(spec.n_items, work("l5"), "router"),
                  requests)["mean"]
        l6 = rung("cluster.routerwire", ClusterStack(spec.n_items, work("l6"), "routerwire"),
                  requests)
        top = l6["mean"]
        m["cluster.router_self_us"] = l5 - l4
        m["cluster.routerwire_self_us"] = top - l5
        m["cluster.twopc_self_us"] = l6["cross_mean"] - top
        layers += [m["cluster.router_self_us"], m["cluster.routerwire_self_us"]]
    m["bench.ladder_top_mean_us"] = top
    # What the rungs do not add up to, stated rather than hidden.
    m["bench.ladder_residual_us"] = top - sum(layers)
    return m


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _per_call(fn, calls: int, unit: float) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * unit


def probes(workload: str, seed: int, n: int, workroot: str) -> dict[str, float]:
    """Time public functions in isolation; *n* scales the iteration counts."""
    spec = WORKLOADS[workload]
    requests = request_list(workload, seed, 0, n)
    workroot = os.path.join(workroot, "probes")
    os.makedirs(workroot)
    try:
        return _probes(spec, requests, n, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _probes(spec, requests, n: int, workroot: str) -> dict[str, float]:
    m: dict[str, float] = {}

    counter = MetricsRegistry(thread_safe=True).counter("probe")
    m["obs.counter_inc_ns"] = _per_call(counter.inc, 200 * n, 1e9)

    built = build_database(spec.n_items)
    started = time.perf_counter()
    for request in requests:
        build_program(built, request)
    m["server.build_program_us"] = (time.perf_counter() - started) / n * 1e6

    admission = AdmissionController(AdmissionConfig(**ADMISSION))
    started = time.perf_counter()
    for request in requests:
        admission.admit(request, op_class(request.op), time.monotonic() + 1.0)
        admission.acquire_next()
        admission.release(0.001)
    m["server.admission_cycle_us"] = (time.perf_counter() - started) / n * 1e6

    started = time.perf_counter()
    for request in requests:
        Request.from_dict(json.loads(json.dumps(request.to_dict())))
        answer = Response(status="ok", op=request.op, request_id=request.request_id,
                          result=17, queue_wait=0.0001, total_time=0.0015)
        Response.from_dict(json.loads(json.dumps(answer.to_dict())))
    m["server.codec_us"] = (time.perf_counter() - started) / n * 1e6

    block = b"x" * 1024
    with open(os.path.join(workroot, "fsync-probe"), "wb") as fh:
        def write_and_sync():
            fh.write(block)
            fh.flush()
            os.fsync(fh.fileno())
        m["storage.device_fsync_us"] = _per_call(write_and_sync, max(20, n // 3), 1e6)

    log = CoordinatorLog(os.path.join(workroot, "coordlog-probe"))
    try:
        gtids = iter(range(1 << 30))

        def begin_and_decide():
            gtid = f"probe-{next(gtids)}"
            log.begin(gtid)
            log.decide(gtid, "commit", (0, 1))
        m["cluster.coordlog_decide_us"] = _per_call(begin_and_decide, max(20, n // 3), 1e6)
    finally:
        log.close()

    # Two unrestricted clients placing on a durable store: the
    # BufferPool eviction race (README "Known race") answers some of
    # them `failed internal-error`.  The fix PR drives this to 0.
    stack = ServerStack(64, os.path.join(workroot, "alloc-probe"), durable=True).start()
    try:
        places = [
            [Request(op="place", item=(7 * i + c) % 64, quantity=1, request_id=f"a{c}-{i}")
             for i in range(max(20, n // 2))]
            for c in range(2)
        ]
        samples = replay([stack.client(), stack.client()], places)
    finally:
        stack.stop()
    m["storage.concurrent_alloc_failures"] = sum(1 for s in samples if not s.response.ok)
    return m
