"""Self-tests of the benchmark: ``python -m pytest perfbench``."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time

import pytest

from perfbench import ROOT, spec
from perfbench.audit import audit
from perfbench.compare import verdict
from perfbench.loop import replay
from perfbench.measure import admissible_percentile, percentile
from perfbench.stacks import ServerStack
from perfbench.workloads import (N_SHARDS, WORKLOADS, op_kind, request_list, serialise)
from repro.cluster.hashring import HashRing
from repro.cluster.router import plan_request
from repro.server.requests import Request

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = sorted(
    os.path.join(HERE, name) for name in os.listdir(HERE)
    if name.endswith(".py") and name != os.path.basename(__file__)
)
# What the benchmark may import from the program: the public entry
# points the issue lists, plus the hash ring (the request lists must
# know which shard owns an item before any cluster exists).
ALLOWED_IMPORTS = {
    "repro.orderentry.schema", "repro.server.core", "repro.server.admission",
    "repro.server.requests", "repro.server.wire", "repro.storage.durable",
    "repro.recovery.manager", "repro.cluster.process", "repro.cluster.router",
    "repro.cluster.hashring", "repro.runtime.threaded", "repro.obs.registry",
}


# ----------------------------------------------------------------------
# Request lists
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_lists_are_a_pure_function_of_workload_seed_client(workload):
    for client in (0, 1):
        first = serialise(request_list(workload, 7, client, 300))
        assert first == serialise(request_list(workload, 7, client, 300))
        assert first != serialise(request_list(workload, 8, client, 300))
        assert first != serialise(request_list(workload, 7, client, 300, "warmup"))
    assert serialise(request_list(workload, 7, 0, 300)) != serialise(
        request_list(workload, 7, 1, 300))


def test_shorter_list_is_a_prefix_and_the_mix_is_exact():
    long, short = request_list("mem_uniform", 3, 0, 600), request_list("mem_uniform", 3, 0, 250)
    assert serialise(long[:250]) == serialise(short)
    ops = [r.op for r in long]
    assert ops.count("place") == 270 and ops.count("total-payment") == 30


def test_wire_durable_replays_mem_uniform():
    for client in (0, 1):
        assert serialise(request_list("wire_durable", 5, client, 400)) == serialise(
            request_list("mem_uniform", 5, client, 400))


@pytest.mark.parametrize("workload", ["wire_durable", "cluster_2pc"])
def test_only_client_0_allocates_on_durable_stacks(workload):
    for stream in ("timed", "warmup"):
        assert not [r for r in request_list(workload, 2, 1, 600, stream) if r.op == "place"]
        assert [r for r in request_list(workload, 2, 0, 600, stream) if r.op == "place"]


def test_cross_shard_requests_really_plan_to_two_shards():
    ring = HashRing(N_SHARDS)
    requests = request_list("cluster_2pc", 4, 0, 600) + request_list("cluster_2pc", 4, 1, 600)
    cross = [r for r in requests if op_kind(r, ring) == "cross"]
    assert 0.12 < len(cross) / len(requests) < 0.16
    assert {r.op for r in cross} == {"place", "total-payment"}
    for request in requests:
        branches = plan_request(request, ring.shard_for)
        assert len(branches) == (2 if op_kind(request, ring) == "cross" else 1)
    multi = [r for r in requests if r.lines is not None or r.items is not None]
    assert multi and all(op_kind(r, ring) == "cross" for r in multi)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_is_refused_below_1000_samples():
    assert admissible_percentile(1000) == 99
    assert admissible_percentile(999) == 98
    assert admissible_percentile(499) == 95
    assert admissible_percentile(150) == 90
    assert admissible_percentile(30) == 50


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def _replay_on_fresh_stack(requests):
    stack = ServerStack(4).start()
    client = stack.client()
    samples = replay([client], [requests])
    return stack, client, [(s.request, s.response) for s in samples]


def _audit_requests():
    requests = [Request(op="place", item=i % 4, quantity=2, request_id=f"p{i}") for i in range(8)]
    requests += [Request(op="ship", item=1, order_no=3, request_id="s0"),
                 Request(op="restock", item=2, quantity=5, request_id="r0"),
                 Request(op="place", lines=((0, 1), (3, 2)), request_id="p-two")]
    return requests


def test_audit_passes_a_faithful_server():
    stack, client, exchanges = _replay_on_fresh_stack(_audit_requests())
    try:
        assert audit(exchanges, [client], 4) == []
    finally:
        assert stack.stop()


def test_audit_flags_a_dropped_ack():
    requests = _audit_requests()
    stack, client, exchanges = _replay_on_fresh_stack(requests)
    stack.stop()
    # A server that acknowledged the last place but lost it: the same
    # history without that request, audited against all the acks.
    stack, client, _ = _replay_on_fresh_stack(requests[:-1])
    try:
        violations = audit(exchanges, [client], 4)
    finally:
        stack.stop()
    assert len(violations) == 2 and all("not payable" in v for v in violations)


def test_audit_flags_a_tampered_stock_level():
    stack, client, exchanges = _replay_on_fresh_stack(_audit_requests())
    try:
        assert client.roundtrip(Request(op="restock", item=0, quantity=1)).ok
        violations = audit(exchanges, [client], 4)
    finally:
        stack.stop()
    assert violations == ["item 0: stock 1001 (ok), expected 1000"]


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def test_compare_verdicts():
    rps = next(m for m in spec.END_TO_END if m.name == "throughput_rps")
    base = {"value": 100.0, "reps": [99.0, 100.0, 101.0]}
    assert verdict(rps, base, {"value": 95.0, "reps": [94.0, 95.0, 96.0]})[0] == "ok"
    assert verdict(rps, base, {"value": 70.0, "reps": [69.0, 70.0, 71.0]})[0] == "regressed"
    assert verdict(rps, base, {"value": 70.0, "reps": [40.0, 70.0, 99.0]})[0] == "unresolved"
    lost = next(m for m in spec.END_TO_END if m.name == "acked_lost")
    assert verdict(lost, {"value": 0}, {"value": 1})[0] == "regressed"


# ----------------------------------------------------------------------
# Isolation from the code under test
# ----------------------------------------------------------------------
def test_imports_stay_on_the_public_entry_points():
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            for module in modules:
                if module == "repro" or module.startswith("repro."):
                    assert module in ALLOWED_IMPORTS, f"{path} imports {module}"


def test_no_private_access_no_patching_no_think_time():
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert not node.attr.startswith("_") or node.attr.startswith("__"), (
                    f"{path}:{node.lineno} touches private attribute {node.attr}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("setattr", "delattr"), f"{path}:{node.lineno}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", "") or ""]
                assert not any("mock" in n or "monkeypatch" in n for n in names), path
            if isinstance(node, ast.keyword) and node.arg in ("think_cost", "time_scale"):
                assert isinstance(node.value, ast.Constant) and node.value.value == 0, path
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value in ("think_cost", "time_scale"):
                        assert isinstance(value, ast.Constant) and value.value == 0, path


# ----------------------------------------------------------------------
# The declared benchmark
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
    names = [m.name for m in spec.GATED + spec.PER_LAYER]
    assert len(names) == len(set(names)) and len(spec.PER_LAYER) <= 128
    assert "setup_s" in [m.name for m in spec.GATED]
    assert all(0 < m.rel <= 0.25 for m in spec.GATED)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_smoke_prints_exactly_the_declared_names():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, f"--smoke took {elapsed:.1f} s"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(WORKLOADS)
    declared = [m.name for m in spec.GATED + spec.PER_LAYER]
    for workload, metrics in result["metrics"].items():
        assert list(metrics) == declared, workload
        for name, entry in metrics.items():
            assert entry["unit"] == spec.ALL_METRICS[name].unit
        assert all(metrics[m.name]["value"] > 0 for m in spec.GATED), workload
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))
