"""Tests for the committed benchmark baseline and its exact diff."""

from __future__ import annotations

import ast
import copy
import glob
import json
import os

import pytest

from repro.bench.baseline import (
    BASELINE_WORKLOADS,
    RECORDED_METRICS,
    SCHEMA,
    SCHEMA_VERSION,
    collect_baseline,
    diff,
    load_baseline,
    metrics_record,
    run_baseline_workload,
    write_baseline,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(REPO_ROOT, "BENCH_baseline.json")


@pytest.fixture(scope="module")
def fresh_doc():
    return collect_baseline()


class TestBaselineDocument:
    def test_schema_fields(self, fresh_doc):
        assert fresh_doc["schema"] == SCHEMA
        assert fresh_doc["schema_version"] == SCHEMA_VERSION
        assert set(fresh_doc["workloads"]) == set(BASELINE_WORKLOADS)
        for name, entry in fresh_doc["workloads"].items():
            assert entry["config"] == BASELINE_WORKLOADS[name]
            assert set(entry["metrics"]) == set(RECORDED_METRICS)

    def test_metrics_record_shape(self):
        metrics = run_baseline_workload("p1_mpl4")
        record = metrics_record(metrics)
        assert set(record) == set(RECORDED_METRICS)
        assert all(isinstance(v, float) for v in record.values())
        assert record["committed"] > 0
        assert record["throughput"] > 0

    def test_runs_are_reproducible(self, fresh_doc):
        assert collect_baseline() == fresh_doc

    def test_write_and_load_round_trip(self, tmp_path, fresh_doc):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, fresh_doc)
        assert load_baseline(path) == fresh_doc
        # stable serialisation (sorted keys, trailing newline)
        with open(path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        assert json.loads(text) == fresh_doc


class TestDiff:
    def test_identical_documents_have_no_diff(self, fresh_doc):
        assert diff(fresh_doc, fresh_doc) == []

    def test_any_moved_value_is_named_with_both_values(self, fresh_doc):
        moved = copy.deepcopy(fresh_doc)
        committed = fresh_doc["workloads"]["p1_mpl4"]["metrics"]["conflict_tests"]
        moved["workloads"]["p1_mpl4"]["metrics"]["conflict_tests"] = committed + 1.0
        assert diff(fresh_doc, moved) == [
            f"p1_mpl4.conflict_tests: {committed} -> {committed + 1.0}"
        ]

    def test_schema_mismatch_stops_the_comparison(self, fresh_doc):
        old = copy.deepcopy(fresh_doc)
        old["schema_version"] = SCHEMA_VERSION + 1
        (problem,) = diff(old, fresh_doc)
        assert problem.startswith("baseline: schema_version")
        (problem,) = diff(fresh_doc, {"schema": "something-else"})
        assert problem.startswith("fresh: not a")

    def test_missing_workload(self, fresh_doc):
        partial = copy.deepcopy(fresh_doc)
        del partial["workloads"]["p2_cold"]
        assert diff(fresh_doc, partial) == ["fresh run is missing workload 'p2_cold'"]
        # extra fresh workloads are fine (baseline widens later)
        assert diff(partial, fresh_doc) == []

    def test_config_drift(self, fresh_doc):
        drifted = copy.deepcopy(fresh_doc)
        drifted["workloads"]["p1_mpl4"]["config"]["mpl"] = 5
        (problem,) = diff(fresh_doc, drifted)
        assert "'p1_mpl4' config drifted" in problem

    def test_missing_metric(self, fresh_doc):
        partial = copy.deepcopy(fresh_doc)
        del partial["workloads"]["p1_mpl4"]["metrics"]["throughput"]
        assert diff(fresh_doc, partial) == ["p1_mpl4: fresh run lacks metric 'throughput'"]


class TestCommittedBaseline:
    """The virtual-path gate: the committed file *is* a fresh run."""

    def test_committed_file_is_exactly_a_fresh_run(self, fresh_doc):
        # The virtual path is deterministic: one extra conflict test
        # must fail here, and the diff says which.
        assert diff(load_baseline(COMMITTED), fresh_doc) == []
        assert fresh_doc == load_baseline(COMMITTED)
        with open(COMMITTED) as fh:
            assert json.dumps(fresh_doc, indent=2, sort_keys=True) + "\n" == fh.read()

    def test_committed_file_is_current_schema(self):
        committed = load_baseline(COMMITTED)
        assert committed["schema"] == SCHEMA
        assert committed["schema_version"] == SCHEMA_VERSION
        assert set(committed["workloads"]) == set(BASELINE_WORKLOADS)


class TestTwoGates:
    """Guards against a third gate growing back beside the two we keep.

    ``BENCH_baseline.json`` (exact, virtual time) and ``BENCHMARK.json``
    (wall clock, ``perfbench``) are the gates; anything timed against a
    simulated sleep is asserted as a relation in a ``slow`` test instead.
    """

    def definitions(self, root):
        for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield os.path.relpath(path, REPO_ROOT), node.name

    def test_only_two_committed_bench_documents(self):
        paths = glob.glob(os.path.join(REPO_ROOT, "BENCH*.json"))
        found = sorted(os.path.basename(path) for path in paths)
        assert found == ["BENCHMARK.json", "BENCH_baseline.json"]

    def test_bench_package_has_no_compare_loop_or_tolerance_table(self):
        bench = os.path.join(REPO_ROOT, "src", "repro", "bench")
        offenders = [
            (path, name)
            for path, name in self.definitions(bench)
            if name.lower().startswith(("compare", "toleran"))
        ]
        assert offenders == []

    def test_exactly_one_percentile_under_src(self):
        found = [
            (path, name)
            for path, name in self.definitions(os.path.join(REPO_ROOT, "src"))
            if name.strip("_") == "percentile"
        ]
        assert found == [(os.path.join("src", "repro", "bench", "metrics.py"), "percentile")]
