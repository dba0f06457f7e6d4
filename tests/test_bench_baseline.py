"""Tests for the committed benchmark baseline and the regression gate."""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.bench.baseline import (
    BASELINE_WORKLOADS,
    DEFAULT_TOLERANCES,
    RECORDED_METRICS,
    SCHEMA,
    SCHEMA_VERSION,
    Tolerance,
    collect_baseline,
    compare,
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


class TestTolerance:
    def test_higher_is_better_floor(self):
        t = Tolerance("higher_is_better", rel=0.25)
        assert t.check(1.0, 1.0) == (True, 0.75)
        assert t.check(1.0, 0.75) == (True, 0.75)
        assert t.check(1.0, 0.74)[0] is False
        assert t.check(1.0, 2.0)[0] is True  # improvement always passes

    def test_lower_is_better_ceiling(self):
        t = Tolerance("lower_is_better", rel=0.25)
        assert t.check(4.0, 5.0) == (True, 5.0)
        assert t.check(4.0, 5.01)[0] is False
        assert t.check(4.0, 1.0)[0] is True

    def test_absolute_slack(self):
        t = Tolerance("higher_is_better", abs_=0.02)
        assert t.check(0.9, 0.88)[0] is True
        assert t.check(0.9, 0.87)[0] is False


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


class TestCompare:
    def test_identical_documents_pass(self, fresh_doc):
        result = compare(fresh_doc, fresh_doc)
        assert result.ok
        assert not result.errors
        gated = [row for row in result.rows if row.gated]
        # every tolerance-gated metric is checked for every workload
        assert len(gated) == len(DEFAULT_TOLERANCES) * len(BASELINE_WORKLOADS)
        assert "PASS" in result.summary()

    def test_throughput_regression_fails(self, fresh_doc):
        hurt = copy.deepcopy(fresh_doc)
        entry = hurt["workloads"]["p1_mpl4"]["metrics"]
        entry["throughput"] = entry["throughput"] * 0.5  # -50% > 25% budget
        result = compare(fresh_doc, hurt)
        assert not result.ok
        assert [(r.workload, r.metric) for r in result.regressions] == [
            ("p1_mpl4", "throughput")
        ]
        assert "FAIL" in result.summary()

    def test_small_drift_within_tolerance_passes(self, fresh_doc):
        drifted = copy.deepcopy(fresh_doc)
        entry = drifted["workloads"]["p1_mpl4"]["metrics"]
        entry["throughput"] = entry["throughput"] * 0.9
        entry["p95_response"] = entry["p95_response"] * 1.1
        assert compare(fresh_doc, drifted).ok

    def test_hit_rate_floor_trips(self, fresh_doc):
        hurt = copy.deepcopy(fresh_doc)
        entry = hurt["workloads"]["p2_hot"]["metrics"]
        entry["commute_cache_hit_rate"] = entry["commute_cache_hit_rate"] - 0.05
        result = compare(fresh_doc, hurt)
        assert not result.ok
        assert [(r.workload, r.metric) for r in result.regressions] == [
            ("p2_hot", "commute_cache_hit_rate")
        ]

    def test_improvements_pass(self, fresh_doc):
        better = copy.deepcopy(fresh_doc)
        for entry in better["workloads"].values():
            entry["metrics"]["throughput"] *= 2
            entry["metrics"]["p95_response"] *= 0.5
            entry["metrics"]["commute_cache_hit_rate"] = 1.0
        assert compare(fresh_doc, better).ok

    def test_schema_version_mismatch_errors(self, fresh_doc):
        old = copy.deepcopy(fresh_doc)
        old["schema_version"] = SCHEMA_VERSION + 1
        result = compare(old, fresh_doc)
        assert not result.ok
        assert any("schema_version" in e for e in result.errors)
        result = compare(fresh_doc, {"schema": "something-else"})
        assert not result.ok

    def test_missing_workload_errors(self, fresh_doc):
        partial = copy.deepcopy(fresh_doc)
        del partial["workloads"]["p2_cold"]
        result = compare(fresh_doc, partial)
        assert not result.ok
        assert any("p2_cold" in e for e in result.errors)
        # extra fresh workloads are fine (baseline widens later)
        assert compare(partial, fresh_doc).ok

    def test_config_drift_errors(self, fresh_doc):
        drifted = copy.deepcopy(fresh_doc)
        drifted["workloads"]["p1_mpl4"]["config"]["mpl"] = 5
        result = compare(fresh_doc, drifted)
        assert not result.ok
        assert any("config drifted" in e for e in result.errors)

    def test_missing_metric_errors(self, fresh_doc):
        partial = copy.deepcopy(fresh_doc)
        del partial["workloads"]["p1_mpl4"]["metrics"]["throughput"]
        result = compare(fresh_doc, partial)
        assert not result.ok
        assert any("throughput" in e for e in result.errors)

    def test_ungated_metrics_are_informational(self, fresh_doc):
        noisy = copy.deepcopy(fresh_doc)
        # 'committed' carries no tolerance: huge drift is info, not FAIL
        noisy["workloads"]["p1_mpl4"]["metrics"]["committed"] = 1.0
        result = compare(fresh_doc, noisy)
        assert result.ok
        info = [r for r in result.rows if not r.gated]
        assert any(r.metric == "committed" for r in info)
        assert all(r.status == "info" for r in info)


class TestCommittedBaseline:
    """The in-repo gate the CI bench-regression job replays."""

    def test_committed_file_matches_fresh_run(self, fresh_doc):
        committed = load_baseline(COMMITTED)
        result = compare(committed, fresh_doc)
        assert result.ok, result.summary()

    def test_committed_file_is_exactly_a_fresh_run(self, fresh_doc):
        # The virtual path is deterministic: one extra conflict test or
        # cache lookup must fail here, not drift inside the tolerances.
        assert fresh_doc == load_baseline(COMMITTED)
        with open(COMMITTED) as fh:
            assert json.dumps(fresh_doc, indent=2, sort_keys=True) + "\n" == fh.read()

    def test_committed_file_is_current_schema(self):
        committed = load_baseline(COMMITTED)
        assert committed["schema"] == SCHEMA
        assert committed["schema_version"] == SCHEMA_VERSION
        assert set(committed["workloads"]) == set(BASELINE_WORKLOADS)

    def test_committed_baseline_exercises_the_caches(self):
        committed = load_baseline(COMMITTED)
        for name, entry in committed["workloads"].items():
            assert entry["metrics"]["commute_cache_hit_rate"] > 0.5, name
            assert entry["metrics"]["relief_cache_hits"] > 0, name
