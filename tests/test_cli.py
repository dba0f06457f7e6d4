"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
from functools import partial

import pytest

from repro.cli import main
from repro.core.serializability import is_semantically_serializable

COMMITTED_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_baseline.json"
)


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "T2" in out
        assert "semantically serializable: True" in out
        assert "lock waits: 0" in out

    def test_matrices(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "Item" in out and "Order" in out
        assert "ShipOrder" in out
        assert "lock modes of Order" in out

    def test_compare(self, capsys):
        assert main(["compare", "--transactions", "8", "--mpl", "2"]) == 0
        out = capsys.readouterr().out
        assert "semantic" in out and "page-2pl" in out
        assert "throughput" in out

    def test_check_semantic_ok(self, capsys):
        assert main(["check", "--transactions", "5", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "serializable: True" in out

    def test_check_detects_naive_violation(self, capsys):
        """Some seed exposes the naive protocol on a bypass-heavy mix."""
        failures = 0
        for seed in range(25):
            code = main(
                [
                    "check",
                    "--protocol",
                    "open-nested-naive",
                    "--transactions",
                    "6",
                    "--seed",
                    str(seed),
                ]
            )
            if code == 1:
                failures += 1
                break
        capsys.readouterr()
        assert failures >= 1

    def test_demo_and_check_name_an_exhausted_budget_unknown(self, capsys, monkeypatch):
        """A search that ran out of budget refuted nothing: both commands
        say "unknown", and check exits 2 rather than 1."""
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "is_semantically_serializable", partial(is_semantically_serializable, budget=1)
        )
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "semantically serializable: unknown (search budget exhausted" in out
        assert "serializable: False" not in out
        assert main(["check", "--transactions", "5", "--seed", "2"]) == 2
        out = capsys.readouterr().out
        assert "history semantically serializable: unknown" in out
        assert "NOT equivalent" not in out

    def test_check_threaded_runtime(self, capsys):
        assert main(["check", "--runtime", "threaded", "--transactions", "4"]) == 0
        out = capsys.readouterr().out
        assert "threaded runtime" in out
        assert "serializable: True" in out

    def test_stats_from_jsonl_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert main(["stats", "--transactions", "6", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", "--from-jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conflict-test outcomes" in out
        assert "lock manager" in out

    def test_stats_from_jsonl_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        assert main(["stats", "--from-jsonl", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.strip() == f"error: metrics file not found: {path}"

    def test_stats_from_jsonl_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["stats", "--from-jsonl", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.strip() == f"error: metrics file is empty: {path}"

    def test_stats_from_jsonl_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"type": "wibble", "name": "x"}\n')
        assert main(["stats", "--from-jsonl", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_servers_take_no_pool_size(self, command, capsys):
        """Wire requests run on their handler threads, so neither server
        command sizes a worker pool; admission bounds what runs at once."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--threads", "4"])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert build_parser().parse_args([command]).max_inflight == 4

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "matrices"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "Item" in result.stdout


class TestBench:
    """``repro bench``: one shape, and ``--compare`` is an exact gate."""

    def test_compare_against_committed_baseline_passes(self, capsys):
        assert main(["bench", "--compare", COMMITTED_BASELINE]) == 0
        assert "PASS" in capsys.readouterr().out

    def edited_copy(self, tmp_path, edit):
        with open(COMMITTED_BASELINE) as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_one_edited_metric_fails_and_is_named(self, tmp_path, capsys):
        def edit(doc):
            doc["workloads"]["p2_hot"]["metrics"]["conflict_tests"] = 1.0

        with open(COMMITTED_BASELINE) as fh:
            fresh = json.load(fh)["workloads"]["p2_hot"]["metrics"]["conflict_tests"]
        assert main(["bench", "--compare", self.edited_copy(tmp_path, edit)]) == 1
        out = capsys.readouterr().out
        assert f"p2_hot.conflict_tests: 1.0 -> {fresh}" in out
        assert "FAIL: 1 difference(s)" in out

    def test_schema_version_bump_fails(self, tmp_path, capsys):
        def edit(doc):
            doc["schema_version"] += 1

        assert main(["bench", "--compare", self.edited_copy(tmp_path, edit)]) == 1
        assert "schema_version" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode", ["openloop", "cluster", "durability", "scaling", "parallelism"]
    )
    def test_retired_mode_flags_are_rejected(self, mode, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", f"--{mode}"])
        assert exit_info.value.code == 2
        assert f"--{mode}" in capsys.readouterr().err


class TestTorture:
    """``repro torture``: three sweeps, one report shape, one exit rule."""

    REPORT_KEYS = {
        "schema", "version", "scenario", "seed", "config", "planned_points",
        "covered_points", "crash_points", "process_kills", "truncated", "all_ok",
        "anomalies", "elapsed_seconds", "recovery_seconds_total", "outcomes",
    }  # fmt: skip
    OUTCOME_KEYS = {
        "label", "crashed", "process_killed", "crash_site", "winners", "losers",
        "failures", "recovery_seconds", "detail",
    }  # fmt: skip

    def test_in_process_json_has_the_one_schema(self, tmp_path, capsys):
        path = tmp_path / "torture.json"
        argv = ["torture", "--transactions", "3", "--steps", "3", "--no-wal-sweep"]
        assert main(argv + ["--json", str(path)]) == 0
        assert "3 crash points" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc) == self.REPORT_KEYS
        assert doc["schema"] == "repro-torture" and doc["all_ok"] is True
        assert doc["config"]["harness"] == "in-process"
        assert [o["label"] for o in doc["outcomes"]] == ["step-0", "step-11", "step-22"]
        assert all(set(o) == self.OUTCOME_KEYS for o in doc["outcomes"])

    def test_sigkill_sweep_reports_the_same_keys(self):
        from repro.faults.durable import run_durable_torture

        doc = run_durable_torture(steps=1, wal_sweep=False).to_dict()
        assert set(doc) == self.REPORT_KEYS
        assert doc["config"]["harness"] == "sigkill" and doc["process_kills"] == 1
        assert [set(o) for o in doc["outcomes"]] == [self.OUTCOME_KEYS]

    @pytest.mark.parametrize("mode", [[], ["--durable"], ["--cluster"]])
    def test_zero_budget_verifies_nothing_and_fails(self, mode, tmp_path, capsys):
        path = tmp_path / "torture.json"
        argv = ["torture", "--max-seconds", "0", "--json", str(path)]
        assert main(argv + mode) == 1
        out = capsys.readouterr().out
        assert "PARTIAL" in out and "NOTHING VERIFIED" in out
        doc = json.loads(path.read_text())
        assert set(doc) == self.REPORT_KEYS
        assert doc["truncated"] and not doc["all_ok"] and doc["outcomes"] == []
        assert doc["planned_points"] > 0
