"""tools/bench_pairs.py judges canned result documents by the
choosing-metrics guide's section 8: gain, not worse, worse, unresolved."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
THROUGHPUT = next(m for m in METRICS if m["name"] == "throughput_rps")
LATENCY = next(m for m in METRICS if m["name"] == "latency_p50_ms")


def document(throughput: float, latency: float, failed: int = 0, violations=()) -> dict:
    """A perfbench/1 result document with one workload and two metrics."""
    metrics = {
        "throughput_rps": {"value": throughput, "unit": "1/s", "reps": [throughput]},
        "latency_p50_ms": {"value": latency, "unit": "ms", "reps": [latency]},
    }
    run = {"metrics": metrics, "attempted": 100, "failed": failed,
           "violations": list(violations), "notes": []}
    return {"schema": "perfbench/1", "workloads": {"mem_uniform": run}}


def test_a_clear_gain():
    parent = [750, 760, 745, 770, 755, 765, 758, 752, 748, 762]
    change = [p * 1.3 for p in parent]
    judged = bench_pairs.judge(THROUGHPUT, parent, change)
    assert judged["verdict"] == "gain" and judged["wins"] == 10
    # Lower-is-better metrics win downwards; one lost pair in ten still counts.
    latency = [2.1, 2.2, 2.0, 2.15, 2.05, 2.1, 2.2, 2.12, 2.08, 2.18]
    faster = [v * 0.7 for v in latency[:9]] + [2.3]
    assert bench_pairs.judge(LATENCY, latency, faster)["verdict"] == "gain"
    # ... two lost pairs do not, however far the medians are apart.
    assert bench_pairs.judge(LATENCY, latency, faster[:8] + [2.3, 2.3])["verdict"] == "not worse"


def test_a_tie_is_not_worse_and_wins_nothing():
    parent = [750, 760, 745, 770, 755, 765, 758, 752, 748, 762]
    judged = bench_pairs.judge(THROUGHPUT, parent, list(parent))
    assert judged["verdict"] == "not worse" and judged["wins"] == 0
    # Better in every pair, but by less than the parent's own quartile distance: no claim.
    assert bench_pairs.judge(THROUGHPUT, parent, [p + 1 for p in parent])["verdict"] == "not worse"
    assert bench_pairs.judge(THROUGHPUT, parent, [p * 0.7 for p in parent])["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [500, 760, 745, 990, 755, 765, 758, 752, 748, 762]  # range 65 % of the median
    assert bench_pairs.judge(THROUGHPUT, parent, list(parent))["verdict"] == "unresolved"
    assert bench_pairs.judge(THROUGHPUT, parent, [p * 0.7 for p in parent])["verdict"] == "unresolved"
    # ... unless every change run beats every parent run.
    assert bench_pairs.judge(THROUGHPUT, parent, [1000 + p for p in parent])["verdict"] == "gain"


def test_report_is_one_markdown_table_per_workload():
    pairs = [(document(750 + i, 2.1), document(1000 + i, 1.5, failed=i == 0)) for i in range(10)]
    text = bench_pairs.report(pairs, METRICS, parent_first=[i % 2 == 0 for i in range(10)])
    lines = text.splitlines()
    assert lines[0].startswith("`mem_uniform` — 10 pairs, 2000 requests; `failed` 0 → 1")
    assert lines[2] == "| pair | `throughput_rps` | `latency_p50_ms` |"  # only what the runs have
    assert "| 1 (parent first) | 750 → 1000 | 2.1 → 1.5 |" in lines
    assert "| 2 | 751 → 1001 | 2.1 → 1.5 |" in lines
    assert "| change wins | 10/10 | 10/10 |" in lines
    assert lines[-1] == "| verdict | gain | gain |"


def test_report_prints_every_violation_with_its_pair_side_and_seed():
    lost = "item 3: order number 7 acknowledged 2 times"
    pairs = [(document(750, 2.1), document(760, 2.0)) for __ in range(3)]
    pairs[1] = (document(750, 2.1), document(760, 2.0, violations=[lost]))
    text = bench_pairs.report(pairs, METRICS, seeds=[1, 2, 1])
    lines = text.splitlines()
    assert "`correct` True → False" in lines[0]
    assert f"- violation, pair 2 (change, seed 2): {lost}" in lines
    assert sum(line.startswith("- violation") for line in lines) == 1
    # A clean run prints no violation line.
    clean = bench_pairs.report(pairs[:1], METRICS, seeds=[1])
    assert "violation" not in clean
