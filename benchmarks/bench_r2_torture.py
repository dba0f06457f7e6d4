"""R2 (extension) — crash-torture: recovery verified at every crash point.

Two experiments on the seeded order-entry workload:

* **Semantic sweep** — under :class:`SemanticLockingProtocol`, crash at
  *every* scheduler step and every WAL-record boundary of the reference
  run, recover each crash from the pickled log, and assert the full
  verdict at every point: recovered state equals a serial execution of
  the durable winners, every reported committed result matches that
  serial execution, the surviving (pretend-committed) history stays
  semantically serializable, and no finished transaction leaks locks,
  queued requests, or waits-for edges.

* **Bypass anomaly** — the same sweep pointed at the unsafe
  ``OpenNestedNaiveProtocol`` running the Fig. 5 bypass workload must
  *fail* at one or more crash points: a crashed run can strand a
  committed T3 that observed one order shipped and the other not, which
  no serial execution of the durable winners can reproduce.  This is
  the harness's proof-of-detection — a sweep that can't catch the
  paper's own Section-3 anomaly would be vacuous.
"""

from repro.faults.torture import (
    fig5_bypass_scenario,
    find_bypass_anomaly,
    order_entry_scenario,
    run_torture,
)

SEEDS = (0, 1, 2)


def sweep_semantic():
    return [
        run_torture(order_entry_scenario(seed=seed, n_transactions=5))
        for seed in SEEDS
    ]


def test_r2_torture_semantic_all_points(benchmark):
    reports = benchmark.pedantic(sweep_semantic, rounds=1, iterations=1)

    from bench_common import print_rows

    rows = [
        {
            "seed": report.seed,
            "steps": report.config["total_steps"],
            "wal_records": report.config["wal_records"],
            "crash_points": report.crash_points,
            "anomalies": len(report.anomalies),
            "recover_ms": round(
                sum(o.recovery_seconds for o in report.outcomes) * 1e3, 2
            ),
        }
        for report in reports
    ]
    print_rows(rows, "R2 — crash-torture sweeps (semantic protocol)")

    for report in reports:
        assert report.all_ok, report.summary()
        # every step of the reference run was actually crashed
        assert report.crash_points >= report.config["total_steps"]


def test_r2_torture_catches_bypass_anomaly(benchmark):
    seed, report = benchmark.pedantic(
        find_bypass_anomaly, rounds=1, iterations=1
    )
    assert seed is not None, (
        "no seed produced the Fig. 5 bypass anomaly under crash-torture; "
        "the harness has lost its detection power"
    )
    print(report.summary())
    assert report.anomalies
    failures = {f for o in report.anomalies for f in o.failures}
    assert "result-divergence" in failures or (
        "non-serializable-surviving-history" in failures
    )

    # The full sweep (WAL points included) on the same seed also finds it.
    from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol

    full = run_torture(fig5_bypass_scenario(OpenNestedNaiveProtocol, seed))
    assert full.anomalies
