"""Crash-torture: verify recovery at every reachable crash point.

The happy-path recovery tests prove the WAL machinery works for a
handful of hand-picked crashes.  This harness turns that into a sweep:
run a deterministic workload once to measure it, then re-run it once per
crash point — every scheduler step, and every WAL-record boundary (which
reaches windows step-granularity cannot, e.g. *between a
subtransaction's commit record and its lock conversion*, both sides of
which execute inside one scheduler step) — killing the run with an
injected :class:`~repro.errors.CrashPoint`, recovering from the saved
WAL file, and checking, at each point:

* **lock hygiene at the moment of death** — a transaction that
  durably finished (committed or aborted) holds no locks, no queued
  requests, and no waits-for edges;
* **recovered-state equivalence** — recovery from the surviving log
  prefix yields exactly the state of a serial execution of the durably
  committed roots, in commit order, on a fresh database;
* **committed-result equivalence** — every durably committed
  transaction's *result* matches that serial execution (this is the
  check that catches the paper's Section-3 bypass anomaly: a committed
  reader that observed a state no serial execution can produce);
* **semantic serializability of the surviving history** — the records
  of committed roots plus *pretend-committed* in-flight roots (those
  not already aborting could still have committed; a correct protocol
  must keep every such extension serializable) pass the reduction
  checker.

Under :class:`~repro.core.protocol.SemanticLockingProtocol` every crash
point must pass all four.  Pointed at the unsafe
``OpenNestedNaiveProtocol`` with encapsulation-bypassing readers, the
same sweep *must* find at least one crash point that fails — proving the
harness detects real violations rather than confirming everything.

This module is also the one harness core under the real-process sweeps
(:mod:`repro.faults.durable`, :mod:`repro.faults.cluster`): they supply
a point-runner, and share :class:`CrashOutcome` / :class:`TortureReport`,
the :func:`sweep` loop (temp dir, per-point directory, wall-clock
budget), the :func:`crash_points` grid and the recover-and-replay oracle
(:func:`serial_replay` + :func:`recovered_matches`).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.kernel import TransactionManager, TransactionProgram, run_transactions
from repro.core.protocol import SemanticLockingProtocol
from repro.core.serializability import is_semantically_serializable
from repro.errors import CrashPoint
from repro.faults.plan import FaultPlan
from repro.objects.atoms import AtomicObject
from repro.objects.sets import SetObject
from repro.recovery import recover
from repro.recovery.wal import TxnStatusRecord, WriteAheadLog
from repro.runtime.scheduler import Scheduler
from repro.txn.history import ActionRecord, History, action_record


def state_of(db, exclude: tuple[str, ...] = ("NextOrderNo",)) -> dict[str, Any]:
    """Comparable logical state of *db*.

    Counter atoms named in *exclude* are skipped: compensation
    deliberately does not reuse order numbers, so they differ between a
    recovered run and the serial oracle without being a divergence.
    """
    state: dict[str, Any] = {}
    for obj in db.subtree():
        if isinstance(obj, AtomicObject) and obj.name not in exclude:
            state[obj.path] = obj.raw_get()
        elif isinstance(obj, SetObject):
            state[obj.path + "/keys"] = tuple(sorted(str(k) for k, __ in obj.raw_scan()))
    return state


@dataclass
class TortureScenario:
    """A reproducible workload the crash sweep can re-instantiate at will.

    ``instantiate()`` must return a *fresh* ``(db, programs)`` pair each
    call — same database content, equivalent programs bound to the fresh
    objects — so the reference run, every crash run, every recovery
    target, and every serial oracle start from identical worlds.
    """

    name: str
    instantiate: Callable[[], tuple[Any, dict[str, TransactionProgram]]]
    protocol: Callable[[], Any] = SemanticLockingProtocol
    type_specs: Optional[Mapping[str, Any]] = None
    policy: str = "fifo"
    seed: Optional[int] = None
    _replays: dict = field(default_factory=dict, repr=False, compare=False)

    def expected(self, winners: tuple[str, ...]) -> tuple[dict, dict]:
        """(state, results) of replaying *winners* serially on a fresh instance.

        Memoised: a sweep's crash points share a handful of winner
        prefixes, and replaying each per point instead of once slows the
        in-process seed-0 sweep by about 15 %.
        """
        if winners not in self._replays:
            db, programs = self.instantiate()
            results = serial_replay(db, winners, programs.__getitem__)
            self._replays[winners] = (state_of(db), results)
        return self._replays[winners]


@dataclass
class CrashOutcome:
    """Verdicts for one crash point, whichever sweep ran it.

    *failures* is the whole verdict: one named string per check that did
    not hold (the vocabulary is tabulated in docs/FAULTS.md).  *detail*
    carries the per-harness counts behind it — ``compensated``,
    ``leaks``, ``torn_tail_bytes``, ``acked_ok``, ``winners_per_shard``…
    """

    label: str  # "step-12" | "wal-3" | "v0-2pc-prepare-logged"; also the point's directory
    crashed: bool  # False: the fault never fired (point beyond the run)
    process_killed: bool = False  # a real process really died by SIGKILL
    crash_site: str = ""
    winners: tuple[str, ...] = ()
    losers: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()
    recovery_seconds: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.crashed and not self.failures


@dataclass
class TortureReport:
    """One sweep's verdicts, JSON-serialisable for CI artifacts.

    *config* is what the sweep ran over (harness, step/WAL counts of the
    reference run, shard and request counts…); the rest is the same for
    the in-process, SIGKILL and shard-kill sweeps.
    """

    scenario: str
    seed: Optional[int]
    config: dict[str, Any] = field(default_factory=dict)
    outcomes: list[CrashOutcome] = field(default_factory=list)
    planned_points: int = 0  # full sweep size before any time budget
    truncated: bool = False  # stopped early by max_seconds
    elapsed_seconds: float = 0.0

    @property
    def crash_points(self) -> int:
        return sum(1 for o in self.outcomes if o.crashed)

    @property
    def process_kills(self) -> int:
        return sum(1 for o in self.outcomes if o.process_killed)

    @property
    def anomalies(self) -> list[CrashOutcome]:
        return [o for o in self.outcomes if o.failures]

    @property
    def all_ok(self) -> bool:
        """At least one crash point was verified, and none failed.

        A sweep that verified nothing (budget of zero, every fault
        beyond the run) has shown nothing, so it does not pass.
        """
        return self.crash_points > 0 and not self.anomalies

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-torture",
            "version": 2,
            "scenario": self.scenario,
            "seed": self.seed,
            "config": dict(self.config),
            "planned_points": self.planned_points,
            "covered_points": len(self.outcomes),
            "crash_points": self.crash_points,
            "process_kills": self.process_kills,
            "truncated": self.truncated,
            "all_ok": self.all_ok,
            "anomalies": [o.label for o in self.anomalies],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "recovery_seconds_total": round(
                sum(o.recovery_seconds for o in self.outcomes), 6
            ),
            "outcomes": [asdict(o) for o in self.outcomes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        if self.anomalies:
            verdict = f"{len(self.anomalies)} ANOMALIES"
        else:
            verdict = "OK" if self.all_ok else "NOTHING VERIFIED"
        facts = [f"{key}={value}" for key, value in self.config.items()]
        if self.process_kills:
            facts.append(f"{self.process_kills} SIGKILLs")
        lines = [
            f"torture[{self.scenario}]: {self.crash_points} crash points "
            f"({', '.join(facts)}) -> {verdict}"
        ]
        if self.truncated:
            lines.append(
                f"  PARTIAL: time budget hit after {len(self.outcomes)} of "
                f"{self.planned_points} planned points — verdict covers only "
                "the points that ran"
            )
        for outcome in self.anomalies:
            lines.append(f"  {outcome.label}: {', '.join(outcome.failures)}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The sweep driver every harness shares
# ----------------------------------------------------------------------
def sweep(
    report: TortureReport,
    points: Sequence[tuple[str, Any]],
    run_point: Callable[[str, Any, str], CrashOutcome],
    workdir: Optional[str] = None,
    max_seconds: Optional[float] = None,
) -> TortureReport:
    """Run ``run_point(label, point, point_dir)`` over *points* into *report*.

    Each ``(label, point)`` gets its own directory ``workdir/label`` (a
    temp dir, removed afterwards, unless *workdir* is given: the files a
    crash leaves behind are then kept for inspection).  *max_seconds* is
    a wall-clock budget: when it runs out the sweep stops before the next
    point and the report is partial-but-honest — ``truncated`` is set and
    ``planned_points`` vs ``len(outcomes)`` say how much the verdict
    covers.
    """
    started = time.perf_counter()
    report.planned_points = len(points)
    with contextlib.ExitStack() as cleanup:
        if workdir is None:
            workdir = cleanup.enter_context(tempfile.TemporaryDirectory(prefix="repro-torture-"))
        for label, point in points:
            if max_seconds is not None and time.perf_counter() - started >= max_seconds:
                report.truncated = True
                break
            point_dir = os.path.join(workdir, label)
            os.makedirs(point_dir, exist_ok=True)
            report.outcomes.append(run_point(label, point, point_dir))
    report.elapsed_seconds = time.perf_counter() - started
    return report


def crash_points(
    scenario: TortureScenario, steps: Optional[int] = None, wal_sweep: bool = True
) -> tuple[list[tuple[str, tuple[str, int]]], dict[str, int]]:
    """The crash grid of *scenario*'s reference run, as labelled points.

    One ``("step", k)`` per scheduler step — *steps* caps their number,
    evenly strided when the run is longer — plus, with *wal_sweep*, one
    ``("wal", n)`` after every WAL append: the windows invisible to step
    granularity.  Also returns the reference run's sizes for the report.
    """
    reference, ref_wal, ref_crash = _run_instance(scenario)
    assert ref_crash is None, "reference run must not crash"
    grid = [("step", k) for k in range(reference.scheduler.steps)]
    if steps is not None and len(grid) > steps:
        grid = grid[:: max(1, len(grid) // steps)][:steps]
    if wal_sweep:
        grid += [("wal", n) for n in range(1, len(ref_wal) + 1)]
    sizes = {"total_steps": reference.scheduler.steps, "wal_records": len(ref_wal)}
    return [(f"{kind}-{at}", (kind, at)) for kind, at in grid], sizes


def crash_plan(kind: str, at: int) -> FaultPlan:
    """The fault plan that kills a run at grid point ``(kind, at)``."""
    if kind == "step":
        return FaultPlan.crash_at_step(at)
    return FaultPlan.crash_at_wal_record(at)


# ----------------------------------------------------------------------
# The recover-and-replay oracle every harness shares
# ----------------------------------------------------------------------
def serial_replay(
    fresh_db, winners: Sequence[str], program_for: Callable[[str], TransactionProgram]
) -> dict[str, Any]:
    """Run *winners* one at a time, in order, on *fresh_db*; their results."""
    results: dict[str, Any] = {}
    for winner in winners:
        kernel = run_transactions(fresh_db, {winner: program_for(winner)})
        results[winner] = kernel.handles[winner].result
    return results


def recovered_matches(fresh_db, log: WriteAheadLog, type_specs, expected_state):
    """Recover *log* onto *fresh_db*; (state equals *expected_state*, report)."""
    recovery = recover(fresh_db, log, type_specs)
    return state_of(fresh_db) == expected_state, recovery


def check_recovery(outcome: CrashOutcome, scenario: TortureScenario, log) -> dict:
    """Recover the surviving *log* and hold it against the serial oracle.

    Fills the outcome's winners, losers, recovery counts and a
    ``state-divergence`` failure; returns the oracle's results so a
    caller that still has the crashed run's results can compare them.
    """
    outcome.winners = tuple(_durable_winners(log))
    outcome.losers = tuple(t for t, s in log.outcomes().items() if s == "in-flight")
    oracle_state, oracle_results = scenario.expected(outcome.winners)
    restored_db, __ = scenario.instantiate()
    matches, recovery = recovered_matches(restored_db, log, scenario.type_specs, oracle_state)
    outcome.recovery_seconds = recovery.total_seconds
    outcome.detail["compensated"] = recovery.compensated
    outcome.detail["physically_undone"] = recovery.physically_undone
    if not matches:
        outcome.failures += ("state-divergence",)
    return oracle_results


# ----------------------------------------------------------------------
# Running one (possibly crashing) instance
# ----------------------------------------------------------------------
def _run_instance(
    scenario: TortureScenario,
    faults: Optional[FaultPlan] = None,
    open_wal: Callable[[], WriteAheadLog] = WriteAheadLog,
) -> tuple[TransactionManager, WriteAheadLog, Optional[CrashPoint]]:
    """Run the scenario to its end or to the injected crash.

    *open_wal()* supplies the log; the SIGKILL sweep's children pass one
    that is file-backed.  The database stays in memory either way.
    """
    db, programs = scenario.instantiate()
    wal = open_wal()
    kernel = TransactionManager(
        db,
        protocol=scenario.protocol(),
        scheduler=Scheduler(policy=scenario.policy, seed=scenario.seed),
        wal=wal,
        faults=faults,
    )
    for name, program in programs.items():
        kernel.spawn(name, program)
    crash: Optional[CrashPoint] = None
    try:
        kernel.run()
    except CrashPoint as point:
        crash = point
    return kernel, wal, crash


def _durable_winners(wal: WriteAheadLog) -> list[str]:
    """Committed transactions, in durable commit order."""
    return [
        r.txn
        for r in wal
        if isinstance(r, TxnStatusRecord) and r.status == "commit"
    ]


def _leak_check(kernel: TransactionManager) -> list[str]:
    """Finished transactions must have fully vacated the lock plane.

    Inspected on the *crashed* kernel, before any shutdown — exactly the
    state a real crash leaves behind.
    """
    leaks: list[str] = []
    finished = {
        name
        for name, handle in kernel.handles.items()
        if handle.committed or handle.aborted
    }
    for name in sorted(finished):
        handle = kernel.handles[name]
        held = kernel.locks.locks_held_by_tree(handle.root)
        if held:
            leaks.append(f"{name}: {len(held)} locks still granted")
        queued = kernel.locks.pending_of_tree(handle.root)
        if queued:
            leaks.append(f"{name}: {len(queued)} requests still queued")
    for waiter, holder in kernel.waits.edges_involving(finished):
        leaks.append(f"waits-for edge {waiter} -> {holder} involves a finished txn")
    return leaks


def _surviving_history(kernel: TransactionManager) -> History:
    """Committed records plus pretend-committed in-flight roots.

    In-flight transactions that were not already aborting could still
    have committed had the crash not happened; a correct protocol must
    keep every such extension serializable.  The history holds only
    *finished* nodes, so the active interior of those trees (the root
    and any active ancestors of recorded actions) is sealed here:
    status ``committed``, end sequence numbers past the real ones, and
    children sealed before parents — the order an actual commit would
    have produced.  In-flight transactions already aborting are left
    out, exactly like durably aborted ones: they can never commit.
    """
    history = kernel.history()
    synthesised: list[ActionRecord] = []
    next_seq = max((r.end_seq for r in history.records), default=0) + 1
    for name in sorted(kernel.handles):
        handle = kernel.handles[name]
        if handle.committed or handle.aborted or handle.aborting:
            continue
        # Active ancestors of recorded (finished) actions, deepest first,
        # so every child's synthetic end_seq precedes its parent's.
        pending = [
            node
            for node in handle.root.descendants(include_self=True)
            if node.active and any(not child.active for child in node.children)
        ]
        if not pending:
            continue  # no durably recorded effects; nothing to explain
        closure = {node.node_id: node for node in pending}
        for node in pending:
            for ancestor in node.ancestors(include_self=False):
                if ancestor.active:
                    closure.setdefault(ancestor.node_id, ancestor)
        for node in sorted(closure.values(), key=lambda n: -n.depth):
            synthesised.append(action_record(node, status="committed", end_seq=next_seq))
            next_seq += 1
    return History(
        records=sorted(history.records + synthesised, key=lambda r: r.begin_seq),
        composition_parent=dict(history.composition_parent),
    )


def corpse_checks(kernel: TransactionManager) -> tuple[tuple[str, ...], list[str]]:
    """(failures, leaks): what only the crashed process's memory can answer.

    Lock hygiene and surviving-history serializability, inspected on the
    corpse before the coroutines are torn down (shutdown would run
    cleanup handlers a crash never runs).
    """
    failures: tuple[str, ...] = ()
    leaks = _leak_check(kernel)
    if leaks:
        failures += ("leaked-locks",)
    verdict = is_semantically_serializable(_surviving_history(kernel), db=kernel.db)
    if verdict.exhausted:
        failures += ("unknown-surviving-history",)
    elif not verdict.serializable:
        failures += ("non-serializable-surviving-history",)
    return failures, leaks


# ----------------------------------------------------------------------
# The in-process sweep
# ----------------------------------------------------------------------
def run_torture(
    scenario: TortureScenario,
    steps: Optional[int] = None,
    wal_sweep: bool = True,
    max_seconds: Optional[float] = None,
) -> TortureReport:
    """Crash the scenario at every crash point and verify each recovery.

    The grid is :func:`crash_points`; every crash's log is round-tripped
    through a WAL file in the point's directory, so recovery reads
    what the disk would actually hold.  *max_seconds* as in :func:`sweep`.
    """
    points, sizes = crash_points(scenario, steps, wal_sweep)
    report = TortureReport(scenario.name, scenario.seed, {"harness": "in-process", **sizes})
    return sweep(
        report,
        points,
        lambda label, point, point_dir: _torture_point(
            scenario, label, crash_plan(*point), point_dir
        ),
        max_seconds=max_seconds,
    )


def _torture_point(
    scenario: TortureScenario, label: str, plan: FaultPlan, point_dir: str
) -> CrashOutcome:
    kernel, wal, crash = _run_instance(scenario, faults=plan)
    outcome = CrashOutcome(label=label, crashed=crash is not None)
    if crash is None:
        # The run finished before the fault could fire (e.g. a WAL point
        # beyond a shorter-than-reference log); nothing to verify.
        return outcome
    outcome.crash_site = crash.site
    outcome.failures, outcome.detail["leaks"] = corpse_checks(kernel)
    committed_results = {
        name: handle.result
        for name, handle in kernel.handles.items()
        if handle.committed
    }
    kernel.scheduler.shutdown()

    # Recover from the *saved* WAL file onto a fresh database.
    path = os.path.join(point_dir, "wal.log")
    wal.save_durable(path)
    oracle_results = check_recovery(outcome, scenario, WriteAheadLog.load(path))
    # Only results the crashed run actually reported are comparable: a
    # crash between a commit record and the in-memory commit flag leaves
    # a durable winner whose client never saw a result.
    if any(
        committed_results[name] != oracle_results.get(name)
        for name in outcome.winners
        if name in committed_results
    ):
        outcome.failures += ("result-divergence",)
    return outcome


# ----------------------------------------------------------------------
# Canned scenarios
# ----------------------------------------------------------------------
def order_entry_scenario(
    seed: int = 0,
    n_transactions: int = 5,
    n_items: int = 2,
    orders_per_item: int = 2,
    protocol: Callable[[], Any] = SemanticLockingProtocol,
    policy: str = "fifo",
    mix: Optional[dict[str, float]] = None,
) -> TortureScenario:
    """A seeded order-entry workload (the paper's T1–T5 mix)."""
    from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE
    from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig

    def instantiate():
        config = WorkloadConfig(
            n_items=n_items,
            orders_per_item=orders_per_item,
            seed=seed,
            mix=mix if mix is not None else {"T1": 1.0, "T2": 1.0, "T3": 1.0, "T5": 1.0},
        )
        workload = OrderEntryWorkload(config)
        return workload.db, dict(workload.take(n_transactions))

    return TortureScenario(
        name=f"order-entry(seed={seed}, n={n_transactions})",
        instantiate=instantiate,
        protocol=protocol,
        type_specs={"Item": ITEM_TYPE, "Order": ORDER_TYPE},
        policy=policy,
        seed=seed,
    )


def fig5_bypass_scenario(
    protocol: Callable[[], Any], seed: int
) -> TortureScenario:
    """The Section-3 / Fig. 5 workload: T1 ships while T3 bypasses.

    With the naive open-nested protocol (which releases a completed
    subtransaction's locks) some seeds let T3 commit having observed one
    order shipped and the other not; the sweep must flag those crash
    points.  With the full semantic protocol every point must pass.
    """
    from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
    from repro.orderentry.transactions import make_t1, make_t3

    def instantiate():
        built = build_order_entry_database(n_items=2, orders_per_item=1)
        return built.db, {
            "T1": make_t1(built.item(0), 1, built.item(1), 1),
            "T3": make_t3(built.order(0, 0), built.order(1, 0)),
        }

    return TortureScenario(
        name=f"fig5-bypass(seed={seed})",
        instantiate=instantiate,
        protocol=protocol,
        type_specs={"Item": ITEM_TYPE, "Order": ORDER_TYPE},
        policy="random",
        seed=seed,
    )


def find_bypass_anomaly(
    seeds=range(40), steps: Optional[int] = None
) -> tuple[Optional[int], Optional[TortureReport]]:
    """First seed whose crash sweep exposes the naive-protocol anomaly."""
    from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol

    for seed in seeds:
        report = run_torture(
            fig5_bypass_scenario(OpenNestedNaiveProtocol, seed),
            steps=steps,
            wal_sweep=False,
        )
        if report.anomalies:
            return seed, report
    return None, None
