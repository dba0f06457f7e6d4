"""T1 wall-clock parallelism study: semantic locking vs R/W 2PL on threads.

The virtual-time benchmarks isolate *blocking behaviour*; this study
asks the complementary question — does semantic commutativity buy real
wall-clock throughput when transactions run on OS threads?  The
workload is the classic commuting-update shape: every transaction bumps
a tally counter a few times with think-time between bumps.

* Under the **semantic** protocol, ``Bump``/``Bump`` commute, so the
  retained counter locks are compatible: only the short atom-level
  subtransaction bodies serialise, and the think-time (and method
  dispatch) of concurrent transactions overlaps on the worker pool.
* Under **object R/W 2PL**, the first bump write-locks the counter
  until commit: on a hot counter every transaction serialises for its
  whole lifetime, think-time included.

Each grid point replays the same fixed batch of transactions through
:class:`~repro.runtime.threaded.ThreadedKernel` with ``time_scale`` > 0
(operation costs become real ``time.sleep`` outside the kernel mutex —
the parallelism the pool can actually exploit) and reports committed
transactions per wall-clock second plus the threaded runtime's
``thread.*``/``stripe.*``/``lock.*`` counters.

The thread-scaling sweep (:func:`run_scaling_sweep`) runs the same
loop on a fully commuting hot ledger to ask whether threaded execution
scales with the worker count.  Both are driven and asserted by
``benchmarks/bench_t1_parallelism.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from repro.bench.harness import DEFAULT_COST_MODEL
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.protocols import protocol_by_name
from repro.runtime.scheduler import Pause
from repro.runtime.threaded import ThreadedKernel

TALLY = TypeSpec("BenchTally")


# Compensation by negative bump (not state restore): increments by
# concurrent transactions must survive an abort of this one.
@TALLY.method(inverse=lambda result, args: ("Bump", (-args[0],)))
async def Bump(ctx, tally, amount):
    value = tally.impl_component("value")
    await ctx.put(value, await ctx.get(value) + amount)
    return None


TALLY.matrix.allow("Bump", "Bump")

#: The two protocols the T1 grid contrasts.
GRID_PROTOCOLS = ("semantic", "object-rw-2pl")

#: Every transaction makes this many calls, sleeping ``THINK_COST *
#: TIME_SCALE`` real seconds (outside all locks) after each.
CALLS_PER_TXN = 4
THINK_COST = 4.0
TIME_SCALE = 0.002


def build_tally_database(n_counters: int):
    """A database of ``n_counters`` independent tally objects."""
    db = Database()
    counters = []
    for i in range(n_counters):
        counter = db.new_encapsulated(TALLY, f"tally-{i}")
        db.attach_child(counter)
        impl = db.new_tuple(f"tally-{i}-impl")
        impl.add_component("value", db.new_atom("value", 0))
        counter.set_implementation(impl)
        counters.append(counter)
    return db, counters


LEDGER = TypeSpec("BenchLedger")


@LEDGER.method(inverse=lambda result, args: ("Retract", (args[0],)))
async def Deposit(ctx, ledger, tag):
    entries = ledger.impl_component("entries")
    await ctx.insert(entries, tag, ctx.create_atom(f"entry-{tag}", 1))
    return None


@LEDGER.method(inverse=lambda result, args: ("Deposit", (args[0],)))
async def Retract(ctx, ledger, tag):
    entries = ledger.impl_component("entries")
    await ctx.remove(entries, tag)
    return None


# Deposits of distinct tags commute — and every bench deposit carries a
# unique tag, so the hot ledger never blocks.  Unlike the tally's
# ``Bump`` (whose get-then-put leaf pair upgrade-deadlocks under heavy
# concurrency), the deposit body is a single distinct-key ``Insert``
# leaf: the scaling sweep measures runtime overhead, not restart churn.
LEDGER.matrix.allow_if_distinct_arg("Deposit", "Deposit")
LEDGER.matrix.allow_if_distinct_arg("Deposit", "Retract")
LEDGER.matrix.allow_if_distinct_arg("Retract", "Retract")


def build_ledger_database(n_ledgers: int):
    """A database of ``n_ledgers`` ledger objects, each backed by a set."""
    db = Database()
    ledgers = []
    for i in range(n_ledgers):
        ledger = db.new_encapsulated(LEDGER, f"ledger-{i}")
        db.attach_child(ledger)
        impl = db.new_tuple(f"ledger-{i}-impl")
        impl.add_component("entries", db.new_set("entries"))
        ledger.set_implementation(impl)
        ledgers.append(ledger)
    return db, ledgers


@dataclass(frozen=True)
class _Workload:
    """What distinguishes the two studies: objects, the call, the total."""

    build: Callable[[int], tuple[Database, list]]
    method: str
    argument: Callable[[int, int], Any]  # (transaction index, call index)
    total: Callable[[Any], int]  # updates visible on one object afterwards


WORKLOADS = {
    "tally": _Workload(
        build_tally_database,
        "Bump",
        lambda i, j: 1,
        lambda counter: counter.impl_component("value").raw_get(),
    ),
    "ledger": _Workload(
        build_ledger_database,
        "Deposit",
        lambda i, j: f"{i}.{j}",
        lambda ledger: ledger.impl_component("entries").raw_size(),
    ),
}


@dataclass(frozen=True)
class ThinkTimePoint:
    """One (workload, protocol, threads, contention) wall-clock run."""

    workload: str
    protocol: str
    n_threads: int
    n_objects: int
    n_transactions: int
    committed: int
    aborted: int
    elapsed_s: float
    throughput: float  # committed transactions per wall-clock second
    final_total: int
    expected_total: int
    counters: dict[str, int]  # the run's ``thread.*``/``shard.*``/``lock.*`` counters

    @property
    def consistent(self) -> bool:
        """No lost or phantom updates: the totals add up exactly."""
        return (
            self.committed + self.aborted == self.n_transactions
            and self.final_total == self.expected_total
        )

    def to_dict(self) -> dict:
        record = asdict(self)
        record["consistent"] = self.consistent
        return record


def run_think_time_point(
    workload: str,
    protocol: str,
    n_threads: int,
    n_objects: int = 1,
    n_transactions: int = 8,
) -> ThinkTimePoint:
    """Run one batch on the threaded runtime and measure wall-clock throughput.

    Transaction ``i`` calls the workload's method on object
    ``i % n_objects`` — so ``n_objects=1`` is the hottest possible
    contention (everyone updates the same object) and
    ``n_objects=n_transactions`` is contention-free.  The think-time is
    slept outside all locks, so throughput measures how much of that
    sleep the worker pool can overlap; it scales with the thread count
    even on a single core.
    """
    spec = WORKLOADS[workload]
    db, objects = spec.build(n_objects)
    kernel = ThreadedKernel(
        db,
        protocol=protocol_by_name(protocol)(),
        n_threads=n_threads,
        time_scale=TIME_SCALE,
        cost_model=DEFAULT_COST_MODEL,
        stall_timeout=60.0,
    )

    def make_program(i):
        async def program(tx):
            for j in range(CALLS_PER_TXN):
                await tx.call(objects[i % n_objects], spec.method, spec.argument(i, j))
                await Pause(THINK_COST)  # think-time: no locks acquired

        return program

    for i in range(n_transactions):
        kernel.spawn(f"B{i}", make_program(i))

    start = time.monotonic()
    kernel.run()
    elapsed = time.monotonic() - start

    committed = sum(1 for h in kernel.handles.values() if h.committed)
    aborted = sum(1 for h in kernel.handles.values() if h.aborted)
    kernel.locks.check_invariants()
    snap = kernel.obs.snapshot()
    return ThinkTimePoint(
        workload=workload,
        protocol=protocol,
        n_threads=n_threads,
        n_objects=n_objects,
        n_transactions=n_transactions,
        committed=committed,
        aborted=aborted,
        elapsed_s=elapsed,
        throughput=committed / elapsed if elapsed > 0 else 0.0,
        final_total=sum(spec.total(obj) for obj in objects),
        expected_total=committed * CALLS_PER_TXN,
        counters={
            name: value
            for name, value in snap.counters.items()
            if name.startswith(("thread.", "shard.", "stripe.", "lock."))
        },
    )


def run_parallelism_grid(
    thread_counts: Sequence[int] = (1, 2, 4),
    counter_counts: Sequence[int] = (1, 8),
) -> list[ThinkTimePoint]:
    """T1: the threads x contention x protocol grid on the tally."""
    return [
        run_think_time_point("tally", protocol, n_threads, n_objects=n_counters)
        for n_counters in counter_counts
        for n_threads in thread_counts
        for protocol in GRID_PROTOCOLS
    ]


def parallelism_rows(points: Sequence[ThinkTimePoint]) -> list[dict]:
    """Pivot the grid into table rows: one per (counters, threads) cell."""
    rows: dict[tuple[int, int], dict] = {}
    for p in points:
        key = (p.n_objects, p.n_threads)
        row = rows.setdefault(key, {"counters": p.n_objects, "threads": p.n_threads})
        row[p.protocol] = round(p.throughput, 2)
    return [rows[key] for key in sorted(rows)]


def semantic_speedup(
    points: Sequence[ThinkTimePoint], n_threads: int, n_counters: int = 1
) -> float:
    """Semantic over 2PL wall-clock throughput ratio at one grid cell."""
    by_protocol = {
        p.protocol: p
        for p in points
        if p.n_threads == n_threads and p.n_objects == n_counters
    }
    semantic = by_protocol["semantic"]
    baseline = by_protocol["object-rw-2pl"]
    if baseline.throughput == 0:
        return float("inf")
    return semantic.throughput / baseline.throughput


def run_scaling_sweep(
    thread_counts: Sequence[int] = (1, 4, 8),
    n_transactions: int = 32,
) -> list[ThinkTimePoint]:
    """Thread scaling: the fully commuting hot ledger, one point per worker count.

    Every transaction deposits uniquely-tagged entries into *the same*
    ledger under the semantic protocol — the worst case for a global
    mutex and the best case for semantic commutativity — so throughput
    should grow with the worker count until the pool covers the
    think-time.
    """
    return [
        run_think_time_point("ledger", "semantic", n_threads, n_transactions=n_transactions)
        for n_threads in thread_counts
    ]


def scaling_rows(points: Sequence[ThinkTimePoint]) -> list[dict]:
    """Table rows for the sweep: one per worker count."""
    return [
        {
            "threads": p.n_threads,
            "throughput": round(p.throughput, 2),
            "elapsed_s": round(p.elapsed_s, 3),
            "coordinations": p.counters.get("shard.coordinations", 0),
            "consistent": p.consistent,
        }
        for p in points
    ]
