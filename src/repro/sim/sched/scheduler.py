"""The asyncio submit/drain scheduler: the one way sweep shards execute.

Every caller cuts its pending cells into workload-pure shards and hands
them to :func:`run_shards`: ``repro serve submit`` runs a whole
:class:`~repro.sim.sched.plan.GridPlan` through
:meth:`SweepScheduler.run_plan`, and
:func:`repro.sim.parallel.parallel_compare` runs its grids through the
same function.  At ``jobs == 1`` each shard executes inline in the
calling process through :func:`~repro.sim.sched.pool.run_batch`; above
that, :func:`dispatch` streams the shards over the persistent pool,
whose workers run the same ``run_batch``.

Ordering contract: batches are processed **in submission order**, never
completion order.  Out-of-order results are buffered until their turn,
so progress lines, cache stores and DB commits are deterministic for a
given grid regardless of worker scheduling — which is what lets the
parity suites compare a batched run against the serial loop line for
line.  In-flight batches are capped, so a million-cell grid streams
through bounded queues instead of materialising everywhere at once.

Resume: before dispatching, :meth:`run_plan` diffs the plan's
content-addressed cell keys against the result DB and enqueues only the
remainder, each distinct key once.  Completed cells are never
re-simulated — the kill-and-resume suite proves a resumed sweep's DB is
canonically identical to an uninterrupted one.

Wall-clock time is deliberately absent (lint rule DET003 covers this
package): throughput measurement lives in ``scripts/bench_report.py``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.sim.cache import SweepCache
from repro.sim.sched.db import ResultDB
from repro.sim.sched.plan import (
    GridPlan,
    PlanCell,
    max_batch_cells,
    shard_by_workload,
)
from repro.sim.sched.pool import BatchShared, WorkerPool, run_batch, shared_pool
from repro.workloads.store import TraceStore

__all__ = [
    "SchedulerError",
    "SweepScheduler",
    "SweepStats",
    "dispatch",
    "run_shards",
    "run_shards_sync",
]

ProgressFn = Callable[[str], None]
Batch = tuple[BatchShared, tuple[tuple[int, str, int], ...]]
OnBatch = Callable[[int, list, int], None]

#: batches in flight per worker: 2 keeps every worker busy the moment it
#: finishes (the next batch is already queued) without ballooning queues
_INFLIGHT_PER_WORKER = 2


class SchedulerError(Exception):
    """The sweep cannot proceed (worker failure, unresolvable plan)."""


@dataclass
class SweepStats:
    """What one ``run_plan`` call did (no wall-clock; see bench)."""

    sweep: str
    total: int
    executed: int
    resumed: int
    store_degrades: int = 0

    def summary(self) -> str:
        line = (
            f"sweep {self.sweep[:12]}: {self.total} cells, "
            f"{self.executed} executed, {self.resumed} resumed"
        )
        if self.store_degrades:
            line += f", {self.store_degrades} store degrades"
        return line


async def dispatch(
    pool: WorkerPool, batches: Sequence[Batch], on_batch: OnBatch
) -> None:
    """Chunked submit/drain of ``batches`` over ``pool``.

    ``on_batch(batch_pos, results, store_degrades)`` fires once per
    batch **in submission order**; ``results`` is the worker's ordered
    ``(index, payload, native_info)`` list.  At most
    ``_INFLIGHT_PER_WORKER × pool.jobs`` batches are in flight.
    """
    inflight_cap = max(2, _INFLIGHT_PER_WORKER * pool.jobs)
    buffered: dict[int, tuple[list, int]] = {}
    next_submit = 0
    next_finish = 0
    while next_finish < len(batches):
        while next_submit < len(batches) and (
            next_submit - next_finish
        ) < inflight_cap:
            shared, cells = batches[next_submit]
            pool.submit(next_submit, shared, cells)
            next_submit += 1
        if next_finish in buffered:
            results, degrades = buffered.pop(next_finish)
        else:
            # queue reads block; keep the event loop responsive so
            # concurrent serve callers (status/query) stay serviceable
            batch_id, results, degrades = await asyncio.to_thread(pool.drain_one)
            if batch_id != next_finish:
                buffered[batch_id] = (results, degrades)
                continue
        on_batch(next_finish, results, degrades)
        next_finish += 1


async def run_shards(jobs: int, batches: Sequence[Batch], on_batch: OnBatch) -> None:
    """Execute ``batches`` through ``run_batch``, in submission order.

    ``jobs == 1`` runs each shard inline in this process (nothing is
    spawned); above that the shards stream over ``shared_pool(jobs)``.
    ``on_batch`` sees the same ``(batch_pos, results, store_degrades)``
    calls either way.
    """
    if jobs <= 1:
        for pos, (shared, cells) in enumerate(batches):
            results, degrades = run_batch(shared, cells)
            on_batch(pos, results, degrades)
        return
    await dispatch(shared_pool(jobs), batches, on_batch)


def run_shards_sync(jobs: int, batches: Sequence[Batch], on_batch: OnBatch) -> None:
    """Synchronous façade over :func:`run_shards` for non-async callers."""
    asyncio.run(run_shards(jobs, batches, on_batch))


class SweepScheduler:
    """Runs grid plans over the shared pool into the result DB."""

    def __init__(
        self,
        *,
        db: ResultDB,
        store: TraceStore | None = None,
        cache: SweepCache | None = None,
        jobs: int = 1,
        native: bool = False,
        kernel_threads: int = 0,
    ):
        self.db = db
        self.store = store
        self.cache = cache
        self.jobs = max(1, jobs)
        self.native = native
        #: OpenMP team size inside each worker's batch call (0 = default)
        self.kernel_threads = kernel_threads

    # ------------------------------------------------------------------

    def _fingerprints(self, plan: GridPlan) -> tuple[dict[str, str], dict[str, Any]]:
        """Resolve every plan workload to (fingerprint, trace supply).

        With a store, resolution is a header read on a warm store (the
        file compiles at most once); without one, the trace is built in
        the parent purely to fingerprint it and workers rebuild by name.
        """
        from repro.sim.parallel import _count_store_degrade, _registry_fingerprint
        from repro.workloads.store import TraceStoreError

        fingerprints: dict[str, str] = {}
        supplies: dict[str, Any] = {}
        for workload in plan.workloads:
            if workload in fingerprints:
                continue
            if self.store is not None:
                try:
                    ref, _built = self.store.ensure(workload)
                except TraceStoreError:
                    _count_store_degrade()
                else:
                    fingerprints[workload] = ref.fingerprint
                    supplies[workload] = ref
                    continue
            fingerprints[workload] = _registry_fingerprint(workload)
            supplies[workload] = None
        return fingerprints, supplies

    def _batch_message(
        self, plan: GridPlan, supplies: dict[str, Any], batch: tuple[PlanCell, ...]
    ) -> Batch:
        workload = batch[0].workload
        ref = supplies[workload]
        # ship only the context-table slice this shard references (shards
        # are contiguous in grid order, so the referenced ids form a tight
        # range); cell tuples are rebased onto the slice.  On a config
        # sweep the full table is the bulk of every batch message, and
        # each shard touches ~1/jobs of it.
        lo = min(cell.context_id for cell in batch)
        hi = max(cell.context_id for cell in batch)
        shared = BatchShared(
            workload=workload,
            limit=plan.limit,
            native=self.native,
            hierarchy_config=plan.hierarchy_config,
            core_config=plan.core_config,
            context_table=plan.context_configs[lo : hi + 1],
            store_path=ref.path if ref is not None else None,
            store_fingerprint=ref.fingerprint if ref is not None else "",
            kernel_threads=self.kernel_threads,
        )
        return shared, tuple(
            (cell.index, cell.prefetcher, cell.context_id - lo) for cell in batch
        )

    # ------------------------------------------------------------------

    async def run_plan(
        self,
        plan: GridPlan,
        *,
        progress: ProgressFn | None = None,
        max_cells: int | None = None,
        on_cells: Callable[[str, int, int], None] | None = None,
    ) -> SweepStats:
        """Execute ``plan``, resuming any cells the DB already holds.

        Pending cells are deduplicated by key, keeping the first index:
        a key the plan enumerates twice (e.g. a non-``context`` cell
        under every context config) simulates once, and its copies
        count as done when that one commits.

        ``max_cells`` caps how many *pending* cells this call executes
        (the deterministic stand-in for a mid-sweep kill: the DB is left
        exactly as a real interruption after that many cells would).
        Every executed cell commits with its batch, so interrupting the
        loop anywhere loses at most the in-flight batches.

        ``on_cells(sweep, done, total)`` fires once after the resume
        diff and again after every committed batch — a deterministic
        cell-count stream (this package stays clock-free; see DET003).
        ``repro serve`` timestamps it *outside* the scheduler to derive
        live throughput and ETA.
        """
        from repro.sim.parallel import _drain_store_degrades

        fingerprints, supplies = self._fingerprints(plan)
        missing = [w for w in plan.workloads if w not in fingerprints]
        if missing:
            raise SchedulerError(f"unresolvable workloads: {', '.join(missing)}")
        keys = plan.cell_keys(fingerprints)
        sweep = plan.sweep_id(keys)
        self.db.ensure_sweep(sweep, plan.spec(), plan.n_cells)

        done_keys = self.db.completed_keys(keys)
        cells = list(plan.cells())
        #: pending key -> how many plan cells it stands for
        copies: dict[str, int] = {}
        pending = []
        for cell in cells:
            key = keys[cell.index]
            if key in done_keys:
                continue
            if key in copies:
                copies[key] += 1
            else:
                copies[key] = 1
                pending.append(cell)
        resumed = len(cells) - sum(copies.values())
        if max_cells is not None:
            pending = pending[:max_cells]

        stats = SweepStats(
            sweep=sweep,
            total=len(cells),
            executed=len(pending),
            resumed=resumed,
            store_degrades=_drain_store_degrades(),
        )
        if progress is not None and resumed:
            progress(f"resume: {resumed}/{len(cells)} cells already in the DB")
        if on_cells is not None:
            on_cells(sweep, resumed, len(cells))
        if not pending:
            if progress is not None:
                progress(stats.summary())
            return stats

        batches = [
            self._batch_message(plan, supplies, batch)
            for batch in shard_by_workload(
                pending,
                lambda cell: cell.workload,
                self.jobs,
                max_batch=max_batch_cells(self.native),
            )
        ]
        finished = 0

        def on_batch(batch_pos: int, results: list, degrades: int) -> None:
            nonlocal finished
            stats.store_degrades += degrades
            rows = []
            for index, payload, _native_info in results:
                cell = cells[index]
                rows.append(
                    (keys[index], index, cell.workload, cell.prefetcher, payload)
                )
                if self.cache is not None:
                    from repro.sim.codec import decode_result

                    self.cache.store(keys[index], decode_result(payload))
            self.db.store_cells(sweep, rows)
            finished += sum(copies[keys[index]] for index, _p, _n in results)
            if on_cells is not None:
                on_cells(sweep, finished + resumed, len(cells))
            if progress is not None:
                workload = cells[results[0][0]].workload if results else "?"
                progress(
                    f"[{finished + resumed}/{len(cells)}] "
                    f"batch {batch_pos + 1}/{len(batches)} ({workload}) committed"
                )

        await run_shards(self.jobs, batches, on_batch)
        if progress is not None:
            progress(stats.summary())
        return stats

    def run_plan_sync(
        self,
        plan: GridPlan,
        *,
        progress: ProgressFn | None = None,
        max_cells: int | None = None,
        on_cells: Callable[[str, int, int], None] | None = None,
    ) -> SweepStats:
        """:meth:`run_plan` for synchronous callers (CLI, scripts)."""
        return asyncio.run(
            self.run_plan(
                plan, progress=progress, max_cells=max_cells, on_cells=on_cells
            )
        )
