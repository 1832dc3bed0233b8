"""Parallel sweep engine: the grid → shards → ordered merge pipeline.

Every cell of a workload × prefetcher sweep is independent — the
simulator is a pure function of (trace, prefetcher, configs, limit) —
so the sweep is embarrassingly parallel.  :func:`run_plans` takes one
or more :class:`~repro.sim.sched.plan.GridPlan` values over a shared
workload axis (``parallel_compare``, the Figure 13 storage sweep and
the ablation-style experiments all submit plans), resolves the grid,
cuts the cells that neither the cache nor the result DB holds into
workload-pure shards, and runs every shard through
:func:`~repro.sim.sched.pool.run_batch` via
:func:`~repro.sim.sched.scheduler.run_shards`: inline in this process
at ``jobs == 1``, on the persistent warm worker pool otherwise.
Results merge back **in grid order**, so the output is field-for-field
identical to the serial loop in :func:`repro.sim.runner.compare`
(``tests/sim/test_parallel_parity.py`` proves it):

* shards are submitted and committed in deterministic grid order
  (workloads outer, prefetchers inner — the serial loop's order);
* workers never inherit parent state: the pool uses the ``spawn`` start
  method, and each worker rebuilds its prefetchers from config,
  re-seeding every RNG from the config's seed field;
* every result crosses the versioned codec (:mod:`repro.sim.codec`) —
  the same encoding the on-disk cache and the result DB persist — at
  every ``jobs`` level.

Trace supply: with a :class:`~repro.workloads.store.TraceStore`
configured, registry workloads resolve to a compiled binary store file
(compiled at most once, then reused by every later sweep) and shards
ship the store path plus content fingerprint.  Without one, workers
rebuild registry workloads by name, and ad-hoc programs ship their
trace by value.  At ``jobs == 1`` a shard carries whatever trace the
parent already resolved, so nothing is rebuilt.  A store file that is
corrupt, truncated, or from an older codec version degrades to an
in-process rebuild — never a crash (``TraceStoreError`` is caught at
every boundary).

Observability: ``progress`` receives one line per finished cell
(``[done/total] workload/prefetcher: …``), flagged ``cached`` for cache
hits.  Wall-clock timing is deliberately absent here — the simulator
package is wall-clock-free by lint rule DET003 — so callers that want
per-job timing inject a clock via ``progress`` closures (see
``scripts/run_full_experiments.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # runner imports this module lazily; avoid the cycle
    from repro.sim.runner import ComparisonResult
    from repro.sim.sched.db import ResultDB
    from repro.sim.sched.plan import GridPlan

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.cache import CellKeyer, SweepCache
from repro.sim.codec import decode_result
from repro.sim.metrics import SimulationResult
from repro.workloads.serialize import trace_fingerprint
from repro.workloads.store import (
    StoredTrace,
    TraceReader,
    TraceStore,
    TraceStoreError,
    read_trace,
)
from repro.workloads.suites import WorkloadSpec, get_workload
from repro.workloads.trace import MemoryAccess, TraceProgram

ProgressFn = Callable[[str], None]


@dataclass
class ExecutionDefaults:
    """Process-wide defaults the CLI/scripts set once per invocation."""

    jobs: int = 1
    cache: SweepCache | None = None
    store: TraceStore | None = None
    native: bool = False
    #: stream executed cells into a queryable result DB and reuse any
    #: cell the DB already holds (content-addressed, like the cache)
    db: "ResultDB | None" = None
    #: OpenMP team size for the kernel's in-shard batch driver
    #: (0 = the OpenMP default; serial builds ignore it, bit-identically)
    kernel_threads: int = 0


_DEFAULTS = ExecutionDefaults()


def default_execution() -> ExecutionDefaults:
    """The currently configured process-wide execution defaults."""
    return _DEFAULTS


def set_default_execution(
    *,
    jobs: int | None = None,
    cache: SweepCache | None | bool = False,
    store: TraceStore | None | bool = False,
    native: bool | None = None,
    warm: bool | None = None,
    db: "ResultDB | None | bool" = False,
    kernel_threads: int | None = None,
) -> ExecutionDefaults:
    """Set process-wide defaults; returns the previous values.

    ``cache=False`` / ``store=False`` / ``db=False`` (the sentinels)
    leave that default untouched; pass an explicit instance or ``None``
    to change it.  ``native=None`` / ``kernel_threads=None`` similarly
    leave the kernel selections untouched.
    """
    # ``warm`` is kept for existing callers; the warm pool is the only pool
    if warm is False:
        raise ValueError("warm=False: the pool-per-call dispatch was removed")
    global _DEFAULTS
    previous = _DEFAULTS
    _DEFAULTS = ExecutionDefaults(
        jobs=previous.jobs if jobs is None else max(1, jobs),
        cache=previous.cache if cache is False else cache,
        store=previous.store if store is False else store,
        native=previous.native if native is None else bool(native),
        db=previous.db if db is False else db,
        kernel_threads=(
            previous.kernel_threads
            if kernel_threads is None
            else max(0, kernel_threads)
        ),
    )
    return previous


#: (kernel handled the cell?, fallback reason when it did not); ``None``
#: stands in for cells where no kernel ran this invocation (cache hits)
NativeInfo = tuple[bool, str | None]


# -- store-degrade accounting -------------------------------------------
#
# Each process counts its own corrupt-store degrade events; run_batch
# returns the count *by value* with every batch (nothing is shared
# across the spawn boundary), and the parent drains its own counter for
# resolve-time events.  Both accessors are reachable
# from the worker entry points, so every access to the counter lives on
# one side of the boundary at a time.

_STORE_DEGRADES = [0]


def _count_store_degrade() -> None:
    _STORE_DEGRADES[0] += 1


def _drain_store_degrades() -> int:
    """Read-and-reset this process's degrade count (returned by value)."""
    count = _STORE_DEGRADES[0]
    _STORE_DEGRADES[0] = 0
    return count


def _rebuild_by_name(workload: str, limit: int | None) -> Sequence[MemoryAccess]:
    trace: Sequence[MemoryAccess] = get_workload(workload).build().trace()
    if limit is not None:
        trace = trace[:limit]
    return trace


def _load_trace(
    workload: str,
    store_path: str | None,
    store_fingerprint: str,
    limit: int | None,
    native: bool,
) -> Sequence[MemoryAccess]:
    """Load one workload's trace from the store, or rebuild by name."""
    if store_path is not None:
        try:
            if native:
                # hand the mmap-backed reader straight to the simulator:
                # the native kernel decodes it zero-copy via as_array,
                # and any interpreted fallback iterates it lazily.  A
                # fingerprint mismatch falls through to read_trace, which
                # raises the descriptive store error
                reader = TraceReader(store_path)
                if (
                    not store_fingerprint
                    or reader.meta.fingerprint == store_fingerprint
                ):
                    return reader
            return read_trace(
                store_path,
                limit=limit,
                expect_fingerprint=store_fingerprint or None,
            )
        except (TraceStoreError, FileNotFoundError, OSError):
            # the store file went bad between submit and execute;
            # degrade to a rebuild, never fail the sweep
            _count_store_degrade()
            return _rebuild_by_name(workload, limit)
    return _rebuild_by_name(workload, limit)


# -- run_batch trace memo -----------------------------------------------
#
# A shard carries every cell of (a chunk of) one workload, so the trace
# is materialised once per shard; the memo additionally lets a process
# (a pool worker, or the caller itself at jobs == 1) that runs several
# shards of the same workload (or the same workload at several limits)
# reuse the decoded records across shards.
# Keyed by content fingerprint — never by path alone — so a swapped file
# can't alias a stale trace.  Capped: traces are large and workers churn
# through workloads in affinity order, so keeping the last few is enough.

_WORKER_TRACE_MEMO: dict[
    tuple[str, str, str, int | None, bool], Sequence[MemoryAccess]
] = {}
_WORKER_TRACE_MEMO_CAP = 4


def _resolve_worker_trace(
    workload: str,
    store_path: str | None,
    store_fingerprint: str,
    limit: int | None,
    native: bool,
    shipped: Sequence[MemoryAccess] | None = None,
) -> Sequence[MemoryAccess]:
    """Memoized trace resolution for :func:`~repro.sim.sched.pool.run_batch`.

    A ``shipped`` trace wins; otherwise the store file (or, failing
    that, a registry rebuild by name) resolves once per memo key.
    """
    if shipped is not None:
        return shipped
    if store_path is not None:
        key = ("store", store_path, store_fingerprint, limit, native)
    else:
        key = ("name", workload, "", limit, native)
    trace = _WORKER_TRACE_MEMO.get(key)
    if trace is None:
        trace = _load_trace(workload, store_path, store_fingerprint, limit, native)
        while len(_WORKER_TRACE_MEMO) >= _WORKER_TRACE_MEMO_CAP:
            _WORKER_TRACE_MEMO.pop(next(iter(_WORKER_TRACE_MEMO)))
        _WORKER_TRACE_MEMO[key] = trace
    return trace


@dataclass
class _Cell:
    """Bookkeeping for one plan cell during a run."""

    index: int
    #: which of the run's plans the cell belongs to
    plan: int
    #: grid position of the workload entry: shards never mix entries
    entry: int
    workload: str
    prefetcher: str
    context_id: int
    key: str | None = None
    result: SimulationResult | None = None
    cached: bool = False
    #: satisfied from the result DB (content-addressed, like the cache)
    from_db: bool = False
    #: unset for cache hits — no kernel ran, so there is nothing to count
    native_info: NativeInfo | None = None


@dataclass
class _GridEntry:
    """One workload of the sweep, resolved to its cheapest trace supply."""

    name: str
    #: compiled store file (registry workloads with a store configured)
    stored: StoredTrace | None = None
    #: in-memory trace: ad-hoc programs, custom specs, store fallbacks —
    #: and the just-built trace when this resolve compiled the store file
    trace: Sequence[MemoryAccess] | None = None
    #: workers may rebuild this workload from the registry by name
    by_name: bool = False
    #: the originating program, for per-instance fingerprint memoization
    program: TraceProgram | None = None


#: full-trace fingerprints of *registry* workloads, memoized per process:
#: the trace is a pure function of the workload source (hashed into the
#: store address and the cache's code fingerprint), so within a process
#: the same name can never map to two different streams
_REGISTRY_FP_MEMO: dict[str, str] = {}


def _registry_fingerprint(workload: str) -> str:
    """Fingerprint a registry workload by name (builds at most once)."""
    fp = _REGISTRY_FP_MEMO.get(workload)
    if fp is None:
        fp = trace_fingerprint(get_workload(workload).build().trace())
        _REGISTRY_FP_MEMO[workload] = fp
    return fp


def _entry_fingerprint(entry: _GridEntry) -> str:
    """Content fingerprint of one workload's full trace, hashed at most
    once per trace identity (store header > per-name memo > per-program
    memo) instead of once per sweep call."""
    if entry.stored is not None:
        return entry.stored.fingerprint
    assert entry.trace is not None
    if entry.by_name:
        fp = _REGISTRY_FP_MEMO.get(entry.name)
        if fp is None:
            fp = trace_fingerprint(entry.trace)
            _REGISTRY_FP_MEMO[entry.name] = fp
        return fp
    if entry.program is not None:
        fp = getattr(entry.program, "_fingerprint_cache", None)
        if fp is None:
            fp = trace_fingerprint(entry.trace)
            entry.program._fingerprint_cache = fp  # type: ignore[attr-defined]
        return fp
    return trace_fingerprint(entry.trace)


def _resolve_grid(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    store: TraceStore | None,
) -> list[_GridEntry]:
    """One :class:`_GridEntry` per workload, in input order.

    A workload is rebuilt by name inside workers (or addressed in the
    store) only when the name resolves to the *same* registry entry the
    caller passed — a custom spec or ad-hoc program that merely shares a
    name ships its trace explicitly instead, so workers can never run
    the wrong workload.  With a store, registry workloads resolve to a
    compiled file without the parent building (or hashing) anything on
    a warm store; a failing store degrades to the in-memory path.
    """
    out: list[_GridEntry] = []
    for workload in workloads:
        spec: WorkloadSpec | None = None
        if isinstance(workload, str):
            spec = get_workload(workload)
        elif isinstance(workload, WorkloadSpec):
            spec = workload
        if spec is not None:
            by_name = False
            try:
                by_name = get_workload(spec.name) is spec
            except KeyError:
                by_name = False
            if by_name and store is not None:
                try:
                    ref, built = store.ensure(spec.name, build=spec)
                except TraceStoreError:
                    # unwritable/unreadable store: in-memory path
                    _count_store_degrade()
                else:
                    out.append(
                        _GridEntry(
                            name=spec.name,
                            stored=ref,
                            trace=built,
                            by_name=True,
                        )
                    )
                    continue
            out.append(
                _GridEntry(
                    name=spec.name, trace=spec.build().trace(), by_name=by_name
                )
            )
        else:
            assert isinstance(workload, TraceProgram)
            out.append(
                _GridEntry(
                    name=workload.name,
                    trace=workload.trace(),
                    program=workload,
                )
            )
    return out


def _shipped_trace(
    entry: _GridEntry, limit: int | None, jobs: int
) -> Sequence[MemoryAccess] | None:
    """The trace a shard carries by value, or ``None`` to resolve it.

    Inline (``jobs == 1``) shards carry whatever the parent already
    holds, so nothing is rebuilt; a warm store entry holds nothing and
    maps its file.  Pool shards ship only what workers cannot resolve
    themselves: never a store-backed or registry-by-name trace.
    """
    if jobs <= 1:
        return entry.trace
    if entry.stored is not None or (entry.by_name and limit is None):
        return None
    assert entry.trace is not None
    return tuple(entry.trace if limit is None else entry.trace[:limit])


@dataclass
class PlanRun:
    """What :func:`run_plans` delivered, plan by plan."""

    #: per plan, every cell's result in :meth:`GridPlan.cells` order
    results: list[list[SimulationResult]]
    #: per plan and cell: how the kernel handled it, ``None`` for cells
    #: the cache or the result DB served
    native_info: list[list[NativeInfo | None]]
    store_degrades: int = 0
    cache_heals: int = 0


def run_plans(
    plans: Sequence["GridPlan"],
    *,
    workloads: Sequence[WorkloadSpec | TraceProgram | str] | None = None,
    execution: ExecutionDefaults | None = None,
    progress: ProgressFn | None = None,
) -> PlanRun:
    """Run every cell of ``plans``: resolve, look up, shard, commit.

    The plans share one workload axis; each may carry its own
    prefetchers, context-config table, limit and hierarchy/core configs
    (the ablations run one plan per hierarchy variant).  ``workloads``
    supplies the objects behind that axis when they are not plain
    registry names — custom specs or ad-hoc programs, which ship their
    trace by value; otherwise the axis names resolve through the
    registry and, with a store, to compiled store files.

    ``execution`` defaults to :func:`default_execution`.  Cells the
    cache or the result DB already hold are served from there (a DB hit
    backfills the cache); every other cell runs in workload-pure shards
    through :func:`~repro.sim.sched.scheduler.run_shards` — inline at
    ``jobs == 1``, on the warm pool otherwise, each shard on the batch
    kernel when ``native`` — and commits to the cache and the DB in
    submission order.  The DB is optional: with none configured the
    results only come back to the caller.
    """
    from repro.sim.sched.plan import max_batch_cells, shard_by_workload
    from repro.sim.sched.pool import BatchShared
    from repro.sim.sched.scheduler import run_shards_sync

    ex = default_execution() if execution is None else execution
    cache, store, db = ex.cache, ex.store, ex.db
    axis = plans[0].workloads
    if any(plan.workloads != axis for plan in plans):
        raise ValueError("run_plans: every plan must share one workload axis")
    sources = list(axis if workloads is None else workloads)
    if len(sources) != len(axis):
        raise ValueError("run_plans: workloads must match the plans' axis")

    # per-call resilience accounting: discard any counts left over from
    # an earlier call, snapshot the cache/store counters to diff later
    _drain_store_degrades()
    store_degrades = 0
    cache_errors_before = cache.counters.errors if cache is not None else 0
    store_heals_before = store.heals if store is not None else 0

    grid = _resolve_grid(sources, store)
    want_key = cache is not None or db is not None
    fingerprints = [_entry_fingerprint(entry) for entry in grid] if want_key else []

    cells: list[_Cell] = []
    offsets: list[int] = []
    for plan_no, plan in enumerate(plans):
        offsets.append(len(cells))
        if want_key:
            keyer = CellKeyer(
                limit=plan.limit,
                hierarchy_config=plan.hierarchy_config,
                core_config=plan.core_config,
            )
            fragments = [keyer.context_fragment(cfg) for cfg in plan.context_configs]
        per_entry = len(plan.context_configs) * len(plan.prefetchers)
        for plan_cell in plan.cells():
            pos = plan_cell.index // per_entry
            cell = _Cell(
                index=len(cells),
                plan=plan_no,
                entry=pos,
                workload=grid[pos].name,
                prefetcher=plan_cell.prefetcher,
                context_id=plan_cell.context_id,
            )
            if want_key:
                cell.key = keyer.key(
                    workload=cell.workload,
                    trace_fp=fingerprints[pos],
                    prefetcher=cell.prefetcher,
                    context_fragment=fragments[cell.context_id],
                )
            if cache is not None and cell.key is not None:
                cell.result = cache.load(cell.key)
                cell.cached = cell.result is not None
            if cell.result is None and db is not None and cell.key is not None:
                cell.result = db.load(cell.key)
                cell.from_db = cell.result is not None
                if cell.from_db and cache is not None:
                    # backfill the JSON cache so later runs hit locally
                    cache.store(cell.key, cell.result)
            cells.append(cell)

    total = len(cells)
    done = 0

    def report(cell: _Cell) -> None:
        nonlocal done
        done += 1
        if progress is None:
            return
        assert cell.result is not None
        suffix = " [cached]" if cell.cached else " [db]" if cell.from_db else ""
        progress(f"[{done}/{total}] {cell.result.summary()}{suffix}")

    for cell in cells:
        if cell.cached or cell.from_db:
            report(cell)

    def finish(_pos: int, results: list, degrades: int) -> None:
        """Commit one shard's results, in submission order."""
        nonlocal store_degrades
        store_degrades += degrades
        rows = []
        for index, payload, native_info in results:
            cell = cells[index]
            cell.result = decode_result(payload)
            cell.native_info = native_info
            if cache is not None and cell.key is not None:
                cache.store(cell.key, cell.result)
            if cell.key is not None:
                rows.append((cell.key, index, cell.workload, cell.prefetcher, payload))
        if db is not None:
            # ad-hoc rows carry an empty sweep id: `repro serve status`
            # reports them as their own bucket
            db.store_cells("", rows)
        for index, _payload, _native_info in results:
            report(cells[index])

    # one batch header per (plan, workload entry), built on first use
    headers: dict[tuple[int, int], BatchShared] = {}

    def header(cell: _Cell) -> BatchShared:
        shared = headers.get((cell.plan, cell.entry))
        if shared is None:
            plan, entry = plans[cell.plan], grid[cell.entry]
            shared = headers[(cell.plan, cell.entry)] = BatchShared(
                workload=entry.name,
                limit=plan.limit,
                native=ex.native,
                hierarchy_config=plan.hierarchy_config,
                core_config=plan.core_config,
                context_table=plan.context_configs,
                store_path=entry.stored.path if entry.stored else None,
                store_fingerprint=entry.stored.fingerprint if entry.stored else "",
                trace=_shipped_trace(entry, plan.limit, ex.jobs),
                kernel_threads=ex.kernel_threads,
            )
        return shared

    pending = [cell for cell in cells if cell.result is None]
    shards = shard_by_workload(
        pending,
        lambda cell: (cell.plan, cell.entry),
        ex.jobs,
        max_batch=max_batch_cells(ex.native),
    )
    run_shards_sync(
        ex.jobs,
        [
            (
                header(shard[0]),
                tuple((cell.index, cell.prefetcher, cell.context_id) for cell in shard),
            )
            for shard in shards
        ],
        finish,
    )

    run = PlanRun(results=[], native_info=[])
    for plan_no, plan in enumerate(plans):
        own = cells[offsets[plan_no] : offsets[plan_no] + plan.n_cells]
        run.results.append([cell.result for cell in own])  # type: ignore[misc]
        run.native_info.append([cell.native_info for cell in own])
    # resilience roll-up: run_batch returned each shard's degrade count
    # by value; the parent's own grid-resolve events drain here, and the
    # cache/store instance counters diff against the snapshots taken on
    # entry
    store_degrades += _drain_store_degrades()
    if store is not None:
        store_degrades += store.heals - store_heals_before
    run.store_degrades = store_degrades
    if cache is not None:
        run.cache_heals = cache.counters.errors - cache_errors_before
    return run


def _workload_name(workload: WorkloadSpec | TraceProgram | str) -> str:
    return get_workload(workload).name if isinstance(workload, str) else workload.name


def parallel_compare(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    prefetchers: Iterable[str],
    *,
    hierarchy_config: HierarchyConfig | None = None,
    core_config: CoreConfig | None = None,
    context_config: ContextPrefetcherConfig | None = None,
    limit: int | None = None,
    jobs: int = 1,
    cache: SweepCache | None = None,
    store: TraceStore | None = None,
    native: bool = False,
    db: "ResultDB | None" = None,
    progress: ProgressFn | None = None,
) -> "ComparisonResult":
    """Run the sweep grid with ``jobs`` workers and an optional cache.

    Returns the same :class:`~repro.sim.runner.ComparisonResult` the
    serial path builds, with identical cell values and identical
    workload/prefetcher ordering.  ``store`` supplies registry-workload
    traces from compiled binary files (see module docstring); cache
    keys are identical with the store on or off, because the store
    header carries the same content fingerprint the cache hashes.

    The grid is one :class:`~repro.sim.sched.plan.GridPlan` run through
    :func:`run_plans`: inline at ``jobs == 1``, on the process-wide warm
    pool otherwise, so repeated sweeps share spawned interpreters,
    decoded traces and warm kernel handles.  ``db`` streams executed
    cells into a queryable :class:`~repro.sim.sched.db.ResultDB` (one
    commit per shard) and reuses any cell the DB already holds;
    ``None`` defers to the process-wide execution defaults.
    """
    from repro.sim.runner import ComparisonResult
    from repro.sim.sched.plan import GridPlan

    comparison = ComparisonResult()
    sources = list(workloads)
    prefetcher_names = tuple(prefetchers)
    if not sources or not prefetcher_names:
        return comparison
    defaults = default_execution()
    plan = GridPlan(
        workloads=tuple(_workload_name(workload) for workload in sources),
        prefetchers=prefetcher_names,
        context_configs=(context_config,),
        limit=limit,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
    )
    run = run_plans(
        [plan],
        workloads=sources,
        execution=replace(
            defaults,
            jobs=jobs,
            cache=cache,
            store=store,
            native=native,
            db=defaults.db if db is None else db,
        ),
        progress=progress,
    )
    for cell, result, native_info in zip(
        plan.cells(), run.results[0], run.native_info[0]
    ):
        comparison.results.setdefault(cell.workload, {})[cell.prefetcher] = result
        if native and native_info is not None:
            comparison.native_cells[f"{cell.workload}/{cell.prefetcher}"] = (
                native_info
            )
    comparison.store_degrades = run.store_degrades
    if cache is not None:
        comparison.cache_heals = run.cache_heals
    if progress is not None and cache is not None:
        progress(cache.counters.summary())
    if progress is not None:
        summary = comparison.native_summary()
        if summary is not None:
            progress(summary)
        resilience = comparison.resilience_summary()
        if resilience is not None:
            progress(resilience)
    return comparison


def parallel_storage_sweep(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    cst_sizes: Iterable[int],
    *,
    limit: int | None = None,
    base_config: ContextPrefetcherConfig | None = None,
    jobs: int = 1,
    cache: SweepCache | None = None,
    store: TraceStore | None = None,
    native: bool = False,
    progress: ProgressFn | None = None,
) -> dict[int, dict[str, SimulationResult]]:
    """Figure 13's (CST size × workload) grid on the parallel engine.

    Each size is one ``context`` configuration (CST rescaled, reducer at
    8×), so the cache keys config sweeps exactly like prefetcher sweeps.
    All sizes go out as one context-config table in one
    :func:`run_plans` call, so each workload is one shard (split only
    to occupy every worker) whose trace resolves once.
    """
    from repro.sim.sched.plan import GridPlan

    base = base_config or ContextPrefetcherConfig()
    sources = list(workloads)
    sizes = list(cst_sizes)
    out: dict[int, dict[str, SimulationResult]] = {size: {} for size in sizes}
    if not sources or not sizes:
        return out
    plan = GridPlan(
        workloads=tuple(_workload_name(workload) for workload in sources),
        prefetchers=("context",),
        context_configs=tuple(base.scaled(size) for size in sizes),
        limit=limit,
    )
    run = run_plans(
        [plan],
        workloads=sources,
        execution=replace(
            default_execution(), jobs=jobs, cache=cache, store=store, native=native
        ),
        progress=progress,
    )
    for cell, result in zip(plan.cells(), run.results[0]):
        out[sizes[cell.context_id]][cell.workload] = result
    return out


__all__ = [
    "ExecutionDefaults",
    "PlanRun",
    "default_execution",
    "parallel_compare",
    "parallel_storage_sweep",
    "run_plans",
    "set_default_execution",
]
