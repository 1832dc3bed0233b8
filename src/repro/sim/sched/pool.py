"""Persistent warm worker pool and the one shard executor, ``run_batch``.

Every sweep cell — ``parallel_compare``, ``repro serve submit``, at any
``jobs`` level — executes inside :func:`run_batch`: inline in the
calling process at ``jobs == 1``, in a pool worker otherwise.  The pool
keeps spawn-started workers alive for the whole process: each worker's
trace memo, decoded column arrays and compiled kernel handle stay
resident across every batch — and every sweep — it serves, so the
per-cell cost converges on the simulation itself.

Batch protocol (PERF004 pins the layout):

* a batch is ``(batch_id, BatchShared, cells)``: one shared header per
  batch carrying the workload, trace supply, limit, configs and the
  context-config *table*, plus per-cell tuples of exactly
  :data:`CELL_FIELDS` — ``(index, prefetcher, context_id)``.  Configs
  cross the boundary once per batch, never once per cell;
* results return as ``("done", batch_id, [(index, encoded payload,
  native_info), ...], store_degrades)`` — every result crosses through
  the versioned codec exactly as the cache does, and worker-side
  store-degrade counts ride back *by value* (each process counts its
  own events; nothing is shared across spawn);
* a worker exception answers ``("error", batch_id, traceback)`` and the
  worker survives to take the next batch.

Workers are daemonic spawn processes: they never inherit parent RNG or
cache state, and they die with the parent.  A worker killed from the
outside is detected while draining (the queue read times out and the
pool checks liveness) and surfaces as :class:`WorkerPoolError` naming
each dead worker's exit code — the result DB keeps every batch
committed before the kill, so the sweep resumes instead of recomputing.
"""

from __future__ import annotations

import atexit
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from queue import Empty
from typing import Any, Sequence

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.codec import encode_result
from repro.sim.config import PREFETCHER_FACTORIES
from repro.sim.simulator import Simulator
from repro.workloads.trace import MemoryAccess

__all__ = [
    "BatchShared",
    "CELL_FIELDS",
    "WorkerPool",
    "WorkerPoolError",
    "run_batch",
    "shared_pool",
    "shutdown_pools",
]

#: the per-cell tuple layout, pinned by analysis rule PERF004: growing
#: it (e.g. sneaking a config object back into the per-cell payload)
#: is a reviewed decision that requires editing the rule's allowlist
CELL_FIELDS = ("index", "prefetcher", "context_id")

#: seconds between liveness checks while waiting on results; purely a
#: polling interval for detecting killed workers, never a deadline
_DRAIN_POLL_S = 2.0


class WorkerPoolError(Exception):
    """A worker died or answered with a failure."""


@dataclass(frozen=True)
class BatchShared:
    """The once-per-batch header every cell of the batch shares."""

    workload: str
    limit: int | None
    native: bool
    hierarchy_config: HierarchyConfig | None = None
    core_config: CoreConfig | None = None
    #: context-config table; per-cell tuples index into it
    context_table: tuple[ContextPrefetcherConfig | None, ...] = (None,)
    #: compiled store file + content fingerprint (preferred supply)
    store_path: str | None = None
    store_fingerprint: str = ""
    #: trace supplied by value: ad-hoc workloads workers cannot rebuild,
    #: or (inline, ``jobs == 1``) the trace the parent already resolved
    trace: Sequence[MemoryAccess] | None = None
    #: OpenMP team size for the in-kernel batch (0 = the OpenMP default;
    #: ignored by serial builds, which are bit-identical anyway)
    kernel_threads: int = 0


def _make_cell_prefetcher(shared: BatchShared, prefetcher: str, context_id: int):
    config = shared.context_table[context_id]
    if prefetcher == "context" and config is not None:
        return ContextPrefetcher(config)
    return PREFETCHER_FACTORIES[prefetcher]()


def run_batch(
    shared: BatchShared, cells: Sequence[tuple[int, str, int]]
) -> tuple[list[tuple[int, dict[str, Any], tuple[bool, str | None]]], int]:
    """Execute one batch in this process; ``(results, store degrades)``.

    The trace resolves through this process's trace memo (decode once,
    reuse across batches).  A native batch crosses into C in one GIL-released
    ``rp_run_batch`` call; the per-cell interpreted loop below runs the
    whole batch when it is not native, and otherwise only the cells the
    kernel cannot represent (each degrades alone, with its own reason).
    """
    from repro.sim.parallel import _drain_store_degrades, _resolve_worker_trace

    trace = _resolve_worker_trace(
        shared.workload,
        shared.store_path,
        shared.store_fingerprint,
        shared.limit,
        shared.native,
        shared.trace,
    )
    limit = shared.limit
    prefetchers = [
        _make_cell_prefetcher(shared, prefetcher, context_id)
        for _index, prefetcher, context_id in cells
    ]
    batch_results = None
    if shared.native:
        from repro.sim.native.adapter import run_native_batch

        batch_results, _reasons, trace, limit = run_native_batch(
            prefetchers,
            trace,
            workload_name=shared.workload,
            limit=limit,
            hierarchy_config=shared.hierarchy_config,
            core_config=shared.core_config,
            threads=shared.kernel_threads,
        )
    out = []
    for pos, (index, _prefetcher, _context_id) in enumerate(cells):
        if batch_results is not None and batch_results[pos] is not None:
            out.append((index, encode_result(batch_results[pos]), (True, None)))
            continue
        sim = Simulator(
            prefetchers[pos],
            hierarchy_config=shared.hierarchy_config,
            core_config=shared.core_config,
            native=shared.native,
        )
        result = sim.run(trace, workload_name=shared.workload, limit=limit)
        out.append(
            (
                index,
                encode_result(result),
                (sim.last_run_native, sim.last_native_fallback),
            )
        )
    return out, _drain_store_degrades()


def _worker_main(task_q, result_q) -> None:  # pragma: no cover - child process
    """Worker loop: drain batches until the ``None`` sentinel arrives.

    Exceptions are answered, not fatal — the worker (and everything
    warm in it) survives a poisoned batch.
    """
    while True:
        message = task_q.get()
        if message is None:
            return
        batch_id, shared, cells = message
        try:
            results, degrades = run_batch(shared, cells)
        except BaseException as exc:  # noqa: BLE001 - answered to the parent
            result_q.put(("error", batch_id, traceback.format_exc()))
        else:
            result_q.put(("done", batch_id, results, degrades))


def _death_message(dead: list[tuple[str, int | None]]) -> str:
    """Why the pool stopped: every dead worker with its exit code."""
    names = ", ".join(f"{name} (exit code {code})" for name, code in dead)
    message = (
        f"worker(s) {names} died with work outstanding; completed batches "
        "are already committed — resubmit the sweep to resume"
    )
    if any(code == 1 for _name, code in dead):
        # spawn re-imports the parent's __main__ in every worker
        message += (
            "; exit code 1 at start-up usually means the driver script "
            'lacks an `if __name__ == "__main__":` guard'
        )
    return message


class WorkerPool:
    """A fixed set of persistent spawn workers over a pair of queues."""

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        ctx = get_context("spawn")
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                daemon=True,
                name=f"repro-sweep-{i}",
            )
            for i in range(self.jobs)
        ]
        for proc in self._procs:
            proc.start()
        self._closed = False

    def alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._procs)

    def worker_pids(self) -> list[int]:
        """The workers' PIDs (tests assert residency across dispatches)."""
        return [p.pid or 0 for p in self._procs]

    def submit(self, batch_id: int, shared: BatchShared, cells) -> None:
        """Enqueue one batch; returns immediately."""
        self._task_q.put((batch_id, shared, cells))

    def drain_one(self) -> tuple[int, list, int]:
        """Block for one finished batch: ``(batch_id, results, degrades)``.

        Raises :class:`WorkerPoolError` on a worker-reported failure or
        when a worker process died with work outstanding.
        """
        while True:
            try:
                message = self._result_q.get(timeout=_DRAIN_POLL_S)
            except Empty:
                dead = sorted(
                    (p.name, p.exitcode) for p in self._procs if not p.is_alive()
                )
                if dead:
                    raise WorkerPoolError(_death_message(dead)) from None
                continue
            if message[0] == "error":
                raise WorkerPoolError(f"batch {message[1]} failed: {message[2]}")
            return message[1], message[2], message[3]

    def close(self) -> None:
        """Shut the workers down; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        for queue in (self._task_q, self._result_q):
            queue.close()
            queue.cancel_join_thread()


# -- process-wide shared pool -------------------------------------------
#
# One pool per requested size, kept for the life of the process: this is
# what turns "a sweep spawns workers" into "sweeps share warm workers".
# Parent-side only — workers never see this registry (spawn re-imports
# the module with an empty dict), and nothing here crosses the boundary.

_POOLS: dict[int, WorkerPool] = {}


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide persistent pool with ``jobs`` workers.

    Reused across every sweep/serve call in this process; a pool whose
    workers died is replaced transparently.
    """
    jobs = max(1, jobs)
    pool = _POOLS.get(jobs)
    if pool is not None and pool.alive():
        return pool
    if pool is not None:
        pool.close()
    pool = WorkerPool(jobs)
    _POOLS[jobs] = pool
    return pool


def shutdown_pools() -> None:
    """Close every shared pool (atexit, and tests that count spawns)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


# registered at import: the pools hold daemonic children, so this is
# belt-and-braces cleanup for prompt queue teardown, not correctness
atexit.register(shutdown_pools)
