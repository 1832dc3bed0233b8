"""Sweep scheduler: persistent warm workers over a queryable result DB.

The package splits the high-throughput sweep path into four small
layers, each testable on its own:

* :mod:`repro.sim.sched.plan` — a declarative :class:`GridPlan`
  (workload × context-config × prefetcher axes) enumerated in
  deterministic grid order, content-addressed per cell with the result
  cache's :func:`~repro.sim.cache.cell_key`, and sharded into
  workload-affinity batches;
* :mod:`repro.sim.sched.pool` — ``run_batch``, the one executor every
  sweep shard runs through, and the persistent spawn-based worker pool
  that runs it: workers stay alive across batches and sweeps, keeping
  mmap'd trace readers, decoded column arrays and the compiled native
  kernel handle resident, so decode/build cost is paid once per worker
  rather than once per cell;
* :mod:`repro.sim.sched.db` — the SQLite result store under
  ``results/``: one row per content-addressed cell over the versioned
  codec, committed per batch, with a canonical logical dump so two DBs
  can be compared bit-for-bit regardless of page layout;
* :mod:`repro.sim.sched.scheduler` — ``run_shards`` (inline at
  ``jobs == 1``, the asyncio submit/drain loop over the pool otherwise)
  and the resume logic: a restarted sweep diffs its plan's keys against
  the DB and re-enqueues only the remainder.

``repro serve`` (:mod:`repro.serve`) is the user-facing client;
:func:`repro.sim.parallel.parallel_compare` runs its grids through the
same ``run_shards``, so ``repro sweep``/``figure`` and
``scripts/run_full_experiments.py`` share the warm workers for free.
"""

from repro.sim.sched.db import DEFAULT_DB_PATH, ResultDB, ResultDBError
from repro.sim.sched.plan import GridPlan, PlanCell, shard_by_workload
from repro.sim.sched.pool import BatchShared, WorkerPool, shared_pool, shutdown_pools
from repro.sim.sched.scheduler import SchedulerError, SweepScheduler, SweepStats

__all__ = [
    "BatchShared",
    "DEFAULT_DB_PATH",
    "GridPlan",
    "PlanCell",
    "ResultDB",
    "ResultDBError",
    "SchedulerError",
    "SweepScheduler",
    "SweepStats",
    "WorkerPool",
    "shard_by_workload",
    "shared_pool",
    "shutdown_pools",
]
