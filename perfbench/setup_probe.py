"""One set-up of the sweep stack in a fresh interpreter, timed by component.

Usage: python3 perfbench/setup_probe.py SRC_DIR TRACE_DIR DB_DIR WORKLOAD[,WORKLOAD...]

Run from the benchmark's work directory (the kernel build cache resolves
relative to it).  Times, from the first line of this script to "ready to
dispatch": the package imports, the compiled-kernel load from a warm
build cache, the trace-store header reads for the named workloads, the
worker-pool spawn up to a round trip through every worker, and a fresh
result-DB open.  Prints one JSON object; the pool is shut down and
joined before exit, outside the timed region.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from bench_workloads import JOBS, KERNEL_THREADS  # noqa: E402


def warm_pool(pool, workload: str, ref) -> None:
    """Send every worker an empty batch and wait for the answers.

    Answering one makes a worker import the package, load the kernel and
    map the trace ``ref``, which is what "ready" means for it.
    """
    from repro.sim.sched.pool import BatchShared

    shared = BatchShared(
        workload=workload,
        limit=None,
        native=True,
        store_path=ref.path,
        store_fingerprint=ref.fingerprint,
        kernel_threads=KERNEL_THREADS,
    )
    for batch_id in range(JOBS):
        pool.submit(batch_id, shared, ())
    for _ in range(JOBS):
        pool.drain_one()


def main(argv: list[str]) -> int:
    src, trace_dir, db_dir, names = argv[1], argv[2], argv[3], argv[4].split(",")
    sys.path.insert(0, src)

    import repro.experiments.ablations  # noqa: F401  (the reproduction's entry)
    import repro.serve  # noqa: F401  (the sweep service's entry)
    from repro.sim.native.build import kernel_or_none
    from repro.sim.sched.db import ResultDB
    from repro.sim.sched.pool import shared_pool, shutdown_pools
    from repro.workloads.store import TraceStore

    t_import = time.perf_counter()
    if kernel_or_none() is None:
        print("setup probe: compiled kernel unavailable", file=sys.stderr)
        return 1
    t_kernel = time.perf_counter()
    store = TraceStore(trace_dir)
    refs = [store.ensure(name)[0] for name in names]
    t_store = time.perf_counter()
    warm_pool(shared_pool(JOBS), names[0], refs[0])
    t_pool = time.perf_counter()
    ResultDB(f"{db_dir}/probe-{os.getpid()}.db").close()
    t_db = time.perf_counter()
    shutdown_pools()
    print(
        json.dumps(
            {
                "setup_s": t_db - T_START,
                "import_s": t_import - T_START,
                "native_load_s": t_kernel - t_import,
                "store_ensure_ms": (t_store - t_kernel) * 1e3,
                "pool_spawn_s": t_pool - t_store,
                "db_open_ms": (t_db - t_pool) * 1e3,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
