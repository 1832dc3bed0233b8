"""Span tracer and per-layer ledger for the traced benchmark run.

The tracer wraps the public entry points of each layer *from outside the
program*: it replaces a module or class attribute with a timing wrapper
and puts the original back afterwards.  Nothing under ``src/`` knows it
is being traced, so an untraced run executes exactly the shipped code.

Every wrapped call is a span.  Spans on the benchmark's main thread nest
through a stack, so a span's *self time* is its duration minus the time
its child spans cover, and the self times of all spans under one rep add
back up to the rep's wall time.  ``WorkerPool.drain_one`` runs on an
``asyncio.to_thread`` helper thread while the main thread sits blocked in
the event loop; its duration is charged to the main thread's open span as
child time, which keeps that partition exact.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable

Hook = Callable[[tuple, dict, Any], None]


class Tracer:
    """Self time, inclusive time and counters per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        #: ``(shared, cells)`` of every batch submitted to the pool
        self.batches: list[tuple[Any, tuple]] = []
        #: cell index -> encoded payload, as the pool returned it
        self.payloads: dict[int, dict] = {}
        #: pool dispatch wall time of the last rep (the one replayed)
        self.last_rep_dispatch_s = 0.0
        #: spans record only inside a rep's timed call
        self.armed = False
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._main = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    def begin_rep(self) -> None:
        """Arm the spans for one timed call; keep only its batches."""
        self.batches.clear()
        self.payloads.clear()
        self._dispatch_mark = self.total_s["sched.dispatch"]
        self.armed = True

    def end_rep(self) -> None:
        self.armed = False
        self.last_rep_dispatch_s = self.total_s["sched.dispatch"] - self._dispatch_mark

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def _close(self, name: str, frame: list | None, seconds: float) -> None:
        child_s = 0.0
        if frame is not None:
            self._stack.pop()
            child_s = frame[1]
        self.total_s[name] += seconds
        self.self_s[name] += seconds - child_s
        if self._stack:
            self._stack[-1][1] += seconds

    def _timed(self, name: str, fn, hook: Hook | None):
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.armed:
                    return await fn(*args, **kwargs)
                frame = [name, 0.0]
                tracer._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(name, frame, time.perf_counter() - t0)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            # a helper thread the main thread is blocked on opens no frame;
            # its time is charged to the main thread's open span
            frame = None
            if threading.get_ident() == tracer._main:
                frame = [name, 0.0]
                tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, time.perf_counter() - t0)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            patched: Any = staticmethod(self._timed(name, raw.__func__, hook))
        else:
            patched = self._timed(name, raw, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _interpreted_accesses(tracer: Tracer) -> Hook:
    """Counts the accesses of ``Simulator.run`` calls the kernel did not take."""

    def hook(args, kwargs, result) -> None:
        if not args[0].last_run_native:
            tracer.count("simulator.accesses", result.l1.accesses)

    return hook


def install_parent_spans(tracer: Tracer) -> None:
    """Spans at every layer boundary the benchmark process crosses."""
    from repro.experiments import ablations
    from repro.serve import progress, service
    from repro.sim import native as native_pkg
    from repro.sim.sched import db, plan, pool, scheduler
    from repro.sim.simulator import Simulator
    from repro.workloads import trace as trace_mod
    from repro.workloads.store import TraceStore

    def on_keys(args, kwargs, keys) -> None:
        tracer.count("plan.cells", len(keys))
        tracer.count("plan.duplicate_cells", len(keys) - len(set(keys)))

    def on_completed(args, kwargs, _present) -> None:
        tracer.count("db.keys_checked", len(args[1]))

    def on_store(args, kwargs, _inserted) -> None:
        tracer.count("db.cells_stored", len(args[2]))

    def on_query(args, kwargs, rows) -> None:
        tracer.count("db.rows_queried", len(rows))

    def on_submit(args, kwargs, _result) -> None:
        cells = args[3]
        tracer.count("sched.batches", 1)
        tracer.count("sched.cells_dispatched", len(cells))
        tracer.batches.append((args[2], cells))

    def on_drain(args, kwargs, message) -> None:
        for index, payload, _native_info in message[1]:
            tracer.payloads[index] = payload

    tracer.wrap(service.SweepService, "submit", "serve.submit")
    tracer.wrap(service.SweepService, "query", "serve.query")
    tracer.wrap(progress.ProgressTracker, "on_cells", "serve.progress")
    tracer.wrap(scheduler.SweepScheduler, "run_plan_sync", "sched.run_plan")
    tracer.wrap(scheduler.SweepScheduler, "_batch_message", "sched.batch_message")
    tracer.wrap(scheduler, "dispatch", "sched.dispatch")
    tracer.wrap(scheduler, "shard_by_workload", "plan.shard")
    tracer.wrap(scheduler, "shared_pool", "pool.shared_pool")
    tracer.wrap(plan.GridPlan, "cell_keys", "plan.cell_keys", on_keys)
    tracer.wrap(plan.GridPlan, "spec", "plan.spec")
    tracer.wrap(plan.GridPlan, "sweep_id", "plan.sweep_id")
    tracer.wrap(TraceStore, "ensure", "store.ensure")
    tracer.wrap(db.ResultDB, "ensure_sweep", "db.ensure_sweep")
    tracer.wrap(db.ResultDB, "completed_keys", "db.completed_keys", on_completed)
    tracer.wrap(db.ResultDB, "store_cells", "db.store_cells", on_store)
    tracer.wrap(db.ResultDB, "query", "db.query", on_query)
    tracer.wrap(db, "decode_result", "codec.decode")
    tracer.wrap(pool.WorkerPool, "submit", "pool.submit", on_submit)
    tracer.wrap(pool.WorkerPool, "drain_one", "pool.drain_wait", on_drain)
    tracer.wrap(ablations, "run", "experiments.ablations")
    tracer.wrap(trace_mod.TraceProgram, "trace", "workloads.build")
    tracer.wrap(Simulator, "run", "simulator.run", _interpreted_accesses(tracer))
    tracer.wrap(native_pkg, "try_native_run", "native.single")


def install_worker_spans(tracer: Tracer) -> None:
    """Spans inside ``run_batch``, for the in-process replay of pool batches."""
    from repro.sim.native import adapter
    from repro.sim.sched import pool
    from repro.sim.simulator import Simulator

    def on_run_batch(args, kwargs, result) -> None:
        out, degrades = result
        tracer.count("store.degrades", degrades)
        for _index, _payload, (native, _reason) in out:
            tracer.count("native.cells", 1)
            if not native:
                tracer.count("native.fallback_cells", 1)

    def on_batch_kernel(args, kwargs, _result) -> None:
        tracer.count("native.kernel_accesses", args[3].n * len(args[1]))

    tracer.wrap(pool, "run_batch", "pool.run_batch", on_run_batch)
    tracer.wrap(pool, "_make_cell_prefetcher", "pool.prefetcher_build")
    tracer.wrap(pool, "encode_result", "codec.encode")
    tracer.wrap(adapter, "run_native_batch", "native.marshal_init")
    tracer.wrap(adapter, "phase_decode", "native.decode")
    tracer.wrap(adapter, "phase_batch_kernel", "native.kernel_loop", on_batch_kernel)
    tracer.wrap(adapter, "phase_finalize", "native.finalize")
    tracer.wrap(Simulator, "run", "simulator.run", _interpreted_accesses(tracer))


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_ledger(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer (the prefix of each span name)."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


def per_layer_metrics(
    parent: Tracer,
    replay: Tracer,
    *,
    reps: int,
    traced_wall_s: float,
    untraced_median_s: float,
    traced_median_s: float,
    replay_s: float,
    replay_dispatch_s: float,
    jobs: int,
    probes: list[dict[str, float]],
    compile_s: float,
    busy_retries: int,
    store_heals: int,
) -> dict[str, float]:
    """Every per-layer metric, from the traced reps, the replay and the probes.

    ``parent`` holds the traced reps (``reps`` of them, ``traced_wall_s``
    in total); ``replay`` holds the in-process replay of the last traced
    rep's pool batches, which took ``replay_s`` and whose pool dispatch
    took ``replay_dispatch_s`` of wall time in that rep.
    """
    p_self, p_total, p_count = parent.self_s, parent.total_s, parent.counters
    r_self, r_total, r_count = replay.self_s, replay.total_s, replay.counters

    def probe(key: str) -> float:
        return statistics.median(p[key] for p in probes) if probes else 0.0

    dispatched = p_count["sched.cells_dispatched"]
    replay_cells = r_count["native.cells"]
    kernel_cells = replay_cells - r_count["native.fallback_cells"]
    rows = p_count["db.rows_queried"]
    # interpreted runs: the client's own (ablations) plus fallback cells
    # of the replayed rep, which stand for one rep's worth
    sim_self = p_self["simulator.run"] + r_self["simulator.run"]
    sim_accesses = p_count["simulator.accesses"] + r_count["simulator.accesses"]
    accounted = sum(p_self.values())
    return {
        "setup.import_s": probe("import_s"),
        "store.ensure_ms": probe("store_ensure_ms"),
        "store.compile_s": compile_s,
        "store.degrades": float(r_count["store.degrades"] + store_heals),
        "workloads.build_s": _per(p_self["workloads.build"], reps),
        "plan.cell_keys_us_per_cell": _per(
            p_self["plan.cell_keys"], p_count["plan.cells"], 1e6
        ),
        "plan.spec_ms": _per(p_self["plan.spec"], reps, 1e3),
        "plan.duplicate_cell_frac": (
            _per(p_count["plan.duplicate_cells"], p_count["plan.cells"])
            if dispatched
            else 0.0
        ),
        "sched.self_ms": _per(
            p_self["sched.run_plan"] + p_self["sched.dispatch"], reps, 1e3
        ),
        "sched.batches": _per(p_count["sched.batches"], reps),
        "sched.cells_per_batch": _per(dispatched, p_count["sched.batches"]),
        "sched.batch_message_us_per_cell": _per(
            p_self["sched.batch_message"], dispatched, 1e6
        ),
        "pool.spawn_s": probe("pool_spawn_s"),
        "pool.submit_us_per_cell": _per(p_self["pool.submit"], dispatched, 1e6),
        "pool.drain_wait_s": _per(p_total["pool.drain_wait"], reps),
        "pool.run_batch_us_per_cell": _per(
            r_total["pool.run_batch"], replay_cells, 1e6
        ),
        "pool.prefetcher_build_us_per_cell": _per(
            r_self["pool.prefetcher_build"], replay_cells, 1e6
        ),
        "pool.ipc_us_per_cell": _per(
            jobs * replay_dispatch_s - replay_s, replay_cells, 1e6
        ),
        "native.load_s": probe("native_load_s"),
        "native.decode_ms": r_total["native.decode"] * 1e3,
        "native.marshal_init_us_per_cell": _per(
            r_self["native.marshal_init"], kernel_cells, 1e6
        ),
        "native.kernel_loop_us_per_cell": _per(
            r_total["native.kernel_loop"], kernel_cells, 1e6
        ),
        "native.kernel_accesses_per_s": _per(
            r_count["native.kernel_accesses"], r_total["native.kernel_loop"]
        ),
        "native.finalize_us_per_cell": _per(
            r_self["native.finalize"], kernel_cells, 1e6
        ),
        "native.cells": float(replay_cells),
        "native.fallback_cells": float(r_count["native.fallback_cells"]),
        "native.native_frac": _per(kernel_cells, replay_cells),
        "native.single_run_s": _per(p_total["native.single"], reps),
        "codec.encode_us_per_cell": _per(r_self["codec.encode"], replay_cells, 1e6),
        "codec.decode_us_per_row": _per(p_self["codec.decode"], rows, 1e6),
        "db.open_ms": probe("db_open_ms"),
        "db.store_cells_us_per_cell": _per(
            p_self["db.store_cells"], p_count["db.cells_stored"], 1e6
        ),
        "db.completed_keys_us_per_key": _per(
            p_self["db.completed_keys"], p_count["db.keys_checked"], 1e6
        ),
        "db.query_us_per_row": _per(p_self["db.query"], rows, 1e6),
        "db.busy_retries": float(busy_retries),
        "simulator.run_s": (
            _per(p_self["simulator.run"], reps) + r_self["simulator.run"]
        ),
        "simulator.accesses_per_s": _per(sim_accesses, sim_self),
        "experiments.ablations_self_s": _per(
            p_self["experiments.ablations"], reps
        ),
        "serve.submit_self_ms": _per(
            p_self["serve.submit"] + p_self["serve.progress"], reps, 1e3
        ),
        "trace.overhead_frac": _per(traced_median_s, untraced_median_s) - 1.0,
        "trace.unaccounted_frac": _per(traced_wall_s - accounted, traced_wall_s),
    }


#: unit of each per-layer metric, keyed by name
UNITS = {
    "setup.import_s": "s",
    "store.ensure_ms": "ms",
    "store.compile_s": "s",
    "store.degrades": "count",
    "workloads.build_s": "s",
    "plan.cell_keys_us_per_cell": "us",
    "plan.spec_ms": "ms",
    "plan.duplicate_cell_frac": "fraction",
    "sched.self_ms": "ms",
    "sched.batches": "count",
    "sched.cells_per_batch": "count",
    "sched.batch_message_us_per_cell": "us",
    "pool.spawn_s": "s",
    "pool.submit_us_per_cell": "us",
    "pool.drain_wait_s": "s",
    "pool.run_batch_us_per_cell": "us",
    "pool.prefetcher_build_us_per_cell": "us",
    "pool.ipc_us_per_cell": "us",
    "native.load_s": "s",
    "native.decode_ms": "ms",
    "native.marshal_init_us_per_cell": "us",
    "native.kernel_loop_us_per_cell": "us",
    "native.kernel_accesses_per_s": "1/s",
    "native.finalize_us_per_cell": "us",
    "native.cells": "count",
    "native.fallback_cells": "count",
    "native.native_frac": "fraction",
    "native.single_run_s": "s",
    "codec.encode_us_per_cell": "us",
    "codec.decode_us_per_row": "us",
    "db.open_ms": "ms",
    "db.store_cells_us_per_cell": "us",
    "db.completed_keys_us_per_key": "us",
    "db.query_us_per_row": "us",
    "db.busy_retries": "count",
    "simulator.run_s": "s",
    "simulator.accesses_per_s": "1/s",
    "experiments.ablations_self_s": "s",
    "serve.submit_self_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_frac": "fraction",
}
