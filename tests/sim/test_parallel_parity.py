"""Determinism-parity suite for the parallel sweep engine.

PR 1 made bit-reproducibility a machine-enforced invariant; this suite
extends it across process boundaries: fanning the sweep grid out over
worker processes, or replaying cells from the on-disk cache, must change
nothing but wall-clock time.  Every comparison here is field-for-field
over the full :class:`SimulationResult` — counters, classifier
breakdown, hit-depth histogram, accuracy EMA — not just headline IPC.
"""

import dataclasses
import multiprocessing

import pytest

from repro.sim.cache import SweepCache
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import set_default_execution
from repro.sim.runner import compare, storage_sweep
from repro.sim.sched.db import ResultDB
from repro.sim.sched.pool import shutdown_pools
from repro.workloads.linked_list import ListTraversalProgram
from repro.workloads.store import TraceStore

#: a representative subset: regular (array), pointer-chasing (list),
#: and the RL context prefetcher whose ε-greedy loop is the hardest
#: determinism test — kept small enough for CI
WORKLOADS = ("list", "array")
PREFETCHERS = ("none", "ghb-pcdc", "context")
LIMIT = 2500


@pytest.fixture(scope="module")
def serial_sweep():
    return compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=False)


def assert_identical(a: SimulationResult, b: SimulationResult, where: str) -> None:
    """Field-for-field equality with a per-field failure message."""
    for field in dataclasses.fields(SimulationResult):
        assert getattr(a, field.name) == getattr(b, field.name), (
            f"{where}: field {field.name!r} differs"
        )
    assert a == b, where  # belt and braces: dataclass equality too


def assert_sweeps_identical(a, b) -> None:
    assert a.workloads() == b.workloads()
    assert a.prefetchers() == b.prefetchers()
    for wl in a.workloads():
        for pf in a.prefetchers():
            assert_identical(a.get(wl, pf), b.get(wl, pf), f"{wl}/{pf}")


class TestParallelParity:
    def test_jobs4_identical_to_serial(self, serial_sweep):
        parallel = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=False)
        assert_sweeps_identical(serial_sweep, parallel)

    def test_grid_order_preserved(self, serial_sweep):
        parallel = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=False)
        # dict insertion order is the figures' plotting order; the merge
        # must restore grid order no matter which worker finished first
        assert list(parallel.results) == list(serial_sweep.results)
        for wl in parallel.workloads():
            assert list(parallel.results[wl]) == list(serial_sweep.results[wl])

    def test_adhoc_trace_program(self):
        # ad-hoc programs can't be rebuilt by name in workers; their
        # traces ship by value and must produce the same results
        make = lambda: ListTraversalProgram(num_nodes=256, iterations=4)
        serial = compare([make()], ("none", "context"), jobs=1, cache=False)
        parallel = compare([make()], ("none", "context"), jobs=3, cache=False)
        assert_sweeps_identical(serial, parallel)

    def test_progress_reports_every_cell(self, serial_sweep):
        lines = []
        compare(
            WORKLOADS,
            PREFETCHERS,
            limit=LIMIT,
            jobs=2,
            cache=False,
            progress=lines.append,
        )
        assert len(lines) == len(WORKLOADS) * len(PREFETCHERS)
        assert lines[0].startswith("[1/6] ")
        assert lines[-1].startswith("[6/6] ")


class TestCacheParity:
    def test_warm_run_identical_to_cold(self, serial_sweep, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cold = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=cache)
        assert cache.counters.hits == 0
        assert cache.counters.stores == len(WORKLOADS) * len(PREFETCHERS)

        warm = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=cache)
        assert cache.counters.hits == len(WORKLOADS) * len(PREFETCHERS)

        assert_sweeps_identical(cold, warm)
        assert_sweeps_identical(serial_sweep, cold)

    def test_parallel_with_cache_matches_serial(self, serial_sweep, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cold = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=cache)
        warm = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=cache)
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_storage_sweep_parity(self, tmp_path):
        sizes = (512, 1024)
        serial = storage_sweep(["list"], sizes, limit=1500)
        parallel = storage_sweep(
            ["list"], sizes, limit=1500, jobs=2, cache=tmp_path / "cache"
        )
        warm = storage_sweep(
            ["list"], sizes, limit=1500, jobs=1, cache=tmp_path / "cache"
        )
        for size in sizes:
            assert_identical(
                serial[size]["list"], parallel[size]["list"], f"cst={size}"
            )
            assert_identical(serial[size]["list"], warm[size]["list"], f"cst={size}")


class TestTraceStoreParity:
    """The mmap trace store must change wall-clock time, nothing else.

    Cells fed from store files — compiled cold this run, or mapped warm
    from a previous one — must be bit-identical to cells fed from
    freshly built traces, inline and across worker processes.
    """

    def test_store_cold_then_warm_identical_to_serial(
        self, serial_sweep, tmp_path
    ):
        store = TraceStore(tmp_path / "traces")
        cold = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=False, store=store
        )
        warm = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=False, store=store
        )
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_jobs4_store_identical_to_serial(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        dispatched = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=False, store=store
        )
        assert_sweeps_identical(serial_sweep, dispatched)
        # and again with every trace served from the warm store files
        warm = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, cache=False, store=store
        )
        assert_sweeps_identical(serial_sweep, warm)

    def test_corrupt_store_degrades_to_rebuild(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        clean = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=False, store=store
        )
        assert clean.resilience_summary() is None
        for path in store.root.glob("*.rpt"):
            path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        healed = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=2, cache=False, store=store
        )
        assert_sweeps_identical(serial_sweep, healed)
        # the recoveries surface in the sweep summary, not only the log
        assert healed.store_degrades > 0
        summary = healed.resilience_summary()
        assert summary is not None and "store degrade" in summary

    def test_adhoc_programs_bypass_the_store(self, tmp_path):
        # ad-hoc programs aren't registry-addressable; with a store set
        # they still ship by value and stay bit-identical
        store = TraceStore(tmp_path / "traces")
        make = lambda: ListTraversalProgram(num_nodes=256, iterations=4)
        serial = compare([make()], ("none", "context"), jobs=1, cache=False)
        stored = compare(
            [make()], ("none", "context"), jobs=3, cache=False, store=store
        )
        assert_sweeps_identical(serial, stored)

    def test_store_with_cache_matches_serial(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        cache = SweepCache(tmp_path / "cache")
        cold = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=2, cache=cache, store=store
        )
        warm = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=2, cache=cache, store=store
        )
        assert cache.counters.hits == len(WORKLOADS) * len(PREFETCHERS)
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_storage_sweep_store_parity(self, tmp_path):
        sizes = (512, 1024)
        store = TraceStore(tmp_path / "traces")
        serial = storage_sweep(["list"], sizes, limit=1500)
        stored = storage_sweep(
            ["list"], sizes, limit=1500, jobs=2, cache=False, store=store
        )
        for size in sizes:
            assert_identical(
                serial[size]["list"], stored[size]["list"], f"cst={size}"
            )


class TestOneDispatchPath:
    """Every ``jobs`` level runs the same shards through ``run_batch``
    and commits them through the same path."""

    def _dump_after(self, tmp_path, jobs: int) -> str:
        db = ResultDB(tmp_path / f"jobs{jobs}.sqlite")
        previous = set_default_execution(db=db)
        try:
            compare(WORKLOADS, ("none", "stride"), limit=300, jobs=jobs, cache=False)
        finally:
            set_default_execution(db=previous.db)
        return db.canonical_dump()

    def test_jobs1_commits_the_same_db_rows_as_jobs2(self, tmp_path):
        inline = self._dump_after(tmp_path, 1)
        pooled = self._dump_after(tmp_path, 2)
        assert inline == pooled
        rows = [line for line in inline.splitlines() if '"cell"' in line]
        assert len(rows) == len(WORKLOADS) * 2  # one row per cell

    def test_jobs1_spawns_nothing(self, serial_sweep, tmp_path):
        shutdown_pools()
        store = TraceStore(tmp_path / "traces")
        inline = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=False, store=store
        )
        assert multiprocessing.active_children() == []
        assert_sweeps_identical(serial_sweep, inline)
