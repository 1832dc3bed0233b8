"""Sweep-service suite: the client API and the ``repro serve`` CLI.

The service is a thin composition layer, so the tests exercise the
seams: a submit→status→query round-trip through :class:`SweepService`,
the same round-trip through the CLI (the smoke job in CI runs this
path for real), and the axis-expansion helper the CLI builds plans
with.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.serve.service import SweepService, plan_from_axes
from repro.sim.codec import encode_result
from repro.sim.runner import compare
from repro.workloads.store import TraceStore

WORKLOADS = ["list", "array"]
PREFETCHERS = ["none", "context"]
LIMIT = 1200


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    for name in WORKLOADS:
        store.compile(name)
    return store


class TestPlanFromAxes:
    def test_default_single_config_slice(self):
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=7
        )
        assert plan.context_configs == (None,)
        assert plan.n_cells == 4
        assert plan.limit == 7

    def test_cst_axis_scales_reducer(self):
        plan = plan_from_axes(
            workloads=["list"], prefetchers=["context"], cst_sizes=[128, 512]
        )
        assert [c.cst_entries for c in plan.context_configs] == [128, 512]
        assert [c.reducer_entries for c in plan.context_configs] == [
            1024, 4096,
        ]
        assert plan.n_cells == 2


class TestSweepService:
    def test_submit_status_query_round_trip(self, tmp_path, store):
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT
        )
        with SweepService(
            db=tmp_path / "sweep.db", store=store, jobs=2
        ) as service:
            stats = service.submit(plan)
            assert (stats.executed, stats.resumed) == (4, 0)

            status = service.status()
            assert [(s.sweep, s.done, s.total) for s in status] == [
                (stats.sweep, 4, 4)
            ]

            cells = service.query(workload="list")
            assert [(c.workload, c.prefetcher) for c in cells] == [
                ("list", "none"), ("list", "context"),
            ]
            serial = compare(
                WORKLOADS, PREFETCHERS, limit=LIMIT,
                jobs=1, cache=False, store=False,
            )
            for cell in service.query():
                want = serial.get(cell.workload, cell.prefetcher)
                assert encode_result(cell.result) == encode_result(want)

            # resubmitting is a no-op on the grid
            assert service.submit(plan).executed == 0

    def test_jobs1_submit_runs_inline(self, tmp_path, store):
        from repro.sim.sched.pool import shutdown_pools

        shutdown_pools()
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT
        )
        with SweepService(db=tmp_path / "inline.db", store=store, jobs=1) as service:
            assert service.submit(plan).executed == 4
        assert multiprocessing.active_children() == []


class TestServeCLI:
    def test_submit_status_query(self, tmp_path, store, capsys):
        db = str(tmp_path / "sweep.db")
        base = [
            "serve", "submit",
            "--workloads", ",".join(WORKLOADS),
            "--prefetchers", ",".join(PREFETCHERS),
            "--limit", str(LIMIT),
            "--jobs", "2",
            "--db", db,
            "--store-dir", str(store.root),
            "--no-cache",
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "4 cells, 4 executed, 0 resumed" in out

        # a second submit resumes everything
        assert main(base) == 0
        assert "0 executed, 4 resumed" in capsys.readouterr().out

        assert main(["serve", "status", "--db", db]) == 0
        assert "4     4" in capsys.readouterr().out

        assert main(
            ["serve", "query", "--db", db, "--workload", "array"]
        ) == 0
        out = capsys.readouterr().out
        assert "array/none" in out and "2 cell(s)" in out

        assert main(
            [
                "serve", "query", "--db", db,
                "--prefetcher", "context", "--format", "json",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["workload"] for r in rows] == WORKLOADS
        assert all(r["result"]["prefetcher"] == "context" for r in rows)
