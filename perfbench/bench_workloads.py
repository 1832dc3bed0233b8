"""The four benchmark workloads: what each one runs, times and checks.

Every workload drives the program through the calls its users make:
``SweepService.submit``/``query`` for the sweep service and
``repro.experiments.ablations.run`` for the reproduction.  One client
process issues them in a closed loop (the next call starts only after
the previous one returned) against a pool of ``JOBS`` workers with
``KERNEL_THREADS`` kernel thread each.  Each timed call is one *rep*.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

JOBS = 2
KERNEL_THREADS = 1

#: the BENCH_9/10 seed-axis grid: 4 workloads x 2,500 context seeds
SHORT_WORKLOADS = ("mcf", "graph500-csr", "list", "array")
SHORT_SEEDS = 2500
SHORT_LIMIT = 200
WARM_SEED_BASE = 1_000_000_000
WARM_SEEDS = 1000
#: the docs/sweep_service.md shape at full trace length
LONG_CST_SIZES = (512, 2048)
#: ablations.run("small", ...) on one workload is ~8 s of interpreted
#: simulation; more workloads would leave too few reps per run
ABLATION_WORKLOADS = ("list",)
#: cells per run re-simulated on the interpreted oracle
ORACLE_CELLS_SHORT = 8
ORACLE_CELLS_LONG = 2


@dataclass
class Rep:
    """What one timed call delivered."""

    #: cells the call delivered (simulator runs for the ablations)
    cells: int
    #: simulated accesses those cells stand for
    accesses: int
    failed: int
    #: identical on every rep of one code and seed
    digest: str
    wall_s: float = 0.0
    #: the calibration loop's time right before the call (see measure.py)
    calibration_s: float = 0.0


class Context:
    """What every workload shares within one benchmark run."""

    def __init__(self, *, tmp: Path, trace_dir: Path) -> None:
        from repro.workloads.store import TraceStore

        self.tmp = tmp
        self.store = TraceStore(trace_dir)
        self._dbs = 0

    def fresh_db_path(self) -> Path:
        self._dbs += 1
        return self.tmp / f"sweep-{self._dbs}.db"

    def service(self, db_path: Path):
        from repro.serve import SweepService

        # no SweepCache: every cell of a fresh DB really executes
        return SweepService(
            db=db_path,
            store=self.store,
            cache=None,
            jobs=JOBS,
            native=True,
            kernel_threads=KERNEL_THREADS,
        )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def drop_db(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", ".progress.json"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def stats_digest(dump: str) -> str:
    """Digest of the simulated statistics alone, by grid position.

    Cell keys and sweep ids hash the simulator's source, so the
    ``canonical_dump()`` digest changes with any semantic edit; this one
    changes only when a simulated number does, which is what a parent
    and a change must agree on.
    """
    cells = []
    for line in dump.splitlines():
        row = json.loads(line)
        if "cell" in row:
            cells.append(
                (row["idx"], row["workload"], row["prefetcher"], row["payload"])
            )
    cells.sort(key=lambda cell: cell[0])
    return _sha(json.dumps(cells, sort_keys=True, separators=(",", ":")))


class Workload:
    name = ""
    #: registry workloads whose compiled traces the workload reads
    traces: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: printed once per run; compare across runs, codes and machines
        self.digests: dict[str, str] = {}

    def prepare(self, ctx: Context) -> None:
        """Untimed, once per run: build inputs and warm state."""

    def start(self, ctx: Context) -> None:
        """Untimed, before each rep: open what :meth:`call` needs."""

    def call(self) -> None:
        """The timed client call of one rep."""
        raise NotImplementedError

    def finish(self, ctx: Context, raised: bool) -> Rep:
        """Untimed, after each rep: check what the call delivered."""
        raise NotImplementedError

    def verify(self, ctx: Context) -> tuple[int, int]:
        """Untimed oracle check: ``(cells checked, cells mismatched)``."""
        raise NotImplementedError

    def close(self, ctx: Context) -> None:
        """Release what :meth:`prepare` and the reps left open."""


# -- sweep workloads -------------------------------------------------------


class _Grid(Workload):
    """Shared machinery for workloads that run a GridPlan through the service."""

    oracle_cells = ORACLE_CELLS_SHORT

    def plan(self):
        raise NotImplementedError

    def prepare(self, ctx: Context) -> None:
        self._plan = self.plan()
        refs = {name: ctx.store.ensure(name)[0] for name in self._plan.workloads}
        self._refs = refs
        self._keys = self._plan.cell_keys(
            {name: ref.fingerprint for name, ref in refs.items()}
        )
        limit = self._plan.limit
        self._cells = list(self._plan.cells())
        self._accesses = sum(
            refs[cell.workload].records
            if limit is None
            else min(limit, refs[cell.workload].records)
            for cell in self._cells
        )

    def _missing_cells(self, service) -> int:
        present = service.db.completed_keys(self._keys)
        return sum(1 for key in self._keys if key not in present)

    def _oracle(self, ctx: Context, db) -> tuple[int, int]:
        """Re-run a seeded sample of cells on the interpreted oracle."""
        from repro.core.prefetcher import ContextPrefetcher
        from repro.sim.config import make_prefetcher
        from repro.sim.simulator import Simulator
        from repro.workloads.store import read_trace

        plan = self._plan
        first: dict[str, int] = {}
        for index, key in enumerate(self._keys):
            first.setdefault(key, index)
        sample = random.Random(self.seed).sample(
            sorted(first.values()), min(self.oracle_cells, len(first))
        )
        mismatched = 0
        for index in sample:
            cell = self._cells[index]
            config = plan.context_configs[cell.context_id]
            if cell.prefetcher == "context" and config is not None:
                prefetcher = ContextPrefetcher(config)
            else:
                prefetcher = make_prefetcher(cell.prefetcher)
            ref = self._refs[cell.workload]
            trace = read_trace(
                ref.path, limit=plan.limit, expect_fingerprint=ref.fingerprint
            )
            expected = Simulator(
                prefetcher,
                hierarchy_config=plan.hierarchy_config,
                core_config=plan.core_config,
                native=False,
            ).run(trace, workload_name=cell.workload, limit=plan.limit)
            if db.load(self._keys[index]) != expected:
                mismatched += 1
        return len(sample), mismatched


class _FreshSubmit(_Grid):
    """Timed call: ``submit`` of the whole plan into a fresh, empty DB.

    A rep's DB lives until the next rep starts, except the first rep's,
    which lives to the end of the run: :meth:`verify` compares the first
    and the last rep's ``canonical_dump()`` instead of dumping every rep.
    """

    def warm_plan(self):
        raise NotImplementedError

    def prepare(self, ctx: Context) -> None:
        super().prepare(ctx)
        self._dbs: list[Path] = []  # the first rep's DB, then the latest
        # the pool's workers load the kernel and map the traces untimed
        warm = ctx.fresh_db_path()
        with ctx.service(warm) as service:
            service.submit(self.warm_plan())
        drop_db(warm)

    def start(self, ctx: Context) -> None:
        if len(self._dbs) == 2:
            drop_db(self._dbs.pop())
        self._dbs.append(ctx.fresh_db_path())
        self._service = ctx.service(self._dbs[-1])

    def call(self) -> None:
        self._service.submit(self._plan)

    def finish(self, ctx: Context, raised: bool) -> Rep:
        with self._service as service:
            failed = self._missing_cells(service)
        return Rep(
            cells=len(self._cells),
            accesses=self._accesses,
            failed=failed,
            digest="",
        )

    def verify(self, ctx: Context) -> tuple[int, int]:
        if not self._dbs:
            return 0, 0
        dumps = []
        for path in self._dbs:
            with ctx.service(path) as service:
                dumps.append(service.db.canonical_dump())
        self.digests["canonical_dump"] = _sha(dumps[-1])
        self.digests["stats"] = stats_digest(dumps[-1])
        with ctx.service(self._dbs[-1]) as service:
            checked, mismatched = self._oracle(ctx, service.db)
        first, last = dumps[0].splitlines(), dumps[-1].splitlines()
        mismatched += abs(len(first) - len(last)) + sum(
            a != b for a, b in zip(first, last)
        )
        return checked, mismatched

    def close(self, ctx: Context) -> None:
        for path in self._dbs:
            drop_db(path)


def _short_plan(seed_base: int, seeds: int):
    from repro.core.config import ContextPrefetcherConfig
    from repro.sim.sched.plan import GridPlan

    base = ContextPrefetcherConfig()
    return GridPlan(
        workloads=SHORT_WORKLOADS,
        prefetchers=("context",),
        context_configs=tuple(
            dataclasses.replace(base, seed=seed_base + i) for i in range(seeds)
        ),
        limit=SHORT_LIMIT,
    )


class SweepShort(_FreshSubmit):
    """Context-seed grid at limit=200: per-cell set-up dominates."""

    name = "sweep-short"
    traces = SHORT_WORKLOADS

    def plan(self):
        return _short_plan(self.seed * SHORT_SEEDS, SHORT_SEEDS)

    def warm_plan(self):
        # seeds far above every run's range, so no timed cell is
        # pre-simulated; shards as large as the timed plan's, so each
        # worker's heap reaches its high-water mark before timing
        return _short_plan(WARM_SEED_BASE + self.seed * WARM_SEEDS, WARM_SEEDS)


class SweepLong(_FreshSubmit):
    """All 36 Table 3 workloads x 6 families x 2 CST sizes, full traces."""

    name = "sweep-long"
    oracle_cells = ORACLE_CELLS_LONG

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.suites import all_workloads

        self.traces = tuple(spec.name for spec in all_workloads())

    def plan(self):
        from repro.core.config import ContextPrefetcherConfig
        from repro.serve.service import plan_from_axes
        from repro.sim.config import PREFETCHER_ORDER

        return plan_from_axes(
            workloads=list(self.traces),
            prefetchers=list(PREFETCHER_ORDER),
            cst_sizes=list(LONG_CST_SIZES),
            base_config=dataclasses.replace(
                ContextPrefetcherConfig(), seed=self.seed
            ),
        )

    def warm_plan(self):
        from repro.sim.sched.plan import GridPlan

        return GridPlan(
            workloads=self.traces, prefetchers=("none",), limit=SHORT_LIMIT
        )


class ResumeQuery(_Grid):
    """Resubmit a complete sweep-short grid, then ``query()`` every row."""

    name = "resume-query"
    traces = SHORT_WORKLOADS

    def plan(self):
        return _short_plan(self.seed * SHORT_SEEDS, SHORT_SEEDS)

    def prepare(self, ctx: Context) -> None:
        super().prepare(ctx)
        self._db = ctx.fresh_db_path()
        self._unique = len(set(self._keys))
        with ctx.service(self._db) as service:
            service.submit(self._plan)
            if self._missing_cells(service):
                raise RuntimeError("resume-query: populating the DB left cells out")
            self._dump = service.db.canonical_dump()
        self.digests["canonical_dump"] = _sha(self._dump)
        self.digests["stats"] = stats_digest(self._dump)
        self.start(ctx)  # one untimed rep warms the read path
        self.call()
        self.finish(ctx, raised=False)

    def start(self, ctx: Context) -> None:
        self._service = ctx.service(self._db)
        self._executed = 0
        self._rows = []

    def call(self) -> None:
        self._executed = self._service.submit(self._plan).executed
        self._rows = self._service.query()

    def finish(self, ctx: Context, raised: bool) -> Rep:
        self._service.close()
        rows = self._rows
        if raised:
            failed = len(self._cells)
        else:  # every cell must resume, and every row come back
            failed = self._executed + max(0, self._unique - len(rows))
        digest = _sha(
            "\n".join(
                f"{row.key}:{row.index}:{row.result.cycles}:{row.result.l2.misses}"
                for row in rows
            )
        )
        return Rep(
            cells=len(self._cells),
            accesses=self._accesses,
            failed=min(failed, len(self._cells)),
            digest=digest,
        )

    def verify(self, ctx: Context) -> tuple[int, int]:
        with ctx.service(self._db) as service:
            checked, mismatched = self._oracle(ctx, service.db)
            if service.db.canonical_dump() != self._dump:
                mismatched += 1  # resubmits must leave the DB untouched
        return checked, mismatched

    def close(self, ctx: Context) -> None:
        drop_db(self._db)


# -- the reproduction ------------------------------------------------------


class ReproAblations(Workload):
    """``ablations.run("small", ...)`` under run_full_experiments' defaults."""

    name = "repro-ablations"
    traces = ABLATION_WORKLOADS

    def prepare(self, ctx: Context) -> None:
        from repro.experiments import ablations
        from repro.experiments.sweep import SCALES
        from repro.sim.parallel import set_default_execution
        from repro.sim.runner import run_workload

        set_default_execution(
            jobs=JOBS,
            cache=None,
            store=ctx.store,
            native=True,
            warm=True,
            db=None,
            kernel_threads=KERNEL_THREADS,
        )
        self._limit = SCALES["small"]["limit"]
        self._runs_per_workload = (
            1 + len(ablations.variant_configs()) + len(ablations.hierarchy_variants())
        )
        self._accesses = sum(
            self._runs_per_workload
            * min(self._limit, ctx.store.ensure(name)[0].records)
            for name in ABLATION_WORKLOADS
        )
        run_workload(ABLATION_WORKLOADS[0], "none", limit=SHORT_LIMIT)
        self._result = None

    def start(self, ctx: Context) -> None:
        self._last = None

    def call(self) -> None:
        from repro.experiments import ablations

        self._last = ablations.run("small", ABLATION_WORKLOADS)

    def finish(self, ctx: Context, raised: bool) -> Rep:
        runs = self._runs_per_workload * len(ABLATION_WORKLOADS)
        if self._last is None:
            return Rep(runs, self._accesses, runs, "failed")
        self._result = self._last
        digest = _sha(
            json.dumps(
                {"speedups": self._last.speedups, "means": self._last.means},
                sort_keys=True,
            )
        )
        self.digests["ablations"] = digest
        return Rep(runs, self._accesses, 0, digest)

    def verify(self, ctx: Context) -> tuple[int, int]:
        """The native baseline against the oracle, and one variant re-derived."""
        from repro.core.prefetcher import ContextPrefetcher
        from repro.experiments import ablations
        from repro.sim.runner import run_workload
        from repro.sim.simulator import Simulator
        from repro.workloads.suites import get_workload

        if self._result is None:
            return 0, 0
        rng = random.Random(self.seed)
        workload = rng.choice(ABLATION_WORKLOADS)
        label = rng.choice(sorted(ablations.variant_configs()))
        native = run_workload(workload, "none", limit=self._limit, native=True)
        oracle = run_workload(workload, "none", limit=self._limit, native=False)
        trace = get_workload(workload).build().trace()
        variant = Simulator(
            ContextPrefetcher(ablations.variant_configs()[label]), native=False
        ).run(trace, workload_name=workload, limit=self._limit)
        mismatched = int(native != oracle) + int(
            variant.speedup_over(oracle) != self._result.speedups[label][workload]
        )
        return 2, mismatched


WORKLOADS = {
    cls.name: cls for cls in (SweepShort, SweepLong, ResumeQuery, ReproAblations)
}
