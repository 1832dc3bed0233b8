"""The plan-runner experiments equal their direct-``Simulator`` originals.

``ablations.run`` and ``sensitivity.run`` submit their grids as
:class:`~repro.sim.sched.plan.GridPlan` objects to
:func:`~repro.sim.parallel.run_plans`.  Whatever the execution defaults
— the batch kernel on a two-worker pool fed by a trace store, or the
interpreted oracle inline — each result must equal, field for field,
both the other mode's and the one the experiment computed before it
moved onto the sweep stack: one fresh ``Simulator(ContextPrefetcher(cfg),
native=False)`` per cell over a trace built in-process.
"""

from __future__ import annotations

import pytest

from repro.core.prefetcher import ContextPrefetcher
from repro.experiments import ablations, sensitivity
from repro.experiments.ablations import AblationResult
from repro.experiments.sensitivity import SensitivityResult
from repro.experiments.sweep import SCALES
from repro.prefetchers.nopf import NoPrefetcher
from repro.sim.metrics import geomean
from repro.sim.parallel import set_default_execution
from repro.sim.simulator import Simulator
from repro.workloads.store import TraceStore
from repro.workloads.suites import get_workload

WORKLOADS = ("array",)


@pytest.fixture
def execution():
    """Sets the process-wide execution defaults, restoring them after."""
    saved = set_default_execution()

    def use(**kwargs) -> None:
        set_default_execution(**kwargs)

    yield use
    set_default_execution(
        jobs=saved.jobs,
        cache=saved.cache,
        store=saved.store,
        native=saved.native,
        db=saved.db,
        kernel_threads=saved.kernel_threads,
    )


def _interpreted(workload: str, limit: int | None, prefetcher, **kwargs):
    trace = get_workload(workload).build().trace()
    sim = Simulator(prefetcher, native=False, **kwargs)
    return sim.run(trace, workload_name=workload, limit=limit)


def _direct_ablations() -> AblationResult:
    limit = SCALES["small"]["limit"]
    baselines = {w: _interpreted(w, limit, NoPrefetcher()) for w in WORKLOADS}
    speedups = {
        label: {
            w: _interpreted(w, limit, ContextPrefetcher(config)).speedup_over(
                baselines[w]
            )
            for w in WORKLOADS
        }
        for label, config in ablations.variant_configs().items()
    }
    for label, hierarchy in ablations.hierarchy_variants().items():
        speedups[label] = {
            w: _interpreted(
                w, limit, ContextPrefetcher(), hierarchy_config=hierarchy
            ).speedup_over(baselines[w])
            for w in WORKLOADS
        }
    means = {label: geomean(list(per.values())) for label, per in speedups.items()}
    return AblationResult(speedups=speedups, means=means)


def _direct_sensitivity() -> SensitivityResult:
    limit = SCALES["small"]["limit"]
    baselines = {w: _interpreted(w, limit, NoPrefetcher()) for w in WORKLOADS}
    grid = {
        knob: {
            label: geomean(
                [
                    _interpreted(w, limit, ContextPrefetcher(config)).speedup_over(
                        baselines[w]
                    )
                    for w in WORKLOADS
                ]
            )
            for label, config in settings.items()
        }
        for knob, settings in sensitivity.parameter_grid().items()
    }
    return SensitivityResult(grid=grid, workloads=WORKLOADS)


@pytest.mark.parametrize(
    "module, direct",
    [(ablations, _direct_ablations), (sensitivity, _direct_sensitivity)],
    ids=["ablations", "sensitivity"],
)
def test_native_pool_equals_interpreted_and_direct(
    module, direct, execution, tmp_path
):
    execution(
        jobs=2,
        native=True,
        store=TraceStore(tmp_path / "traces"),
        cache=None,
        db=None,
    )
    native = module.run(workloads=WORKLOADS)
    execution(jobs=1, native=False, store=None, cache=None, db=None)
    interpreted = module.run(workloads=WORKLOADS)
    assert native == interpreted
    assert interpreted == direct()
