"""Seed robustness: are the headline speedups stable across randomness?

Two sources of randomness exist: the workload's (heap placement, keys,
graph structure) and the prefetcher's (ε-greedy exploration).  This
experiment re-runs a workload subset across several seeds of each and
reports the spread of the context prefetcher's speedup — evidence that
the reproduction's conclusions do not hinge on a lucky seed.

Both halves run on the sweep stack under the process-wide execution
defaults.  The prefetcher-seed half is two plans — the baselines and a
table of seeded configs — through :func:`~repro.sim.parallel.run_plans`.
The workload-seed half re-seeds :class:`TraceProgram` instances, which
no worker can rebuild by name, so each seed's programs go through
:func:`~repro.sim.parallel.parallel_compare`, which ships their traces
by value.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES
from repro.sim.parallel import default_execution, parallel_compare, run_plans
from repro.sim.sched.plan import GridPlan
from repro.workloads.suites import get_workload

DEFAULT_WORKLOADS = ("list", "graph500-list", "array")
DEFAULT_SEEDS = (7, 11, 23, 41)


@dataclass
class SpeedupSpread:
    samples: list[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    @property
    def spread(self) -> float:
        return max(self.samples) - min(self.samples)

    @property
    def cv(self) -> float:
        """Coefficient of variation (stdev / mean)."""
        return self.stdev / self.mean if self.mean else 0.0


@dataclass
class RobustnessResult:
    #: workload -> spread over workload seeds (prefetcher seed fixed)
    workload_seed_spread: dict[str, SpeedupSpread]
    #: workload -> spread over prefetcher seeds (workload seed fixed)
    prefetcher_seed_spread: dict[str, SpeedupSpread]


def _seeded_programs(names: tuple[str, ...], seed: int) -> list:
    """Fresh programs of ``names`` with their workload seed replaced."""
    programs = []
    for name in names:
        program = get_workload(name).factory()
        program.seed = seed
        if hasattr(program, "_trace_cache"):
            del program._trace_cache
        programs.append(program)
    return programs


def run(
    scale: str = "small",
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> RobustnessResult:
    limit = SCALES[scale]["limit"]
    names = tuple(get_workload(name).name for name in workloads)
    base_config = ContextPrefetcherConfig()
    defaults = default_execution()

    workload_samples: list[list[float]] = [[] for _ in names]
    for seed in seeds:
        programs = _seeded_programs(names, seed)
        comparison = parallel_compare(
            programs,
            ("none", "context"),
            limit=limit,
            jobs=defaults.jobs,
            cache=defaults.cache,
            native=defaults.native,
        )
        for samples, program in zip(workload_samples, programs):
            samples.append(
                comparison.get(program.name, "context").speedup_over(
                    comparison.get(program.name, "none")
                )
            )

    baselines, runs = run_plans(
        [
            GridPlan(names, ("none",), limit=limit),
            GridPlan(
                names,
                ("context",),
                tuple(replace(base_config, seed=seed) for seed in seeds),
                limit=limit,
            ),
        ]
    ).results
    prefetcher_spread = {
        name: SpeedupSpread(
            [
                runs[i * len(seeds) + j].speedup_over(baselines[i])
                for j in range(len(seeds))
            ]
        )
        for i, name in enumerate(names)
    }
    return RobustnessResult(
        workload_seed_spread={
            name: SpeedupSpread(samples)
            for name, samples in zip(names, workload_samples)
        },
        prefetcher_seed_spread=prefetcher_spread,
    )


def render(result: RobustnessResult) -> str:
    rows = []
    for name, spread in result.workload_seed_spread.items():
        rows.append(
            ("workload-seed", name, f"{spread.mean:.2f}", f"{spread.stdev:.3f}", f"{spread.cv:.1%}")
        )
    for name, spread in result.prefetcher_seed_spread.items():
        rows.append(
            ("prefetcher-seed", name, f"{spread.mean:.2f}", f"{spread.stdev:.3f}", f"{spread.cv:.1%}")
        )
    return render_table(
        ("varied", "workload", "mean speedup", "stdev", "cv"),
        rows,
        title="Seed robustness — context prefetcher speedup spread",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
