"""Learning convergence: accuracy, exploration and degree over training.

Section 7.1 is titled "Accuracy and convergence"; Figure 8 shows the
converged timeliness distribution, while the convergence *trajectory*
is only described in prose.  This experiment records it: the prefetch
accuracy EMA, the exploration rate ε, and the throttled degree, sampled
at fixed points along each workload's trace.

It builds :class:`~repro.sim.simulator.Simulator` directly instead of
submitting a plan: its chunks carry prefetcher state from one to the
next, and sweep cells are independent one-shot runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.prefetcher import ContextPrefetcher
from repro.experiments.report import render_table
from repro.sim.simulator import Simulator
from repro.workloads.suites import get_workload

DEFAULT_WORKLOADS = ("list", "array", "graph500-list", "maptest")


@dataclass
class ConvergencePoint:
    accesses: int
    accuracy: float
    epsilon: float
    degree: int
    cst_occupancy: int
    reducer_activations: int


@dataclass
class ConvergenceResult:
    #: workload -> sampled trajectory
    trajectories: dict[str, list[ConvergencePoint]]

    def final_accuracy(self, workload: str) -> float:
        return self.trajectories[workload][-1].accuracy

    def converged(self, workload: str, *, threshold: float = 0.02) -> bool:
        """True when accuracy moved less than ``threshold`` over the last
        quarter of the trajectory."""
        points = self.trajectories[workload]
        tail = points[-max(2, len(points) // 4) :]
        return abs(tail[-1].accuracy - tail[0].accuracy) < threshold


def run(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    *,
    samples: int = 10,
    limit: int | None = 40000,
) -> ConvergenceResult:
    trajectories: dict[str, list[ConvergencePoint]] = {}
    for name in workloads:
        trace = get_workload(name).build().trace()
        if limit is not None:
            trace = trace[:limit]
        prefetcher = ContextPrefetcher()
        sim = Simulator(prefetcher)
        # run in chunks, sampling internals between them (prefetcher and
        # hierarchy state carry across chunks; indices continue)
        chunk = max(1, len(trace) // samples)
        points: list[ConvergencePoint] = []
        done = 0
        while done < len(trace):
            part = trace[done : done + chunk]
            sim.run(part, workload_name=name, start_index=done)
            done += len(part)
            points.append(
                ConvergencePoint(
                    accesses=done,
                    accuracy=prefetcher.policy.accuracy,
                    epsilon=prefetcher.policy.epsilon(),
                    degree=prefetcher.policy.degree(),
                    cst_occupancy=prefetcher.cst.occupancy(),
                    reducer_activations=prefetcher.reducer.activations,
                )
            )
        trajectories[name] = points
    return ConvergenceResult(trajectories=trajectories)


def render(result: ConvergenceResult) -> str:
    rows = []
    for name, points in result.trajectories.items():
        first, mid, last = points[0], points[len(points) // 2], points[-1]
        rows.append(
            (
                name,
                f"{first.accuracy:.2f}/{mid.accuracy:.2f}/{last.accuracy:.2f}",
                f"{first.epsilon:.3f}->{last.epsilon:.3f}",
                f"{first.degree}->{last.degree}",
                last.cst_occupancy,
                "yes" if result.converged(name) else "no",
            )
        )
    return render_table(
        (
            "workload",
            "accuracy start/mid/end",
            "epsilon",
            "degree",
            "CST used",
            "converged",
        ),
        rows,
        title="Convergence — context prefetcher learning trajectory",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
