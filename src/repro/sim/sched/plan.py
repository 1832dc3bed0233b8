"""Grid plans: deterministic enumeration and sharding of sweep grids.

A :class:`GridPlan` is the declarative form of a parameter sweep: the
workload, context-configuration and prefetcher axes, plus the shared
hierarchy/core configs and the trace truncation limit.  Enumeration
order is the serial loop's order — workloads outer, configs middle,
prefetchers inner — so every consumer (scheduler, result DB, progress
reporting) agrees on cell indices without communicating.

Cells are content-addressed with the result cache's
:func:`~repro.sim.cache.cell_key`, so a plan cell, a cache file and a
result-DB row for the same simulated inputs all share one key.  The
sweep id is a hash over the ordered key list: two plans that simulate
the same cells in the same order are the same sweep, however they were
spelled, and any change that would alter a simulated result (trace
content, config field, semantic source) re-keys the sweep.

``native`` is deliberately excluded from both keys — the compiled
kernel is bit-neutral, so a sweep resumed under the other kernel mode
must keep its completed cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence, TypeVar

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.cache import CellKeyer, plain_data

__all__ = [
    "DEFAULT_BATCH_CELLS",
    "KERNEL_BATCH_CELLS",
    "GridPlan",
    "PlanCell",
    "max_batch_cells",
    "shard_by_workload",
]

#: upper bound on cells per dispatched batch: small enough that results
#: stream back (and commit to the DB) while the grid is still running,
#: large enough that per-batch IPC is amortized over many cells
DEFAULT_BATCH_CELLS = 512

#: upper bound when the shard executes inside the kernel's batch driver
#: (one GIL-released C call per shard): the per-shard Python cost is
#: near-constant there, so doubling the shard roughly halves boundary
#: overhead while a commit granule of ~1k sub-millisecond cells still
#: streams results back several times per second
KERNEL_BATCH_CELLS = 1024


def max_batch_cells(native: bool) -> int:
    """The one shard-size rule every sweep caller shards with."""
    return KERNEL_BATCH_CELLS if native else DEFAULT_BATCH_CELLS


class PlanCell(NamedTuple):
    """One grid position: integer refs into the plan's axes, no configs.

    Cells deliberately carry only the index, the prefetcher name and the
    context-config *table index* — the configs themselves ride the
    once-per-batch shared header (PERF004 pins this layout).
    """

    index: int
    workload: str
    prefetcher: str
    context_id: int


@dataclass(frozen=True)
class GridPlan:
    """A declarative sweep grid over registry workloads."""

    workloads: tuple[str, ...]
    prefetchers: tuple[str, ...]
    #: context-prefetcher variants; ``None`` means the paper default.
    #: Non-``context`` cells ignore the axis for keying (their configs
    #: live in source), but still enumerate once per entry so the grid
    #: stays a full cross product with stable indices.
    context_configs: tuple[ContextPrefetcherConfig | None, ...] = (None,)
    limit: int | None = None
    hierarchy_config: HierarchyConfig | None = None
    core_config: CoreConfig | None = None

    def __post_init__(self) -> None:
        if not self.workloads or not self.prefetchers or not self.context_configs:
            raise ValueError("GridPlan axes must be non-empty")

    @property
    def n_cells(self) -> int:
        return (
            len(self.workloads) * len(self.context_configs) * len(self.prefetchers)
        )

    def cells(self) -> Iterator[PlanCell]:
        """Deterministic grid order: workload » config » prefetcher.

        All cells of one workload are contiguous, which is what makes
        workload-affinity sharding a pure slicing operation.
        """
        index = 0
        for workload in self.workloads:
            for context_id in range(len(self.context_configs)):
                for prefetcher in self.prefetchers:
                    yield PlanCell(index, workload, prefetcher, context_id)
                    index += 1

    def cell_keys(self, fingerprints: dict[str, str]) -> list[str]:
        """Content-addressed key per cell, in enumeration order.

        ``fingerprints`` maps each workload to its full-trace content
        fingerprint (the store header carries it; the scheduler resolves
        it once per workload).  Keys are identical to the result cache's,
        so DB rows and cache files address the same cells.

        Built through :class:`~repro.sim.cache.CellKeyer` — the configs
        shared by the whole grid serialize once, each context-table slot
        once — because this runs inside the sweep's timed region and the
        naive per-cell :func:`~repro.sim.cache.cell_key` loop costs more
        than a batched kernel cell does.
        """
        keyer = CellKeyer(
            limit=self.limit,
            hierarchy_config=self.hierarchy_config,
            core_config=self.core_config,
        )
        fragments = [
            keyer.context_fragment(cfg) for cfg in self.context_configs
        ]
        return [
            keyer.key(
                workload=cell.workload,
                trace_fp=fingerprints[cell.workload],
                prefetcher=cell.prefetcher,
                context_fragment=fragments[cell.context_id],
            )
            for cell in self.cells()
        ]

    def spec(self) -> str:
        """Canonical JSON description of the grid (stored in the DB).

        Serialized via :func:`~repro.sim.cache.plain_data` rather than
        ``dataclasses.asdict`` — identical JSON, no per-leaf deepcopy,
        which matters with thousands of context-config slots (this runs
        inside the sweep's timed region).
        """
        payload = {
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "context_configs": [
                None if cfg is None else plain_data(cfg)
                for cfg in self.context_configs
            ],
            "limit": self.limit,
            "hierarchy": (
                None
                if self.hierarchy_config is None
                else plain_data(self.hierarchy_config)
            ),
            "core": (
                None
                if self.core_config is None
                else plain_data(self.core_config)
            ),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def sweep_id(keys: Sequence[str]) -> str:
        """Content address of a sweep: a hash of its ordered cell keys."""
        digest = hashlib.sha256()
        for key in keys:
            digest.update(key.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()


_T = TypeVar("_T")


def shard_by_workload(
    items: Sequence[_T],
    workload_of: Callable[[_T], Hashable],
    jobs: int,
    max_batch: int = DEFAULT_BATCH_CELLS,
) -> list[tuple[_T, ...]]:
    """Workload-affinity batches, grid order, bounded batch size.

    ``workload_of`` may return any hashable: ``parallel_compare`` groups
    by grid position, so two ad-hoc programs sharing a name never share
    a shard.

    All cells of a batch share one workload (the worker materialises the trace once per batch and
    its memo keeps it resident across batches), each workload splits
    into contiguous chunks by its share of the cells — rounded up, so
    equal groups get ``ceil(jobs / groups)`` chunks each, and one large
    group beside small ones (an ablation's variant table beside its
    baselines) still spreads over every worker — and no batch exceeds
    ``max_batch`` cells so results stream back — and commit to the
    result DB — while the grid is still executing.
    """
    groups: dict[Hashable, list[_T]] = {}
    for item in items:
        groups.setdefault(workload_of(item), []).append(item)
    if not groups:
        return []
    jobs = max(1, jobs)
    total = len(items)
    batches: list[tuple[_T, ...]] = []
    for cells in groups.values():
        share = -(-jobs * len(cells) // total)  # ceil division
        k = max(min(len(cells), share), -(-len(cells) // max_batch))
        size = -(-len(cells) // k)
        for start in range(0, len(cells), size):
            batches.append(tuple(cells[start : start + size]))
    return batches
