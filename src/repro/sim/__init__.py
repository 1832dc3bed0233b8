"""Simulation driver: wires traces, the hierarchy, the core model and a
prefetcher into a run, and sweeps workloads × prefetchers for the figures.
"""

from repro.sim.cache import SweepCache, cell_key, code_fingerprint, trace_fingerprint
from repro.sim.codec import CODEC_VERSION, CodecError, decode_result, encode_result
from repro.sim.config import PREFETCHER_FACTORIES, SystemConfig, make_prefetcher
from repro.sim.metrics import HitDepthCDF, SimulationResult, geomean
from repro.sim.parallel import (
    default_execution,
    parallel_compare,
    parallel_storage_sweep,
    set_default_execution,
)
from repro.sim.phases import PhasedResult, run_phased, split_phases
from repro.sim.runner import ComparisonResult, compare, run_workload, storage_sweep
from repro.sim.simulator import Simulator

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "ComparisonResult",
    "HitDepthCDF",
    "PREFETCHER_FACTORIES",
    "PhasedResult",
    "SimulationResult",
    "Simulator",
    "SweepCache",
    "SystemConfig",
    "cell_key",
    "code_fingerprint",
    "compare",
    "decode_result",
    "default_execution",
    "encode_result",
    "geomean",
    "make_prefetcher",
    "parallel_compare",
    "parallel_storage_sweep",
    "run_phased",
    "run_workload",
    "set_default_execution",
    "split_phases",
    "storage_sweep",
    "trace_fingerprint",
]
