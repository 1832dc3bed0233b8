"""In-kernel batch driver suite: batch-of-N ≡ N single-cell runs.

The batch entry point (:func:`repro.sim.native.adapter.run_native_batch`,
one GIL-released ``rp_run_batch`` call per workload-pure shard) must be
an *invisible* optimization: every cell's result bit-identical to the
single-cell native run of the same prefetcher — which the kernel-parity
and fuzz suites in turn prove identical to the interpreted oracle — and
provably independent of the OpenMP team size, because cells share only
``const`` trace columns and write disjoint output blocks.

Coverage here:

* batch-of-N against N fresh single-cell ``Simulator`` runs;
* thread-count invariance (1, 2, 4 and the OpenMP default);
* warmup and ``start_index`` riding the shared columns correctly;
* per-cell fallback isolation — one unrepresentable cell degrades
  alone, with its reason, while its neighbours stay native;
* waves: shards of 1, team, team+1 and 3·team+2 cells run in waves of
  the kernel team size, bit-identical to single-cell runs, with never
  more than one team's kernel state live and a degrade inside a wave
  isolated to its cell;
* the pool's ``run_batch`` — the one executor every sweep shard runs
  through — against a per-cell interpreted ``Simulator`` loop;
* ``--runslow``: a randomized differential fuzz over shard composition
  (sizes, eligible/fallback mixes, thread counts), and a subprocess leg
  that forces the serial (no-OpenMP) build and requires bit-identical
  payloads from whichever build this process loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim import native as native_pkg
from repro.sim.codec import encode_result
from repro.sim.config import make_prefetcher
from repro.sim.native import adapter
from repro.sim.sched.pool import BatchShared, run_batch
from repro.sim.simulator import Simulator
from repro.workloads.suites import get_workload
from repro.workloads.trace import MemoryAccess

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (numpy/cffi/toolchain)",
)

LIMIT = 300

_TRACES: dict[str, list] = {}


def _trace(name: str) -> list:
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).build().trace()[:LIMIT]
    return _TRACES[name]


def _mixed_prefetchers() -> list:
    """A representative shard: RL context variants + table baselines."""
    return [
        ContextPrefetcher(ContextPrefetcherConfig()),
        ContextPrefetcher(ContextPrefetcherConfig(seed=7, cst_entries=1024)),
        ContextPrefetcher(ContextPrefetcherConfig(policy="softmax")),
        StridePrefetcher(StrideConfig(degree=4)),
        StridePrefetcher(StrideConfig(degree=2, table_entries=16)),
    ]


def _batch_encoded(prefetchers, trace, *, threads: int, **kwargs) -> list:
    results, reasons, _trace, _limit = adapter.run_native_batch(
        prefetchers,
        trace,
        workload_name="batch-test",
        limit=None,
        threads=threads,
        **kwargs,
    )
    return [
        None if r is None else encode_result(r) for r in results
    ], reasons


class TestBatchParity:
    def test_batch_equals_single_cell_native_runs(self):
        trace = _trace("list")
        encoded, reasons = _batch_encoded(
            _mixed_prefetchers(), trace, threads=1
        )
        assert all(r is None for r in reasons), reasons
        for pos, pf in enumerate(_mixed_prefetchers()):
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test")
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_result(single), (
                f"cell {pos} ({pf.name}) diverged from its single-cell run"
            )

    def test_thread_count_invariance(self):
        trace = _trace("array")
        reference = None
        for threads in (0, 1, 2, 4):
            encoded, reasons = _batch_encoded(
                _mixed_prefetchers(), trace, threads=threads
            )
            assert all(r is None for r in reasons), reasons
            if reference is None:
                reference = encoded
            else:
                assert encoded == reference, (
                    f"threads={threads} changed batch results"
                )

    def test_warmup_parity(self):
        trace = _trace("list")
        encoded, reasons = _batch_encoded(
            _mixed_prefetchers(), trace, threads=2, warmup=50
        )
        assert all(r is None for r in reasons), reasons
        for pos, pf in enumerate(_mixed_prefetchers()):
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test", warmup=50)
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_result(single)

    def test_start_index_parity(self):
        trace = _trace("array")
        encoded, reasons = _batch_encoded(
            _mixed_prefetchers(), trace, threads=2, start_index=1000
        )
        assert all(r is None for r in reasons), reasons
        for pos, pf in enumerate(_mixed_prefetchers()):
            sim = Simulator(pf, native=True)
            single = sim.run(
                trace, workload_name="batch-test", start_index=1000
            )
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_result(single)


class TestFallbackIsolation:
    def test_unrepresentable_cell_degrades_alone(self):
        # degree > the kernel's 64-request cap cannot run natively; its
        # neighbours must stay in the kernel and keep their exact results
        trace = _trace("list")
        bad = StridePrefetcher(StrideConfig(degree=100))
        cells = [
            ContextPrefetcher(ContextPrefetcherConfig()),
            bad,
            StridePrefetcher(StrideConfig(degree=4)),
        ]
        results, reasons, _t, _l = adapter.run_native_batch(
            cells, trace, workload_name="batch-test", limit=None, threads=2
        )
        assert results[1] is None
        assert reasons[1], "fallback must carry a reason"
        assert results[0] is not None and results[2] is not None
        for pos in (0, 2):
            pf = (
                ContextPrefetcher(ContextPrefetcherConfig())
                if pos == 0
                else StridePrefetcher(StrideConfig(degree=4))
            )
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test")
            assert encode_result(results[pos]) == encode_result(single)

    def test_fallback_prefetcher_left_pristine(self):
        # a degraded cell's Python prefetcher must be untouched, so the
        # caller can still run it interpreted
        trace = _trace("list")
        bad = StridePrefetcher(StrideConfig(degree=100))
        results, reasons, out_trace, out_limit = adapter.run_native_batch(
            [bad], trace, workload_name="batch-test", limit=None, threads=1
        )
        assert results[0] is None
        assert bad.is_pristine()
        interp = Simulator(bad).run(out_trace, workload_name="batch-test")
        oracle = Simulator(
            StridePrefetcher(StrideConfig(degree=100))
        ).run(trace, workload_name="batch-test")
        assert interp == oracle


def _wave_prefetchers(n: int) -> list:
    """``n`` cells whose configs depend only on their position."""
    base = ContextPrefetcherConfig()
    return [
        StridePrefetcher(StrideConfig(degree=1 + i % 4))
        if i % 3 == 2
        else ContextPrefetcher(dataclasses.replace(base, seed=100 + i))
        for i in range(n)
    ]


_WAVE_SINGLES: list = []


def _wave_singles(n: int) -> list:
    """Single-cell native payloads of the first ``n`` wave cells."""
    trace = _trace("list")
    for pf in _wave_prefetchers(n)[len(_WAVE_SINGLES) :]:
        sim = Simulator(pf, native=True)
        result = sim.run(trace, workload_name="batch-test")
        assert sim.last_run_native, sim.last_native_fallback
        _WAVE_SINGLES.append(encode_result(result))
    return _WAVE_SINGLES[:n]


@pytest.fixture
def live_handles(monkeypatch):
    """Counts the batch cells whose kernel state is alive right now."""
    counts = {"live": 0, "peak": 0}
    real = adapter._batch_handles

    def release() -> None:
        counts["live"] -= 1

    def counted(*args):
        sim_h, pf_h = real(*args)
        if sim_h is not None and pf_h is not None:
            counts["live"] += 1
            counts["peak"] = max(counts["peak"], counts["live"])
            # the cell's state is live until its last handle is freed
            pair_gone = [2]

            def one_gone() -> None:
                pair_gone[0] -= 1
                if not pair_gone[0]:
                    release()

            weakref.finalize(sim_h, one_gone)
            weakref.finalize(pf_h, one_gone)
        return sim_h, pf_h

    monkeypatch.setattr(adapter, "_batch_handles", counted)
    return counts


class TestWaves:
    """Shards run in waves of the team size; results cannot tell."""

    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_wave_sizes_match_single_cell_runs(self, threads):
        trace = _trace("list")
        for ncells in (1, threads, threads + 1, 3 * threads + 2):
            encoded, reasons = _batch_encoded(
                _wave_prefetchers(ncells), trace, threads=threads
            )
            assert all(r is None for r in reasons), reasons
            assert encoded == _wave_singles(ncells), (
                f"{ncells} cells at threads={threads} diverged"
            )

    @pytest.mark.parametrize("threads", (0, 1, 2, 4))
    def test_live_state_never_exceeds_the_team(self, threads, live_handles):
        kernel = native_pkg.build.kernel_or_none()
        team = threads or kernel.lib.rp_batch_max_threads()
        ncells = 3 * team + 2
        encoded, reasons = _batch_encoded(
            _wave_prefetchers(ncells), _trace("list"), threads=threads
        )
        assert all(r is None for r in reasons), reasons
        assert live_handles["peak"] == team
        assert live_handles["live"] == 0, "handles outlived the call"

    def test_unrepresentable_cell_mid_wave_degrades_alone(self):
        # degree > the kernel's 64-request cap: the cell sits inside the
        # second wave and must not shift or disturb its wave-mates
        cells = _wave_prefetchers(7)
        cells[3] = StridePrefetcher(StrideConfig(degree=100))
        encoded, reasons = _batch_encoded(cells, _trace("list"), threads=2)
        assert encoded[3] is None and reasons[3]
        singles = _wave_singles(7)
        for pos in (0, 1, 2, 4, 5, 6):
            assert reasons[pos] is None
            assert encoded[pos] == singles[pos], f"cell {pos} diverged"

    def test_allocation_failure_mid_wave_degrades_alone(self, monkeypatch):
        real = adapter._batch_handles
        calls = [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == 4:  # the second cell of the second wave
                return None, None
            return real(*args)

        monkeypatch.setattr(adapter, "_batch_handles", failing)
        encoded, reasons = _batch_encoded(
            _wave_prefetchers(7), _trace("list"), threads=2
        )
        assert encoded[3] is None
        assert reasons[3] == "native state allocation failed"
        singles = _wave_singles(7)
        for pos in (0, 1, 2, 4, 5, 6):
            assert encoded[pos] == singles[pos], f"cell {pos} diverged"


def _per_cell_payloads(shared: BatchShared, cells) -> list:
    """The reference for ``run_batch``: one fresh interpreted
    ``Simulator`` per cell, in cell order."""
    out = []
    for index, name, context_id in cells:
        config = shared.context_table[context_id]
        if name == "context" and config is not None:
            prefetcher = ContextPrefetcher(config)
        else:
            prefetcher = make_prefetcher(name)
        result = Simulator(prefetcher).run(
            shared.trace, workload_name=shared.workload, limit=shared.limit
        )
        out.append((index, encode_result(result)))
    return out


class TestPoolBatchDriver:
    """The pool's ``run_batch`` against a per-cell ``Simulator`` loop."""

    def test_run_batch_matches_per_cell_simulator(self):
        base = ContextPrefetcherConfig()
        shared = BatchShared(
            workload="pool-batch-test",
            limit=None,
            native=True,
            context_table=(
                None,
                dataclasses.replace(base, seed=11),
                dataclasses.replace(base, max_degree=100),  # falls back
            ),
            trace=tuple(_trace("list")),
            kernel_threads=2,
        )
        cells = tuple(
            (index, pf, ctx)
            for index, (pf, ctx) in enumerate(
                [
                    ("context", 0),
                    ("context", 1),
                    ("context", 2),
                    ("stride", 0),
                    ("none", 0),
                ]
            )
        )
        got, _deg = run_batch(shared, cells)
        assert [(i, payload) for i, payload, _info in got] == (
            _per_cell_payloads(shared, cells)
        )
        # the driver really ran: every representable cell reports native
        info = {i: native_info for i, _p, native_info in got}
        assert info[0] == (True, None)
        assert info[3] == (True, None)
        # the over-cap context cell degraded alone, with a reason
        assert info[2][0] is False and info[2][1]


def _batch_fuzz_trace(rng: random.Random, length: int) -> list[MemoryAccess]:
    """Strided segments with scatter jumps: enough structure to train
    every family, small enough to keep the interpreted leg fast."""
    trace: list[MemoryAccess] = []
    addr = rng.randrange(1 << 30) * 64
    while len(trace) < length:
        stride = rng.choice((-2, -1, 1, 1, 2, 3)) * 64
        if rng.random() < 0.15:
            addr = rng.randrange(1 << 34)
        for _ in range(rng.randrange(4, 20)):
            if len(trace) >= length:
                break
            addr = (addr + stride) % (1 << 40)
            trace.append(
                MemoryAccess(
                    addr=addr,
                    pc=0x400000 + 4 * rng.randrange(16),
                    is_load=rng.random() < 0.9,
                    inst_gap=rng.randrange(9),
                )
            )
    return trace


@pytest.mark.slow
@pytest.mark.parametrize("case", range(12))
def test_batch_shard_fuzz(case: int) -> None:
    """Randomized shard composition through the production pool path.

    Each case draws a shard size, a context-config table (some entries
    deliberately over the kernel's request cap, forcing the per-cell
    fallback), a prefetcher mix and an OpenMP team size, then requires
    the in-kernel batch driver's payloads to equal a per-cell
    interpreted ``Simulator`` loop's, cell for cell.
    """
    seed = int.from_bytes(
        hashlib.sha256(f"batch-fuzz/{case}".encode()).digest()[:8], "big"
    )
    rng = random.Random(seed)
    trace = tuple(_batch_fuzz_trace(rng, rng.randrange(200, 700)))
    base = ContextPrefetcherConfig()
    table = tuple(
        dataclasses.replace(
            base,
            seed=rng.randrange(1 << 32),
            cst_entries=rng.choice((1024, 2048)),
            max_degree=100 if rng.random() < 0.2 else rng.randrange(1, 8),
        )
        for _ in range(rng.randrange(2, 6))
    )
    names = ("context", "context", "context", "stride", "none", "sms")
    cells = tuple(
        (index, rng.choice(names), rng.randrange(len(table)))
        for index in range(rng.randrange(3, 18))
    )
    threads = rng.choice((1, 2, 4))
    shared = BatchShared(
        workload=f"batch-fuzz-{case}",
        limit=None,
        native=True,
        context_table=table,
        trace=trace,
        kernel_threads=threads,
    )
    got, _ = run_batch(shared, cells)
    assert [(i, p) for i, p, _info in got] == _per_cell_payloads(shared, cells), (
        f"case {case}: batch driver diverged (threads={threads}, "
        f"{len(cells)} cells)"
    )


@pytest.mark.slow
def test_no_openmp_build_parity(tmp_path) -> None:
    """The serial (``REPRO_NATIVE_NO_OPENMP=1``) build is bit-identical.

    A subprocess forced onto the serial artifact runs a fixed shard and
    prints its encoded payloads; they must equal this process's (usually
    OpenMP) build output exactly.  Also proves the kill-switch works:
    the subprocess asserts its loaded kernel reports no OpenMP.
    """
    script = Path(__file__).with_name("_batch_no_openmp.py")
    env = dict(os.environ)
    env["REPRO_NATIVE_NO_OPENMP"] = "1"
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["openmp"] is False

    trace = _trace(payload["workload"])
    encoded, reasons = _batch_encoded(
        _mixed_prefetchers(), trace, threads=payload["threads"]
    )
    assert all(r is None for r in reasons), reasons
    assert encoded == payload["results"], (
        "serial build diverged from this process's kernel build"
    )
