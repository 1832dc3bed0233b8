"""One workload, one seed, one measured run.

Usage:
    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1

``perfbench/run.py`` starts this script and reaps every process it
leaves behind; run that, not this, from the root of a checkout.
``--trace 0`` reports the end-to-end
metrics from untraced reps; ``--trace 1`` reports the per-layer ledger
from a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
run's result digests.  State the benchmark keeps between runs (kernel
build cache, compiled traces) lives in ``.perfbench_cache/`` at the
checkout root; every run's result DBs live in a temporary directory
under it that the run removes.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_cache"
TRACE_DIR = WORK / "traces"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 3
#: reps a measurement takes even when they overrun --seconds
MIN_REPS = 3
#: no rep starts this long after the run began (except a phase's first),
#: so a pathologically slow program still ends the run in time
REP_DEADLINE_S = 110
#: a probe that takes longer than this is reported as failed
PROBE_TIMEOUT_S = 30

#: the calibration loop's time on the reference host (a 2-vCPU Xeon VM,
#: its median there); the rates are scaled to a host that runs it this fast
CALIBRATION_REF_S = 0.07

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _BusyRetries(logging.Handler):
    """Counts the result DB's SQLITE_BUSY retry warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "busy" in record.getMessage():
            self.count += 1


def calibration_s() -> float:
    """Time a fixed pure-Python loop: how fast the host runs just now.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, for interpreted code and the kernel alike.  Timed before
    each rep, after the last one and before each set-up probe, this loop
    samples that drift, and the end-to-end times divide out the run's
    mean (see ``host_slowdown``).
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(300_000):
        counts[i % 5003] = counts.get(i % 5003, 0) + i
    for _ in range(5):
        words = [str(i) for i in range(20_000)]
    del words
    return time.perf_counter() - t0


def host_slowdown(calibrations: list[float]) -> float:
    """How much slower than the reference host this run's host ran.

    A run's total rate is a time average over its reps, and so is the
    mean of calibration samples spread evenly over them: the one scales
    the other.  A median of per-rep ratios tracks the drift worse, since
    one sample before a multi-second rep misses the speed changes
    within it.
    """
    return statistics.mean(calibrations) / CALIBRATION_REF_S


def run_reps(
    workload, ctx, seconds: float, min_reps: int, deadline: float, tracer=None
):
    """Closed loop: reps back to back until ``seconds`` of them are measured.

    Only the client call is timed (and, with a ``tracer``, traced); the
    per-rep set-up, the calibration loop and the checks around it are
    not.  No rep but the first starts after the ``time.monotonic()``
    value ``deadline``.
    """
    reps = []
    measured = 0.0
    while (measured < seconds or len(reps) < min_reps) and (
        not reps or time.monotonic() < deadline
    ):
        workload.start(ctx)
        # the last rep's garbage is collected here, not inside this call
        gc.collect()
        calibration = calibration_s()
        if tracer is not None:
            tracer.begin_rep()
        raised = False
        t0 = time.perf_counter()
        try:
            workload.call()
        except Exception:  # noqa: BLE001 - the rep's cells count as failed
            traceback.print_exc()
            raised = True
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_rep()
        rep = workload.finish(ctx, raised)
        rep.wall_s = wall
        rep.calibration_s = calibration
        reps.append(rep)
        measured += wall
    return reps


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark, so it covers the reps alone.

    Linux resets the mark ``ru_maxrss`` reports on a write of ``5`` to
    ``/proc/self/clear_refs``; elsewhere the peak also covers set-up.
    """
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass


def stop_pool() -> None:
    """Shut the worker pool down and wait until every worker has ended."""
    import multiprocessing

    from repro.sim.sched.pool import shutdown_pools

    shutdown_pools()
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def setup_probes(workload, tmp: Path) -> list[dict]:
    """Time the set-up in ``SETUP_PROBES`` fresh interpreters.

    Each probe carries the calibration loop's time right before it.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        calibration = calibration_s()
        # a session of its own, so a hung probe goes down with its workers
        proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("setup_probe.py")),
                str(SRC),
                str(TRACE_DIR),
                str(tmp),
                ",".join(workload.traces),
            ],
            cwd=WORK,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("setup probe timed out", file=sys.stderr)
            continue
        if proc.returncode != 0:
            sys.stderr.write(err)
            continue
        probe = json.loads(out.strip().splitlines()[-1])
        probe["calibration_s"] = calibration
        probes.append(probe)
    return probes


def replay_batches(parent, replay) -> tuple[float, int]:
    """Run the pool's batches again in this process under worker spans.

    Returns ``(seconds, payload mismatches)``; a replayed payload must
    equal the one the pool returned for the same cell.
    """
    from ledger import install_worker_spans

    from repro.sim.sched import pool

    install_worker_spans(replay)
    replay.armed = True
    mismatched = 0
    try:
        t0 = time.perf_counter()
        for shared, cells in parent.batches:
            out, _degrades = pool.run_batch(shared, cells)
            for index, payload, _native_info in out:
                if parent.payloads.get(index) != payload:
                    mismatched += 1
        seconds = time.perf_counter() - t0
    finally:
        replay.restore()
    return seconds, mismatched


def cold_compile_s(workload, tmp: Path) -> float:
    """Compile up to four of the workload's traces into an empty store."""
    from repro.workloads.store import TraceStore

    store = TraceStore(tmp / "cold-traces")
    t0 = time.perf_counter()
    for name in workload.traces[:4]:
        store.compile(name)
    seconds = time.perf_counter() - t0
    shutil.rmtree(tmp / "cold-traces", ignore_errors=True)
    return seconds


def print_ledger(parent, reps: int, wall_s: float) -> None:
    """The traced wall time split by layer self time, on standard error."""
    from ledger import layer_ledger

    layers = layer_ledger(parent)
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    rows.append(("unaccounted", wall_s - sum(layers.values())))
    print(
        f"ledger: traced wall {wall_s / reps:.4f} s/rep over {reps} reps",
        file=sys.stderr,
    )
    for layer, seconds in rows:
        print(
            f"  {layer:12s} {seconds / reps:10.4f} s/rep  {seconds / wall_s:7.2%}",
            file=sys.stderr,
        )


def traced_reps(workload, ctx, seconds: float, deadline: float):
    """Untraced reps, traced reps, then the replay of the last one's batches.

    Returns ``(untraced, traced, parent tracer, replay tracer, replay
    seconds, replay mismatches)``.
    """
    from ledger import Tracer, install_parent_spans

    untraced = run_reps(workload, ctx, seconds / 2, 2, deadline)
    parent = Tracer()
    install_parent_spans(parent)
    try:
        traced = run_reps(workload, ctx, seconds / 2, 2, deadline, parent)
    finally:
        parent.restore()
    replay = Tracer()
    replay_s, mismatched = replay_batches(parent, replay)
    print_ledger(parent, len(traced), sum(rep.wall_s for rep in traced))
    return untraced, traced, parent, replay, replay_s, mismatched


def measure(args, tmp: Path, deadline: float) -> dict:
    from bench_workloads import JOBS, WORKLOADS, Context
    from setup_probe import warm_pool

    from repro.sim.native.build import kernel_or_none
    from repro.sim.sched.pool import shared_pool

    workload = WORKLOADS[args.workload](args.seed)
    busy = _BusyRetries()
    logging.getLogger("repro.sim.sched.db").addHandler(busy)

    # the first run in a checkout compiles the kernel and the traces here
    if kernel_or_none() is None:
        raise RuntimeError("the compiled kernel is unavailable")
    ctx = Context(tmp=tmp, trace_dir=TRACE_DIR)
    refs = [ctx.store.ensure(name)[0] for name in workload.traces]
    store_heals = ctx.store.heals
    warm_pool(shared_pool(JOBS), workload.traces[0], refs[0])
    workload.prepare(ctx)

    replay_mismatched = 0
    if args.trace:
        untraced, traced, parent, replay, replay_s, replay_mismatched = traced_reps(
            workload, ctx, args.seconds, deadline
        )
        reps = untraced + traced
    else:
        reset_peak_rss()
        reps = run_reps(workload, ctx, args.seconds, MIN_REPS, deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibrations = [rep.calibration_s for rep in reps] + [calibration_s()]
    stop_pool()
    # RUSAGE_CHILDREN covers only workers that have ended and been joined
    worker_peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    checked, mismatched = workload.verify(ctx)
    mismatched += replay_mismatched
    workload.close(ctx)
    compile_s = cold_compile_s(workload, tmp) if args.trace else 0.0
    probes = setup_probes(workload, tmp)

    attempted = sum(rep.cells for rep in reps)
    failed = min(attempted, sum(rep.failed for rep in reps) + mismatched)
    digests_agree = len({rep.digest for rep in reps}) == 1
    print(
        f"check {workload.name} seed={args.seed}: {len(reps)} reps, digests "
        f"{'identical' if digests_agree else 'DIFFER'}; oracle {checked} cells, "
        f"{mismatched} mismatched",
        file=sys.stderr,
    )
    for kind, digest in sorted(workload.digests.items()):
        print(f"digest {workload.name} seed={args.seed} {kind}={digest}")

    if args.trace:
        from ledger import UNITS, per_layer_metrics

        units = UNITS
        metrics = per_layer_metrics(
            parent,
            replay,
            reps=len(traced),
            traced_wall_s=sum(rep.wall_s for rep in traced),
            untraced_median_s=statistics.median(rep.wall_s for rep in untraced),
            traced_median_s=statistics.median(rep.wall_s for rep in traced),
            replay_s=replay_s,
            replay_dispatch_s=parent.last_rep_dispatch_s,
            jobs=JOBS,
            probes=probes,
            compile_s=compile_s,
            busy_retries=busy.count,
            store_heals=store_heals + ctx.store.heals,
        )
    else:
        units = END_TO_END_UNITS
        # every time is scaled to the reference host's speed; the rates
        # are the run's totals over its measured seconds
        slowdown = host_slowdown(
            calibrations + [p["calibration_s"] for p in probes]
        )
        measured_s = sum(rep.wall_s for rep in reps)
        metrics = {
            "setup_s": (
                statistics.median(p["setup_s"] for p in probes) / slowdown
                if probes
                else 0.0
            ),
            "cells_per_s": sum(rep.cells - rep.failed for rep in reps)
            / measured_s
            * slowdown,
            "sim_accesses_per_s": sum(
                rep.accesses * (1 - rep.failed / rep.cells) for rep in reps
            )
            / measured_s
            * slowdown,
            "peak_rss_mb": peak_rss_mb,
            "worker_peak_rss_mb": worker_peak_rss_mb,
            "ok_frac": 1 - failed / attempted,
        }
    return {
        "correct": failed == 0 and digests_agree and len(probes) == SETUP_PROBES,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + REP_DEADLINE_S
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # SQLite spill files, compiler scratch and the workers' temporary
    # files stay inside the checkout too
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(WORK / "tmp")
    # the kernel build cache resolves against the working directory, in
    # the pool's workers too, so this keeps it out of the repo's results/
    os.chdir(WORK)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK / "tmp"))
    try:
        result = measure(args, tmp, deadline)
    finally:
        stop_pool()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
