"""Benchmark entry point: one workload, one seed, one measured run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  This script measures nothing itself:
it runs ``perfbench/measure.py`` with the same arguments in a child
interpreter, passes its output and exit code through, and does not exit
before every process the run started has ended.  The pool's
``multiprocessing`` resource tracker, for one, outlives the interpreter
that started it until it reads end-of-file on its pipe; on Linux this
script is a child subreaper, so such orphans become its children and it
waits for them (and kills those still running after ``REAP_GRACE_S``).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MEASURE = Path(__file__).with_name("measure.py")

#: the measuring child is killed if it runs longer than this
CHILD_TIMEOUT_S = 170
#: how long orphans get to end on their own once the child has ended
REAP_GRACE_S = 5
#: prctl(2) option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux); elsewhere this is a no-op."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def descendants() -> list[int]:
    """PIDs of every live descendant of this process, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # the command name may hold spaces; fields resume after ")"
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [os.getpid()]
    while todo:
        for pid in children.get(todo.pop(), ()):
            found.append(pid)
            todo.append(pid)
    return found


def reap() -> None:
    """Collect every ended child without blocking."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_all() -> None:
    """SIGKILL every descendant and wait until each has ended."""
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def wait_for_orphans() -> None:
    """Wait for descendants to end on their own, then kill what is left."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        reap()
        if not descendants():
            return
        if time.monotonic() > deadline:
            left = descendants()
            print(f"perfbench: killing leftover processes {left}", file=sys.stderr)
            kill_all()
            return
        time.sleep(0.02)


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    become_subreaper()

    def on_signal(signum, _frame):
        kill_all()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    sys.stdout.flush()
    child = subprocess.Popen([sys.executable, str(MEASURE), *argv])
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(
            f"perfbench: the run took longer than {CHILD_TIMEOUT_S} s", file=sys.stderr
        )
        kill_all()
        return 1
    wait_for_orphans()
    # a child ended by a signal reads as the shell's 128 + signal number
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
