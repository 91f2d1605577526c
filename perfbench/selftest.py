#!/usr/bin/env python3
"""Self-test of the benchmark, about a minute long:

    python3 perfbench/selftest.py

In one small Ray session it runs every workload at tiny sizes for a couple
of seconds and requires every operation to pass its output check; then it
drops one row of each output and requires every operation to fail.  It
also checks that an operation that raises or outlives its timeout is
counted as failed rather than crashing or blocking the run.  Exits 0 when
all checks hold.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run, workloads  # noqa: E402
from perfbench.workloads import Op  # noqa: E402


TINY = {
    "tile_tree": {"n_rows": 16384},
    "tile_grid": {"n_rows": 16384},
    "replicate": {"n_diff": 300, "n_store": 3000, "n_seqs": 2},
}


class _Faulty:
    """Workload whose operations raise, then hang past the timeout."""

    def __init__(self):
        self.ops = [self._raise, lambda: time.sleep(5)]

    @staticmethod
    def _raise():
        raise RuntimeError("injected")

    def next_op(self) -> Op:
        return Op(self.ops.pop(0), lambda out: None, 1)

    def restart(self) -> None:
        pass


def main() -> int:
    problems = []
    os.makedirs(run.WORK, exist_ok=True)
    run.start_ray(None)
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(name, 7, run.WORK, TINY[name])
            wl.setup()
            wl.reference()
            ok = run.Tally()
            run.measure(wl, 2, 60, ok, min_ops=2)
            wl.drop_row = True
            bad = run.Tally()
            run.measure(wl, 0, 60, bad, min_ops=2)
            wl.teardown()
            print(f"{name}: {ok.attempted - ok.failed}/{ok.attempted} correct; "
                  f"with a dropped row {bad.failed}/{bad.attempted} failed", flush=True)
            if ok.failed or not ok.attempted:
                problems.append(f"{name}: {ok.errors}")
            if bad.failed != bad.attempted:
                problems.append(f"{name}: a dropped row went unnoticed")
        faulty = run.Tally()
        run.measure(_Faulty(), 0, 1, faulty, min_ops=2)
        print(f"faulty: {faulty.failed}/{faulty.attempted} failed, hung={faulty.hung}")
        if (faulty.failed, faulty.attempted, faulty.hung) != (2, 2, True):
            problems.append(f"faulty operations miscounted: {faulty.errors}")
    finally:
        run.stop_ray()
        run.stop_processes()
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
