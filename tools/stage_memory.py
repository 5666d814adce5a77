"""Print the memory of a large TLBT job after each of its stages.

    python tools/stage_memory.py [--kind jacobi] [--size 100] [--tau 50] [--seed 1]

The job is the call sequence of the benchmark's ``large-tlbt`` workload on
the example system ``--kind``/``--size`` with m = p = 2: the ``rksm`` solves
of both sides with +-1 poles, ``square_root_truncate`` to order 10 by TLBT,
``bound_output_tl`` and the error table of an impulse input over 75 steps.
It runs once, in this process, with the package in this tree's ``src/``.
After set-up and after each stage one line gives the stage's seconds, the
resident set size read from ``/proc/self/statm`` (Linux) and the process's
peak resident set size so far (``ru_maxrss``), both in MB of 2^20 bytes,
as the benchmark's ``peak_rss_mb``.
BLAS threads are whatever the environment sets.
"""
from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dtmor import balancing, bounds, cli, lowrank, system  # noqa: E402

ORDER, HORIZON = 10, 75
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE / 2 ** 20


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="jacobi")
    ap.add_argument("--size", type=int, default=100)
    ap.add_argument("--tau", type=float, default=50)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    tau = args.tau if math.isinf(args.tau) else int(args.tau)
    print(f"{'stage':<22}{'seconds':>9}{'rss_mb':>9}{'peak_mb':>9}")

    def stage(name, call):
        start = time.perf_counter()
        out = call()
        print(f"{name:<22}{time.perf_counter() - start:9.3f}{rss_mb():9.1f}{peak_mb():9.1f}",
              flush=True)
        return out

    sys_ = stage("setup", lambda: system.generate_example(
        system.ExampleSpec(args.kind, args.size, 2, 2, args.seed)))
    cfg, shifts = lowrank.SolverConfig(), lowrank.ShiftStrategy("alternating-pm1")
    reach = stage("rksm reach", lambda: lowrank.rksm(sys_, "reach", tau, shifts, cfg))
    obs = stage("rksm obs", lambda: lowrank.rksm(sys_, "obs", tau, shifts, cfg))
    rom, _ = stage("square_root_truncate", lambda: balancing.square_root_truncate(
        reach, obs, sys_, tau, order=ORDER, method="tlbt"))
    bound = stage("bound_output_tl", lambda: bounds.bound_output_tl(
        sys_, rom.system, tau, reach, obs))
    u = np.zeros((HORIZON + 1, sys_.m))
    u[0] = 1.0
    level = bound.bound_for_input(u)
    stage("error_table", lambda: cli.error_table(
        sys_, {"tlbt": rom}, u, HORIZON, tau, {"tlbt": level}, {"tlbt": rom.hsv_tail()}))
    print(f"n={sys_.n} columns: reach {reach.records[-1].basis_columns}, "
          f"obs {obs.records[-1].basis_columns}; rank {reach.basis.shape[1]}, {obs.basis.shape[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
