"""The benchmark's reduction jobs.

Every job is the pipeline's reduction with m = p = 2: Gramians, square-root
truncation to order 10, error bounds, then simulation and the error table.
The run's seed becomes the ``ExampleSpec.seed`` of the job's system, which
draws only B and C, so every seed asks for the same kind of work.

``job`` is the timed part.  ``check`` reads what the job produced and says
whether it is correct; it runs outside the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dtmor import balancing, bounds, cli, lowrank, system

from stats import digest_files, digest_values

ORDER = 10
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


@dataclass
class Outcome:
    """What ``check`` found in one job's outputs."""
    digest: str
    rom_error: float = math.nan      # largest in-window output error, impulse input
    rom_bound: float = math.nan      # the model's bound level for the same input
    failures: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int | str, str]:
    """``dtmor`` in this process, its printout captured; an exception that
    escapes ``main`` is reported by name in place of an exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an undocumented way to end; recorded, not raised
            code = f"uncaught {type(exc).__name__}"
    return code, err.getvalue()


def check_pipeline_outputs(out: Path, code, tol: float, method: str) -> Outcome:
    """Checks on a ``dtmor pipeline`` output directory; ``method`` names the
    model whose error and bound the outcome reports."""
    if code != 0 or not (out / "report.json").exists():
        return Outcome(digest="", failures=[f"exit code {code}"])
    outcome = Outcome(digest=digest_files(out, sorted(p.name for p in out.iterdir())))
    report = json.loads((out / "report.json").read_text())
    with open(out / "summary.csv", newline="") as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    for name, row in sorted(rows.items()):
        error = report["e_max"][name]
        level = float(row["bound"]) if row["bound"] else math.nan
        if int(row["r"]) != ORDER:
            outcome.failures.append(f"{name}: reduced order {row['r']}, not {ORDER}")
        if not level >= error:
            outcome.failures.append(f"{name}: bound level {level:.5e} below error {error:.5e}")
        if name == method:
            outcome.rom_error, outcome.rom_bound = error, level
    for key, stats in sorted(report["gramian_solves"].items()):
        if stats["final_residual"] > tol:
            outcome.failures.append(
                f"{key}: final residual {stats['final_residual']:.3e} above {tol:.1e}")
    return outcome


class Workload:
    name = ""
    n = 0            # order of the job's system
    tol = 1e-8       # solver tolerance of the low-rank solves (the CLI default)
    method = "tlbt"  # the reduced model whose error and bound are reported

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def job(self, out: Path):
        raise NotImplementedError

    def check(self, out: Path, result) -> Outcome:
        raise NotImplementedError


class DeskDense(Workload):
    """``dtmor pipeline --solver dense`` on Gauss-Seidel N=20 (n=400), read
    back from the Matrix Market files that set-up writes."""
    name = "desk-dense"

    def setup(self, work, seed):
        sys = system.generate_example(system.ExampleSpec("gauss-seidel", 20, 2, 2, seed))
        self.n = sys.n
        self.system_dir = work / "system"
        system.write_system(sys, self.system_dir)

    def job(self, out):
        return run_cli(["pipeline", "--system", str(self.system_dir), "--solver", "dense",
                        "--method", "both", "--tau", "50", "--order", str(ORDER),
                        "--out", str(out), "--force"])[0]

    def check(self, out, code):
        return check_pipeline_outputs(out, code, self.tol, self.method)

    def probe_contracts(self, work: Path, seed: int, rom_dir: Path) -> list[dict]:
        """Run the two exit-code probes; each records the code it ended with."""
        probes = []
        argv = ["pipeline", "--kind", "jacobi", "--size", "20", "--seed", str(seed),
                "--solver", "rksm-pm1", "--tau", "50", "--order", str(ORDER),
                "--out", str(work / "probe-dense-cap"), "--force"]
        saved = os.environ.get("DTMOR_DENSE_CAP")
        os.environ["DTMOR_DENSE_CAP"] = "200"
        try:
            code, err = run_cli(argv)
        finally:
            if saved is None:
                del os.environ["DTMOR_DENSE_CAP"]
            else:
                os.environ["DTMOR_DENSE_CAP"] = saved
        probes.append({"name": "dense-cap-lowrank-pipeline", "env": {"DTMOR_DENSE_CAP": "200"},
                       "argv": argv, "exit_code": code, "stderr": err.strip()})
        argv = ["bounds", "--system", str(self.system_dir), "--rom", str(rom_dir),
                "--tau", "50", "--balanced-expressions",
                "--out", str(work / "probe-balanced.json")]
        code, err = run_cli(argv)
        probes.append({"name": "bounds-balanced-expressions", "env": {}, "argv": argv,
                       "exit_code": code, "stderr": err.strip()})
        for p in probes:
            p["documented"] = p["exit_code"] in DOCUMENTED_EXIT_CODES
        return probes


class PipelineLowrank(Workload):
    """``dtmor pipeline --solver rksm-pm1 --method bt`` on Gauss-Seidel N=30
    (n=900): +-1 shifts on a non-symmetric pencil, finite- and
    infinite-horizon solves, and the dense full-order work that the bound
    report still does inside a low-rank run.

    BT only: the bound report skips its dense infinite-horizon work for an
    unstable model, and the TLBT model of this system is unstable for some
    seeds (12, for one), which would make the job's work depend on the seed.
    """
    name = "pipeline-lowrank"
    method = "bt"

    def setup(self, work, seed):
        self.seed = seed
        self.n = system.generate_example(
            system.ExampleSpec("gauss-seidel", 30, 2, 2, seed)).n

    def job(self, out):
        return run_cli(["pipeline", "--kind", "gauss-seidel", "--size", "30",
                        "--inputs", "2", "--outputs", "2", "--seed", str(self.seed),
                        "--solver", "rksm-pm1", "--method", "bt", "--tau", "50",
                        "--order", str(ORDER), "--out", str(out), "--force"])[0]

    def check(self, out, code):
        return check_pipeline_outputs(out, code, self.tol, self.method)


class LargeTLBT(Workload):
    """The TLBT calls ``run_pipeline`` makes, issued through the library on
    Jacobi N=100 (n=10^4), past the dense cap."""
    name = "large-tlbt"
    tau = 50
    horizon = 75

    def setup(self, work, seed):
        self.system = system.generate_example(system.ExampleSpec("jacobi", 100, 2, 2, seed))
        self.n = self.system.n

    def job(self, out):
        sys, tau = self.system, self.tau
        cfg = lowrank.SolverConfig(tol=self.tol)
        shifts = lowrank.ShiftStrategy("alternating-pm1")
        reach = lowrank.rksm(sys, "reach", tau, shifts, cfg)
        obs = lowrank.rksm(sys, "obs", tau, shifts, cfg)
        rom, _ = balancing.square_root_truncate(reach, obs, sys, tau, order=ORDER,
                                                method="tlbt")
        bound = bounds.bound_output_tl(sys, rom.system, tau, reach, obs)
        u = np.zeros((self.horizon + 1, sys.m))
        u[0] = 1.0
        level = bound.bound_for_input(u)
        _, _, errs = cli.error_table(sys, {"tlbt": rom}, u, self.horizon, tau,
                                     {"tlbt": level}, {"tlbt": rom.hsv_tail()})
        return reach, obs, rom, bound, level, errs["tlbt"]

    def check(self, out, result):
        reach, obs, rom, bound, level, errs = result
        error = float(np.max(errs[: self.tau + 1]))
        outcome = Outcome(
            digest=digest_values({
                "A": rom.system.A, "B": rom.system.B, "C": rom.system.C,
                "hsv": rom.hsv.values, "epsilon": bound.epsilon,
                "trace_c": bound.trace_c_side, "trace_b": bound.trace_b_side,
                "errors": errs}),
            rom_error=error, rom_bound=level)
        if rom.r != ORDER:
            outcome.failures.append(f"reduced order {rom.r}, not {ORDER}")
        if not level >= error:
            outcome.failures.append(f"bound level {level:.5e} below error {error:.5e}")
        for g in (reach, obs):
            if g.residual > self.tol:
                outcome.failures.append(
                    f"{g.side}: final residual {g.residual:.3e} above {self.tol:.1e}")
        return outcome


WORKLOADS = {w.name: w for w in (DeskDense, PipelineLowrank, LargeTLBT)}
