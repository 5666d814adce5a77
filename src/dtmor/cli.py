"""Batch command-line front end.

Subcommands: generate, gramian, reduce, bounds, simulate, pipeline.  The
pipeline reproduces the experimental protocol end to end: build or load a
system, approximate the (time-limited) Gramians, reduce by BT and/or TLBT,
evaluate the error bounds, simulate, and emit plot-ready CSV files plus a
JSON report.

Exit codes:

- 0: success;
- 2: configuration error: bad flags or values (``ConfigError``,
  ``ValueError``, ``DimensionMismatchError``), a dense operation past
  the size cap (``DenseCapError``), or a ``bounds --tau`` that differs
  from the window of a TLBT model;
- 3: solver failure: ``ConvergenceError``, ``SolvabilityError``,
  ``BreakdownError``, ``BalancingError``, ``EstimationError``,
  ``SingularMassMatrixError``;
- 4: I/O failure: ``SystemIOError``, ``OSError``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import sys as _sys
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import balancing, bounds as bounds_mod, dense_stein, lowrank
from .exceptions import (
    BalancingError,
    BreakdownError,
    ConvergenceError,
    DenseCapError,
    EstimationError,
    SingularMassMatrixError,
    SolvabilityError,
    SystemIOError,
)
from .system import (
    DiscreteLTISystem,
    ExampleSpec,
    check_horizon,
    generate_example,
    read_system,
    simulate,
    write_matrix,
    write_system,
)

SOLVERS = ("dense", "smith", "rksm-pm1", "rksm-disc")


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    """Everything one pipeline run depends on; two identical configs produce
    byte-identical outputs when run with the same BLAS thread count (the
    trace sums round differently with another thread count)."""
    system_path: str | None = None
    example: ExampleSpec | None = None
    tau: float = 50
    methods: tuple[str, ...] = ("bt", "tlbt")
    order: int | None = None
    hsv_tol: float | None = None
    solver: str = "dense"
    solver_config: lowrank.SolverConfig = field(default_factory=lowrank.SolverConfig)
    sim_horizon: int | None = None
    input_kind: str = "impulse"
    input_seed: int = 0
    out_dir: str | None = None
    force: bool = False

    def validate(self):
        if (self.system_path is None) == (self.example is None):
            raise ConfigError("exactly one of a system path or an example spec is required")
        if (self.order is None) == (self.hsv_tol is None):
            raise ConfigError("exactly one of --order and --hsv-tol is required")
        if self.order is not None and self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.hsv_tol is not None and not self.hsv_tol >= 0:
            raise ConfigError(f"hsv tolerance must be >= 0, got {self.hsv_tol}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}")
        if not self.methods or any(m not in ("bt", "tlbt") for m in self.methods):
            raise ConfigError("methods must be a nonempty subset of {'bt','tlbt'}")
        check_horizon(self.tau, "--tau")
        if "tlbt" in self.methods and math.isinf(self.tau):
            raise ConfigError("time-limited reduction needs a finite --tau")
        if self.sim_horizon is not None and self.sim_horizon < 0:
            raise ConfigError(f"simulation horizon must be >= 0, got {self.sim_horizon}")
        if self.input_kind not in ("impulse", "seeded-random"):
            raise ConfigError("input kind must be 'impulse' or 'seeded-random'")


@dataclass
class ReportBundle:
    """In-memory result of one pipeline run."""
    system: DiscreteLTISystem
    roms: dict = field(default_factory=dict)          # method -> ReducedOrderModel
    reports: dict = field(default_factory=dict)       # method -> BoundReport
    gramians: dict = field(default_factory=dict)      # (method, side) -> Gramian
    error_header: list = field(default_factory=list)
    error_rows: list = field(default_factory=list)
    summary_rows: list = field(default_factory=list)
    e_max: dict = field(default_factory=dict)         # method -> in-window max error


def compute_gramian(system: DiscreteLTISystem, tau, side: str, cfg: JobConfig):
    """One Gramian by the job's solver and settings."""
    if cfg.solver == "dense":
        return dense_stein.tl_gramian_dense(system, tau, side)
    if cfg.solver == "smith":
        return lowrank.smith_arnoldi(system, side, tau, cfg.solver_config)
    kind = "alternating-pm1" if cfg.solver == "rksm-pm1" else "adaptive-disc"
    return lowrank.rksm(system, side, tau, lowrank.ShiftStrategy(kind=kind), cfg.solver_config)


def _load_system(path: str | None, spec: ExampleSpec | None) -> DiscreteLTISystem:
    return read_system(path) if path is not None else generate_example(spec)


def _build_input(kind: str, m: int, horizon: int, seed: int) -> np.ndarray:
    if kind == "impulse":
        u = np.zeros((horizon + 1, m))
        u[0] = 1.0
        return u
    rng = np.random.default_rng(seed)
    return rng.standard_normal((horizon + 1, m))


def error_table(system: DiscreteLTISystem, roms: dict, u: np.ndarray,
                horizon: int, tau, bound_levels: dict, hsv_levels: dict):
    """Rows k, window marker, per-method error/bound/HSV-level columns."""
    systems = {method: getattr(model, "system", model) for method, model in roms.items()}
    for method, msys in systems.items():
        if msys.m != system.m or msys.p != system.p:
            raise ConfigError(f"model for {method} does not match system input/output counts")
    y = simulate(system, u, horizon).outputs
    methods = list(roms)
    header = ["k", "window_marker"]
    for method in methods:
        header += [f"error_{method}", f"bound_{method}", f"hsv_{method}"]
    errs = {method: np.linalg.norm(y - simulate(msys, u, horizon).outputs, axis=1)
            for method, msys in systems.items()}
    rows = []
    tau_mark = None if math.isinf(tau) else int(tau)
    for k in range(horizon + 1):
        row = [k, 1 if tau_mark is not None and k == tau_mark else 0]
        for method in methods:
            row += [errs[method][k], bound_levels.get(method), hsv_levels.get(method)]
        rows.append(row)
    return header, rows, errs


def _solve_stats(approx) -> dict:
    """The report's record of a low-rank solve."""
    built = approx.records[-1].basis_columns if approx.records else approx.rank
    return {"columns_built": built, "rank_after_truncation": approx.rank,
            "final_residual": approx.residual, "iterations": approx.iterations,
            "deflated_columns": approx.deflated_columns,
            "offspace_fallbacks": approx.offspace_fallbacks}


def blas_threads() -> int | None:
    """Threads the scipy-openblas library bundled with numpy will use; None
    when numpy carries no such library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def gramian_pairs(system: DiscreteLTISystem, cfg: JobConfig, bundle: ReportBundle | None = None):
    """``pair(tau) -> (reach, obs)``: both Gramians of ``system`` at one
    horizon by ``cfg.solver``, each horizon solved at most once.  With a
    ``bundle``, the solves are kept in its ``gramians`` under 'bt' (tau=inf)
    or 'tlbt' (a window)."""
    pairs = {}

    def pair(tau):
        if tau not in pairs:
            pairs[tau] = tuple(compute_gramian(system, tau, side, cfg)
                               for side in ("reach", "obs"))
            if bundle is not None:
                key = "bt" if math.isinf(tau) else "tlbt"
                for side, gram in zip(("reach", "obs"), pairs[tau]):
                    bundle.gramians[(key, side)] = gram
        return pairs[tau]
    return pair


def reduce_model(system: DiscreteLTISystem, method: str, tau, pair, order=None, hsv_tol=None):
    """Square-root balanced truncation by ``method``: BT balances the tau=inf
    pair, TLBT the window pair."""
    horizon = math.inf if method == "bt" else tau
    rom, _ = balancing.square_root_truncate(*pair(horizon), system, horizon,
                                            order=order, hsv_tol=hsv_tol, method=method)
    return rom


def run_pipeline(cfg: JobConfig) -> ReportBundle:
    """Execute one reduction job in memory (no files written)."""
    cfg.validate()
    system = _load_system(cfg.system_path, cfg.example)
    window = cfg.tau
    bundle = ReportBundle(system=system)
    pair = gramian_pairs(system, cfg, bundle)
    for method in cfg.methods:
        rom = reduce_model(system, method, window, pair, cfg.order, cfg.hsv_tol)
        bundle.roms[method] = rom
        bundle.reports[method] = bounds_mod.build_bound_report(system, rom, window, pair)

    horizon = cfg.sim_horizon
    if horizon is None:
        horizon = 100 if math.isinf(window) else max(int(round(1.5 * window)), 1)
    u = _build_input(cfg.input_kind, system.m, horizon, cfg.input_seed)
    bound_levels, hsv_levels = {}, {}
    for method, report in bundle.reports.items():
        level = report.bound_level()
        bound_levels[method] = None if level is None else level * report.prop23.input_energy(u)
        hsv_levels[method] = report.hsv_tail
    header, rows, errs = error_table(system, bundle.roms, u, horizon, window,
                                     bound_levels, hsv_levels)
    bundle.error_header, bundle.error_rows = header, rows

    limit = horizon if math.isinf(window) else min(int(window), horizon)
    for method in cfg.methods:
        emax = float(np.max(errs[method][: limit + 1]))
        bundle.e_max[method] = emax
        rom = bundle.roms[method]
        bundle.summary_rows.append([
            method, rom.r, emax, bound_levels[method], hsv_levels[method],
            bundle.reports[method].rom_spectral_radius])
    return bundle


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return f"{value.real:.5e}{value.imag:+.5e}j"
    if math.isinf(value):
        return "inf"
    return f"{float(value):.5e}"


def write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _records_csv(records) -> tuple[list, list]:
    header = ["iteration", "basis_columns", "residual", "tl_term_change", "shift"]
    rows = [[r.iteration, r.basis_columns, r.residual, r.tl_term_change, r.shift]
            for r in records]
    return header, rows


def write_bundle(bundle: ReportBundle, cfg: JobConfig) -> Path:
    """Write all pipeline outputs into a job-private directory, then move it
    to the requested location in one rename.  With ``force`` an existing
    directory there is removed only once the new outputs are written."""
    out = Path(cfg.out_dir)
    if out.exists() and not cfg.force:
        raise SystemIOError(f"output directory {out} already exists (use --force)")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=out.name + ".partial-", dir=out.parent))
    try:
        for method, rom in bundle.roms.items():
            balancing.export_rom(rom, tmp / f"rom_{method}")
        # a dense Gramian has no basis, solver stats or convergence records
        solves = {f"{m}_{side}": gram for (m, side), gram in bundle.gramians.items()
                  if gram.basis is not None}
        report_doc = {
            "blas_threads": blas_threads(),
            "config": _config_doc(cfg),
            "reports": {m: rep.to_dict() for m, rep in bundle.reports.items()},
            "e_max": {m: bundle.e_max[m] for m in sorted(bundle.e_max)},
            "gramian_solves": {key: _solve_stats(gram) for key, gram in solves.items()},
        }
        with open(tmp / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for key, gram in solves.items():
            if gram.records:
                write_csv(tmp / f"convergence_{key}.csv", *_records_csv(gram.records))
        write_csv(tmp / "errors.csv", bundle.error_header, bundle.error_rows)
        write_csv(tmp / "summary.csv",
                  ["method", "r", "e_max", "bound", "hsv_tail", "rho"],
                  bundle.summary_rows)
        if out.exists():
            shutil.rmtree(out)
        os.replace(tmp, out)
    except OSError as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemIOError(f"failed to write job outputs: {exc}") from exc
    return out


def _config_doc(cfg: JobConfig) -> dict:
    doc = asdict(cfg)
    del doc["out_dir"], doc["force"]
    doc.update(doc.pop("solver_config"))   # the solver settings as flat keys
    doc["tau"] = "inf" if math.isinf(cfg.tau) else int(cfg.tau)
    return doc


# ---------------------------------------------------------------------------
# argument parsing

def _add_system_source(p: argparse.ArgumentParser, require: bool = True):
    p.add_argument("--system", help="directory holding a serialized system")
    p.add_argument("--kind", choices=("jacobi", "gauss-seidel", "random-stable", "laplacian-grid"))
    p.add_argument("--size", type=int, help="grid width N (n = N^2) or state order")
    p.add_argument("--inputs", type=int, default=1)
    p.add_argument("--outputs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-radius", type=float, default=0.95)


def _system_from_args(args) -> tuple[str | None, ExampleSpec | None]:
    if args.system is not None:
        return args.system, None
    if args.kind is None or args.size is None:
        raise ConfigError("either --system or --kind/--size is required")
    return None, ExampleSpec(kind=args.kind, size=args.size, inputs=args.inputs,
                             outputs=args.outputs, seed=args.seed,
                             target_radius=args.target_radius)


def _add_solver_flags(p: argparse.ArgumentParser):
    defaults = lowrank.SolverConfig   # its class attributes are the defaults
    p.add_argument("--solver", choices=SOLVERS, default="dense", help=(
        "dense: dense Stein solves, up to the dense cap; smith: the exact polynomial walk "
        "over a finite window, and the rksm-pm1 solve at --tau inf; rksm-pm1, rksm-disc: "
        "rational Krylov with +-1 or adaptive unit-circle poles, at any horizon"))
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--tl-tol", type=float, help="horizon-term settling tolerance "
                   f"(default: min(tol, {defaults.tl_term_tol:g}))")
    p.add_argument("--cadence", type=int, default=defaults.cadence)
    p.add_argument("--max-iter", type=int, default=defaults.max_iterations)


def _job_config(args, **fields) -> JobConfig:
    """The job of the shared system and solver flags, plus ``fields``.  The
    solver settings and --tau are checked here, before any system is built."""
    path, spec = _system_from_args(args)
    tl_tol = min(args.tol, lowrank.SolverConfig.tl_term_tol) if args.tl_tol is None else args.tl_tol
    settings = lowrank.SolverConfig(tol=args.tol, tl_term_tol=tl_tol, cadence=args.cadence,
                                    max_iterations=args.max_iter)
    return JobConfig(system_path=path, example=spec, tau=check_horizon(args.tau, "--tau"),
                     solver=args.solver, solver_config=settings, **fields)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtmor",
        description="discrete-time model order reduction toolkit",
        epilog="The dense-solver size cap (default 2000) can be overridden "
               "through the DTMOR_DENSE_CAP environment variable.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a named test system and write it")
    _add_system_source(g)
    g.add_argument("--out", required=True)

    gr = sub.add_parser("gramian", help="approximate one (time-limited) Gramian")
    _add_system_source(gr)
    gr.add_argument("--side", choices=("reach", "obs"), default="reach")
    gr.add_argument("--tau", type=float, required=True)
    _add_solver_flags(gr)
    gr.add_argument("--out", required=True, help="output directory for factors + records")

    rd = sub.add_parser("reduce", help="balanced truncation to a reduced model")
    _add_system_source(rd)
    rd.add_argument("--tau", type=float, required=True)
    rd.add_argument("--method", choices=("bt", "tlbt"), default="tlbt")
    rd.add_argument("--order", type=int)
    rd.add_argument("--hsv-tol", type=float)
    _add_solver_flags(rd)
    rd.add_argument("--out", required=True)

    bd = sub.add_parser("bounds", help="error bounds for a reduced model")
    _add_system_source(bd)
    bd.add_argument("--rom", required=True, help="reduced model directory")
    bd.add_argument("--tau", type=float, required=True)
    bd.add_argument("--constants", choices=("eigen", "numerical-radius"),
                    help="envelope constants of the thm32 bound (needs --balanced-expressions)")
    bd.add_argument("--balanced-expressions", action="store_true",
                    help="also evaluate the balanced-realization expressions (dense)")
    bd.add_argument("--out", help="write the report JSON here (default stdout)")

    sm = sub.add_parser("simulate", help="simulate a system and write the trace")
    _add_system_source(sm)
    sm.add_argument("--input", choices=("impulse", "seeded-random"), default="impulse")
    sm.add_argument("--horizon", type=int, required=True)
    sm.add_argument("--input-seed", type=int, default=0)
    sm.add_argument("--out", required=True)

    pl = sub.add_parser("pipeline", help="full generate/reduce/bounds/simulate job")
    _add_system_source(pl)
    pl.add_argument("--tau", type=float, required=True)
    pl.add_argument("--method", choices=("bt", "tlbt", "both"), default="both")
    pl.add_argument("--order", type=int)
    pl.add_argument("--hsv-tol", type=float)
    _add_solver_flags(pl)
    pl.add_argument("--sim-horizon", type=int)
    pl.add_argument("--input", choices=("impulse", "seeded-random"), default="impulse")
    pl.add_argument("--input-seed", type=int, default=0)
    pl.add_argument("--force", action="store_true")
    pl.add_argument("--out", required=True)
    return ap


def _cmd_generate(args) -> int:
    _, spec = _system_from_args(args)
    if spec is None:
        raise ConfigError("generate requires --kind and --size")
    system = generate_example(spec)
    write_system(system, args.out)
    print(f"wrote {spec.kind} system n={system.n} m={system.m} p={system.p} to {args.out}")
    return 0


def _cmd_gramian(args) -> int:
    cfg = _job_config(args)
    system = _load_system(cfg.system_path, cfg.example)
    result = compute_gramian(system, args.tau, args.side, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"rank": result.rank, "iterations": result.iterations, "side": result.side,
               "tau": "inf" if math.isinf(result.horizon) else int(result.horizon)}
    if result.basis is not None:
        write_matrix(out / "basis.mtx", result.basis)
        write_matrix(out / "core.mtx", result.core)
        summary.update(residual=result.residual, deflated_columns=result.deflated_columns)
        if result.records:
            write_csv(out / "convergence.csv", *_records_csv(result.records))
    else:
        write_matrix(out / "gramian.mtx", result.matrix())
        summary["residual"] = dense_stein.stein_residual_dense(system, result)
    if result.tl_term is not None:
        write_matrix(out / "tl_term.mtx", result.tl_term)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"gramian side={args.side} written to {out}")
    return 0


def _cmd_reduce(args) -> int:
    cfg = _job_config(args, methods=(args.method,), order=args.order, hsv_tol=args.hsv_tol)
    cfg.validate()
    system = _load_system(cfg.system_path, cfg.example)
    rom = reduce_model(system, args.method, args.tau, gramian_pairs(system, cfg),
                       args.order, args.hsv_tol)
    balancing.export_rom(rom, args.out)
    print(f"{args.method} model of order {rom.r} written to {args.out} "
          f"(rho={rom.spectral_radius():.6f})")
    return 0


def _cmd_bounds(args) -> int:
    check_horizon(args.tau, "--tau")
    system = _load_system(*_system_from_args(args))
    rom_sys = read_system(args.rom)
    with open(Path(args.rom) / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    prov = manifest.get("provenance") or {}
    method = prov.get("method", "tlbt")
    if method == "tlbt" and prov.get("tau") is not None and prov["tau"] != args.tau:
        raise ConfigError(f"--tau {args.tau:g} differs from the window tau={prov['tau']} "
                          f"that the TLBT model {args.rom} was reduced at")

    if args.constants and not args.balanced_expressions:
        raise ConfigError("--constants needs --balanced-expressions")
    pair = gramian_pairs(system, JobConfig(solver="dense"))
    # one balancing of the model's own pair gives its Hankel spectrum, as
    # `reduce` computes it, and the balanced expressions' realization
    horizon = math.inf if method == "bt" else args.tau
    bal = balancing.balance(system, *pair(horizon), horizon)
    rom = replace(bal.model(rom_sys.n, system, method), system=rom_sys)
    report = bounds_mod.build_bound_report(system, rom, args.tau, pair,
                                           bal=bal if args.balanced_expressions else None,
                                           constants_method=args.constants)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    if args.horizon < 0:
        raise ConfigError(f"--horizon must be >= 0, got {args.horizon}")
    system = _load_system(*_system_from_args(args))
    u = _build_input(args.input, system.m, args.horizon, args.input_seed)
    trace = simulate(system, u, args.horizon)
    header = ["k"] + [f"u{i}" for i in range(system.m)] + [f"y{i}" for i in range(system.p)]
    rows = [[k, *trace.inputs[k], *trace.outputs[k]] for k in range(args.horizon + 1)]
    write_csv(Path(args.out), header, rows)
    print(f"trace with horizon {args.horizon} written to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    methods = ("bt", "tlbt") if args.method == "both" else (args.method,)
    cfg = _job_config(args, methods=methods, order=args.order, hsv_tol=args.hsv_tol,
                      sim_horizon=args.sim_horizon, input_kind=args.input,
                      input_seed=args.input_seed, out_dir=args.out, force=args.force)
    bundle = run_pipeline(cfg)
    out = write_bundle(bundle, cfg)
    for row in bundle.summary_rows:
        print("  ".join(_fmt(v) for v in row))
    print(f"pipeline outputs in {out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "gramian": _cmd_gramian,
    "reduce": _cmd_reduce,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, DenseCapError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except (ConvergenceError, SolvabilityError, BreakdownError, BalancingError,
            EstimationError, SingularMassMatrixError) as exc:
        print(f"solver failure: {exc}", file=_sys.stderr)
        return 3
    except (SystemIOError, OSError) as exc:
        print(f"I/O failure: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
