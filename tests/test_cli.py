import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from dtmor import (DiscreteLTISystem, ExampleSpec, generate_example, impulse_sequence,
                   read_system, write_system)
import dtmor.balancing
import dtmor.bounds
import dtmor.cli
import dtmor.dense_stein
import dtmor.lowrank
import dtmor.system
from dtmor.lowrank import SolverConfig
from dtmor.cli import (
    ConfigError,
    JobConfig,
    error_table,
    main,
    run_pipeline,
    write_bundle,
    write_csv,
)


def _scalar_dir(tmp_path):
    s = DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])
    write_system(s, tmp_path / "scalar")
    return tmp_path / "scalar"


class TestRunPipeline:
    def test_scalar_identity_reduction(self, tmp_path):
        path = _scalar_dir(tmp_path)
        cfg = JobConfig(system_path=str(path), tau=2, methods=("tlbt",), order=1,
                        solver="dense", out_dir=str(tmp_path / "job"))
        bundle = run_pipeline(cfg)
        assert bundle.e_max["tlbt"] <= 1e-14
        assert bundle.reports["tlbt"].prop23.epsilon <= 1e-6
        assert bundle.reports["tlbt"].rom_spectral_radius == pytest.approx(0.5)

    def test_bound_levels_dominate_emax(self):
        cfg = JobConfig(example=ExampleSpec(kind="gauss-seidel", size=6, inputs=2,
                                            outputs=2, seed=3),
                        tau=25, methods=("bt", "tlbt"), order=6, solver="dense")
        bundle = run_pipeline(cfg)
        for row in bundle.summary_rows:
            method, r, emax, bound, hsv, rho = row
            assert bound >= emax

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            JobConfig(example=ExampleSpec(kind="jacobi", size=4), tau=10,
                      order=None, hsv_tol=None).validate()
        with pytest.raises(ConfigError):
            JobConfig(system_path="x", example=ExampleSpec(kind="jacobi", size=4),
                      tau=10, order=2).validate()

    def test_hsv_tol_mode_and_lowrank_solver(self):
        cfg = JobConfig(example=ExampleSpec(kind="jacobi", size=6, inputs=2,
                                            outputs=2, seed=1),
                        tau=20, methods=("tlbt",), hsv_tol=1e-2, solver="rksm-pm1",
                        solver_config=SolverConfig(tol=1e-9, tl_term_tol=1e-10))
        bundle = run_pipeline(cfg)
        rom = bundle.roms["tlbt"]
        assert rom.hsv_tail() <= 1e-2
        assert bundle.gramians[("tlbt", "reach")].records
        assert not bundle.reports["tlbt"].flags["large_scale_approximate"]


    def test_tlbt_only_solves_inf_gramians_once_with_job_solver(self, monkeypatch):
        # n=400 past a cap of 200: the report's infinite-horizon bound for the
        # stable TLBT model must come from the run's own low-rank solves
        monkeypatch.setenv("DTMOR_DENSE_CAP", "200")
        calls = []
        real = dtmor.cli.compute_gramian

        def counting(system, tau, side, cfg):
            calls.append((tau, side))
            return real(system, tau, side, cfg)
        monkeypatch.setattr(dtmor.cli, "compute_gramian", counting)
        cfg = JobConfig(example=ExampleSpec(kind="jacobi", size=20, inputs=2,
                                            outputs=2, seed=1),
                        tau=50, methods=("tlbt",), order=10, solver="rksm-pm1")
        bundle = run_pipeline(cfg)
        report = bundle.reports["tlbt"]
        assert report.rom_spectral_radius < 1.0
        assert report.inf_horizon.backend == "low-rank"
        assert report.inf_horizon.epsilon_squared > 0
        assert sorted(calls) == [(50, "obs"), (50, "reach"),
                                 (math.inf, "obs"), (math.inf, "reach")]
        assert bundle.gramians[("bt", "reach")].residual <= cfg.solver_config.tol


    def test_bt_only_window_run_solves_no_window_gramians(self, monkeypatch, tmp_path):
        # n=400 past a cap of 200: the finite-window bound is summed, so a BT
        # run solves only its infinite-horizon pair, and the report's cross
        # Gramians come from those bases, not from shifted full-order solves
        monkeypatch.setenv("DTMOR_DENSE_CAP", "200")
        calls = []
        real = dtmor.cli.compute_gramian

        def counting(system, tau, side, cfg):
            calls.append((tau, side))
            return real(system, tau, side, cfg)

        pencil_solver = dtmor.system.DiscreteLTISystem.pencil_solver

        def unit_pencils_only(self, alpha, beta):
            # the +-1 walks factor A -+ M; a cross Sylvester recursion would ask (lambda, 1)
            if alpha != 1 or beta not in (1, -1):
                raise AssertionError(f"shifted full-order solve ({alpha}, {beta}) in a low-rank run")
            return pencil_solver(self, alpha, beta)
        monkeypatch.setattr(dtmor.cli, "compute_gramian", counting)
        monkeypatch.setattr(dtmor.system.DiscreteLTISystem, "pencil_solver", unit_pencils_only)
        out = tmp_path / "job"
        code = main(["pipeline", "--kind", "jacobi", "--size", "20", "--inputs", "2",
                     "--outputs", "2", "--seed", "1", "--solver", "rksm-pm1",
                     "--method", "bt", "--tau", "50", "--order", "10", "--out", str(out)])
        assert code == 0
        assert sorted(calls) == [(math.inf, "obs"), (math.inf, "reach")]
        assert not list(out.glob("convergence_tlbt_*"))
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["gramian_solves"]) == ["bt_obs", "bt_reach"]
        bt = doc["reports"]["bt"]
        assert bt["prop23"]["backend"] == "summation"
        assert bt["inf_horizon"]["backend"] == "low-rank"
        assert bt["inf_horizon"]["cancellation"] >= 1.0

    def test_gramian_solves_record_deflation_and_fallbacks(self, tmp_path):
        cfg = JobConfig(example=ExampleSpec(kind="gauss-seidel", size=10, inputs=2,
                                            outputs=2, seed=1),
                        tau=30, methods=("bt", "tlbt"), order=4, solver="rksm-pm1",
                        out_dir=str(tmp_path / "job"))
        bundle = run_pipeline(cfg)
        solves = json.loads((write_bundle(bundle, cfg) / "report.json").read_text())
        solves = solves["gramian_solves"]
        assert sorted(solves) == ["bt_obs", "bt_reach", "tlbt_obs", "tlbt_reach"]
        for key, stats in solves.items():
            method, side = key.split("_")
            gram = dtmor.cli.compute_gramian(bundle.system, math.inf if method == "bt"
                                             else cfg.tau, side, cfg)
            assert stats["deflated_columns"] == gram.deflated_columns
            assert stats["offspace_fallbacks"] == gram.offspace_fallbacks == 0

    @pytest.mark.parametrize("solver", ["dense", "rksm-pm1"])
    def test_pipeline_factors_the_mass_matrix_once(self, monkeypatch, solver):
        # every dual() solves with the transpose of the system's one factor of M
        spec = ExampleSpec(kind="gauss-seidel", size=12, inputs=2, outputs=2, seed=1)
        M = generate_example(spec).M.toarray()
        factorize = dtmor.system.factorize
        mass = []

        def counting(mat, *args, **kwargs):
            if mat.shape == M.shape:
                dense = mat.toarray() if scipy.sparse.issparse(mat) else mat
                mass.append(np.array_equal(dense, M) or np.array_equal(dense, M.T))
            return factorize(mat, *args, **kwargs)

        monkeypatch.setattr(dtmor.system, "factorize", counting)
        run_pipeline(JobConfig(example=spec, tau=30, methods=("bt", "tlbt"), order=6,
                               solver=solver))
        assert sum(mass) == 1


    @pytest.mark.parametrize("methods", [("bt", "tlbt"), ("bt",)])
    def test_pipeline_factors_each_unit_pencil_once(self, monkeypatch, methods):
        # every +-1 walk of the job, on either side and at either horizon,
        # solves through the system's one factor of A - M and of A + M: with
        # the one factor of M that is three factorizations in all
        spec = ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1)
        factorize, calls = dtmor.system.factorize, []

        def counting(mat, *args, **kwargs):
            calls.append(mat.shape)
            return factorize(mat, *args, **kwargs)

        monkeypatch.setattr(dtmor.system, "factorize", counting)
        run_pipeline(JobConfig(example=spec, tau=50, methods=methods, order=10,
                               solver="rksm-pm1"))
        assert calls == [(400, 400)] * 3


class TestErrorCsv:
    @staticmethod
    def _csv(tmp_path, s, roms, horizon, tau):
        # the pipeline's errors.csv writer, under an impulse input
        u = dtmor.cli._build_input("impulse", s.m, horizon, 0)
        header, rows, _ = error_table(s, roms, u, horizon, tau, {}, {})
        write_csv(tmp_path / "errors.csv", header, rows)
        return (tmp_path / "errors.csv").read_text()

    def test_identity_model_zero_error(self, tmp_path):
        s = generate_example(ExampleSpec(kind="laplacian-grid", size=4, seed=2))
        text = self._csv(tmp_path, s, {"self": s}, 10, 5)
        rows = [line.split(",") for line in text.strip().splitlines()][1:]
        assert all(float(r[2]) == 0.0 for r in rows)
        assert [int(r[1]) for r in rows].count(1) == 1  # single window marker

    def test_zero_horizon_single_row(self, tmp_path):
        s = DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])
        text = self._csv(tmp_path, s, {"m": s}, 0, 2)
        lines = text.strip().splitlines()
        assert len(lines) == 2  # header + k=0
        assert float(lines[1].split(",")[2]) == 0.0

    def test_nilpotent_model_hand_convolution(self, tmp_path):
        s = DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])
        rom = DiscreteLTISystem([[0.0]], [[1.0]], [[1.0]])
        text = self._csv(tmp_path, s, {"m": rom}, 4, 4)
        rows = [line.split(",") for line in text.strip().splitlines()][1:]
        # impulse at k=0: error(k) = |h(k) - hhat(k)|, so 0.5 at k=2
        assert float(rows[2][2]) == pytest.approx(0.5)
        assert float(rows[1][2]) == pytest.approx(0.0)


class TestWriteBundle:
    def _run(self, tmp_path, out_name):
        cfg = JobConfig(example=ExampleSpec(kind="jacobi", size=5, inputs=2,
                                            outputs=2, seed=9),
                        tau=15, methods=("bt", "tlbt"), order=5, solver="dense",
                        out_dir=str(tmp_path / out_name))
        bundle = run_pipeline(cfg)
        return write_bundle(bundle, cfg)

    def test_outputs_complete(self, tmp_path):
        out = self._run(tmp_path, "job")
        assert (out / "report.json").exists()
        assert (out / "errors.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "rom_bt" / "A.mtx").exists()
        assert (out / "rom_tlbt" / "manifest.json").exists()
        rom = read_system(out / "rom_tlbt")
        assert rom.n == 5
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["reports"]) == {"bt", "tlbt"}
        # the five table fields: eq9/prop23 for bt, prop23 for tlbt, both tails
        bt, tl = doc["reports"]["bt"], doc["reports"]["tlbt"]
        for value in (bt["inf_horizon"]["value_sq"], bt["prop23"]["epsilon"],
                      tl["prop23"]["epsilon"], bt["hsv_tail"], tl["hsv_tail"]):
            assert value is not None and value >= 0

    def test_report_records_blas_threads(self, tmp_path):
        doc = json.loads((self._run(tmp_path, "job") / "report.json").read_text())
        threads = dtmor.cli.blas_threads()
        assert doc["blas_threads"] == threads
        assert threads is None or threads >= 1

    def test_byte_identical_rerun(self, tmp_path):
        out1 = self._run(tmp_path, "job1")
        out2 = self._run(tmp_path, "job2")
        for name in ("report.json", "errors.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_system_path_is_recorded_as_given(self, tmp_path, monkeypatch):
        # config.system_path is --system as spelled, so a relative and an
        # absolute spelling of one job differ in that key alone
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--kind", "gauss-seidel", "--size", "4", "--inputs", "2",
                     "--outputs", "2", "--seed", "5", "--out", "sys"]) == 0
        outs = {}
        for spelling in ("sys", str(tmp_path / "sys")):
            out = tmp_path / f"job{len(outs)}"
            assert main(["pipeline", "--system", spelling, "--solver", "dense", "--tau", "12",
                         "--order", "3", "--method", "both", "--out", str(out)]) == 0
            outs[spelling] = out
        rel, absolute = outs.values()
        files = sorted(p.relative_to(rel) for p in rel.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(absolute) for p in absolute.rglob("*")
                               if p.is_file())
        for name in files:
            if name != Path("report.json"):
                assert (rel / name).read_bytes() == (absolute / name).read_bytes(), name
        docs = [json.loads((out / "report.json").read_text()) for out in (rel, absolute)]
        assert [doc["config"].pop("system_path") for doc in docs] == list(outs)
        assert docs[0] == docs[1]

    def test_existing_output_needs_force(self, tmp_path):
        self._run(tmp_path, "job")
        from dtmor.exceptions import SystemIOError
        cfg = JobConfig(example=ExampleSpec(kind="jacobi", size=5, inputs=2,
                                            outputs=2, seed=9),
                        tau=15, methods=("bt",), order=5, solver="dense",
                        out_dir=str(tmp_path / "job"))
        with pytest.raises(SystemIOError):
            write_bundle(run_pipeline(cfg), cfg)
        cfg.force = True
        write_bundle(run_pipeline(cfg), cfg)

    def test_failed_forced_write_keeps_previous_outputs(self, tmp_path, capsys, monkeypatch):
        out = self._run(tmp_path, "job")
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real = dtmor.cli.write_csv

        def failing(path, header, rows):
            if path.name == "errors.csv":
                raise OSError("disk full")
            real(path, header, rows)
        monkeypatch.setattr(dtmor.cli, "write_csv", failing)
        code = main(["pipeline", "--kind", "jacobi", "--size", "5", "--inputs", "2",
                     "--outputs", "2", "--seed", "9", "--tau", "15", "--order", "3",
                     "--method", "bt", "--force", "--out", str(out)])
        assert code == 4
        assert "disk full" in capsys.readouterr().err
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job"]


def _report_leaves(doc, prefix=""):
    """Dotted key path -> value of every leaf of a nested report dict."""
    leaves = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves.update(_report_leaves(value, f"{prefix}{key}."))
        else:
            leaves[prefix + key] = value
    return leaves


_REPORT_KEYS = {
    "method", "tau", "r", "rom_spectral_radius", "hsv_tail",
    "prop23.epsilon", "prop23.trace_c_side", "prop23.trace_b_side",
    "prop23.sides_relative_gap", "prop23.backend",
    "inf_horizon.value_sq", "inf_horizon.upper_sq", "inf_horizon.sides_relative_gap",
    "inf_horizon.backend", "inf_horizon.cancellation",
    "thm31.value", "thm31.terms", "thm31.residual_term",
    "thm32.j", "thm32.j_tl", "thm32.total", "thm32.path", "thm32.constants",
    "flags.averaged_sides", "flags.absolute_value_applied",
    "flags.large_scale_approximate", "flags.sides_disagree", "flags.rom_unstable",
}
_THM_INNER_KEYS = {
    "thm31.terms.neglected_block", "thm31.terms.coupling",
    "thm31.terms.rom_gramian_gap", "thm31.terms.tl_residual",
    "thm32.constants.c", "thm32.constants.lambda", "thm32.constants.c_hat",
    "thm32.constants.lambda_hat", "thm32.constants.method",
}


class TestReportKeyTree:
    SOURCE = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2", "--outputs", "2",
              "--seed", "3"]

    @pytest.fixture(scope="class")
    def job(self, tmp_path_factory):
        job = tmp_path_factory.mktemp("keys") / "job"
        assert main(["pipeline", *self.SOURCE, "--tau", "20", "--order", "4",
                     "--method", "both", "--out", str(job)]) == 0
        return job

    @pytest.mark.parametrize("method, tau, flags, nulls", [
        ("bt", "20", ["--balanced-expressions"], {"thm31", "thm32"}),
        ("bt", "20", [], {"inf_horizon.upper_sq", "thm31", "thm32"}),
        ("tlbt", "20", ["--balanced-expressions", "--constants", "eigen"],
         {"inf_horizon.upper_sq"}),
        ("bt", "inf", [], {"inf_horizon.upper_sq", "thm31", "thm32"}),
    ])
    def test_bounds_report_keys_and_null_sections(self, job, tmp_path, capsys,
                                                  method, tau, flags, nulls):
        out = tmp_path / "report.json"
        assert main(["bounds", *self.SOURCE, "--rom", str(job / f"rom_{method}"),
                     "--tau", tau, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        leaves = _report_leaves(json.loads(out.read_text()))
        keys = set(_REPORT_KEYS)
        if "thm31" not in nulls:
            keys = keys - {"thm31.terms", "thm32.constants"} | _THM_INNER_KEYS
        assert set(leaves) == keys
        assert {k for k, v in leaves.items() if v is None} == {
            k for k in keys if k in nulls or k.split(".")[0] in nulls}


class TestMainExitCodes:
    def test_module_entry_point_from_a_checkout(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-m", "dtmor", "--help"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert "pipeline" in res.stdout

    def test_success_generate_and_pipeline(self, tmp_path, capsys):
        assert main(["generate", "--kind", "jacobi", "--size", "4", "--seed", "1",
                     "--out", str(tmp_path / "sys")]) == 0
        assert main(["pipeline", "--system", str(tmp_path / "sys"), "--tau", "10",
                     "--order", "3", "--out", str(tmp_path / "job")]) == 0
        capsys.readouterr()

    def test_config_error(self, tmp_path, capsys):
        code = main(["pipeline", "--kind", "jacobi", "--size", "4", "--tau", "10",
                     "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 2

    def test_io_error(self, tmp_path, capsys):
        code = main(["pipeline", "--system", str(tmp_path / "missing"), "--tau", "10",
                     "--order", "3", "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 4

    def test_solver_error(self, tmp_path, capsys):
        # at --tau inf the smith solver runs rksm with +-1 poles, which cannot
        # converge on a near-unit-radius pencil in 3 iterations
        code = main(["reduce", "--kind", "jacobi", "--size", "6", "--seed", "1",
                     "--tau", "inf", "--method", "bt", "--order", "3",
                     "--solver", "smith", "--max-iter", "3",
                     "--out", str(tmp_path / "rom")])
        capsys.readouterr()
        assert code == 3

    def test_reduce_tlbt_needs_finite_tau(self, tmp_path, capsys):
        # a window-less TLBT model would escape the window check of `bounds`
        code = main(["reduce", "--kind", "jacobi", "--size", "6", "--inputs", "2",
                     "--outputs", "2", "--tau", "inf", "--method", "tlbt", "--order", "3",
                     "--out", str(tmp_path / "rom")])
        assert code == 2
        assert "finite --tau" in capsys.readouterr().err
        assert not (tmp_path / "rom").exists()

    def test_dense_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DTMOR_DENSE_CAP", "10")
        code = main(["pipeline", "--kind", "random-stable", "--size", "12", "--tau", "10",
                     "--order", "3", "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 2

    def test_balancing_error_exits_3(self, tmp_path, capsys):
        # one input and two steps: the factor product has rank 2 < order 5
        code = main(["reduce", "--kind", "jacobi", "--size", "3", "--tau", "2",
                     "--order", "5", "--out", str(tmp_path / "rom")])
        capsys.readouterr()
        assert code == 3

    def test_estimation_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise dtmor.system.spla.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(dtmor.system.spla, "eigs", no_convergence)
        code = main(["pipeline", "--kind", "jacobi", "--size", "4", "--tau", "10",
                     "--order", "3", "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 3

    def test_failing_inf_pair_of_the_report_exits_3(self, tmp_path, capsys, monkeypatch):
        # a TLBT job solves the tau=inf pair only for its report, and a failing
        # solve there ends the job, not just its inf_horizon
        real, asked = dtmor.cli.compute_gramian, []

        def failing(system, tau, side, cfg):
            if math.isinf(tau):
                asked.append(side)
                raise dtmor.cli.SolvabilityError("no tau=inf pair")
            return real(system, tau, side, cfg)
        monkeypatch.setattr(dtmor.cli, "compute_gramian", failing)
        code = main(["pipeline", "--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                     "--outputs", "2", "--seed", "3", "--tau", "25", "--order", "4",
                     "--method", "tlbt", "--out", str(tmp_path / "j")])
        assert "solver failure" in capsys.readouterr().err
        assert code == 3 and asked == ["reach"]
        assert not (tmp_path / "j").exists()

    def test_singular_mass_matrix_exits_3(self, tmp_path, capsys):
        path = tmp_path / "sys"
        write_system(generate_example(ExampleSpec(kind="jacobi", size=3)), path)
        scipy.io.mmwrite(path / "M.mtx", np.diag([4.0] * 8 + [0.0]))
        code = main(["pipeline", "--system", str(path), "--tau", "10",
                     "--order", "3", "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("method,tau", [("both", "50"), ("tlbt", "50"), ("bt", "inf")])
    def test_lowrank_pipeline_past_dense_cap(self, tmp_path, capsys, monkeypatch, method, tau):
        monkeypatch.setenv("DTMOR_DENSE_CAP", "500")
        code = main(["pipeline", "--kind", "jacobi", "--size", "40", "--solver", "rksm-pm1",
                     "--tau", tau, "--order", "10", "--method", method,
                     "--out", str(tmp_path / "j")])
        capsys.readouterr()
        assert code == 0

    def test_smith_finishes_a_tlbt_job_on_a_grid(self, tmp_path, capsys):
        # the report's optional tau = inf pair of a smith job is the +-1 rksm
        # solve, which finishes where a polynomial walk would need ~800 steps
        source = ["--kind", "jacobi", "--size", "20", "--inputs", "2", "--outputs", "2",
                  "--seed", "1", "--tau", "50", "--order", "10"]
        reports = {}
        for solver, method in (("smith", "tlbt"), ("smith", "both"), ("rksm-pm1", "both")):
            out = tmp_path / f"{solver}-{method}"
            assert main(["pipeline", *source, "--solver", solver, "--method", method,
                         "--out", str(out)]) == 0
            reports[solver, method] = json.loads((out / "report.json").read_text())["reports"]
        capsys.readouterr()
        pm1 = _report_leaves(reports["rksm-pm1", "both"]["tlbt"])
        for method in ("tlbt", "both"):
            smith = _report_leaves(reports["smith", method]["tlbt"])
            assert smith.keys() == pm1.keys()
            for key, value in smith.items():
                if not key.endswith("sides_relative_gap"):
                    expect = pytest.approx(pm1[key], rel=1e-6) if type(value) is float else pm1[key]
                    assert value == expect, key
        # a BT model comes from the tau = inf pair alone: the same solves
        assert reports["smith", "both"]["bt"] == reports["rksm-pm1", "both"]["bt"]

    def test_smith_gramian_past_dense_cap(self, tmp_path, capsys, monkeypatch):
        # the window walk does no dense full-order work
        monkeypatch.setenv("DTMOR_DENSE_CAP", "500")
        code = main(["gramian", "--kind", "jacobi", "--size", "40", "--side", "reach",
                     "--tau", "50", "--solver", "smith", "--out", str(tmp_path / "g")])
        capsys.readouterr()
        assert code == 0

    def test_bad_flag_exits_2(self, capsys):
        assert main(["pipeline", "--tau", "banana"]) == 2
        capsys.readouterr()

    def test_simulate_and_gramian(self, tmp_path, capsys):
        assert main(["generate", "--kind", "random-stable", "--size", "6",
                     "--seed", "2", "--out", str(tmp_path / "sys")]) == 0
        assert main(["simulate", "--system", str(tmp_path / "sys"), "--input",
                     "impulse", "--horizon", "5", "--out", str(tmp_path / "t.csv")]) == 0
        lines = Path(tmp_path / "t.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        assert main(["gramian", "--system", str(tmp_path / "sys"), "--side", "reach",
                     "--tau", "10", "--solver", "smith",
                     "--out", str(tmp_path / "g")]) == 0
        assert (tmp_path / "g" / "basis.mtx").exists()
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        assert summary["tau"] == 10 and summary["residual"] <= 1e-8
        capsys.readouterr()

    def test_bounds_hsv_tail_matches_pipeline(self, tmp_path, capsys):
        # the tail comes from the model's own Gramians: infinite-horizon
        # ones for BT, window ones for TLBT
        source = ["--kind", "gauss-seidel", "--size", "8", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        assert main(["pipeline", *source, "--tau", "20", "--order", "4", "--method", "both",
                     "--solver", "dense", "--out", str(tmp_path / "job")]) == 0
        doc = json.loads((tmp_path / "job" / "report.json").read_text())
        for method in ("bt", "tlbt"):
            out = tmp_path / f"{method}.json"
            assert main(["bounds", *source, "--rom", str(tmp_path / "job" / f"rom_{method}"),
                         "--tau", "20", "--out", str(out)]) == 0
            tail = json.loads(out.read_text())["hsv_tail"]
            assert tail == pytest.approx(doc["reports"][method]["hsv_tail"], rel=1e-10)
        capsys.readouterr()

    def test_bounds_report_equals_pipeline_report(self, tmp_path, capsys):
        # pipeline and bounds ask one routine for each model's pairs and report
        source = ["--kind", "gauss-seidel", "--size", "12", "--inputs", "2",
                  "--outputs", "2", "--seed", "1"]
        job = tmp_path / "job"
        assert main(["pipeline", *source, "--tau", "30", "--order", "6", "--method", "both",
                     "--solver", "dense", "--out", str(job)]) == 0
        doc = json.loads((job / "report.json").read_text())
        for method in ("bt", "tlbt"):
            out = tmp_path / f"{method}.json"
            assert main(["bounds", *source, "--rom", str(job / f"rom_{method}"),
                         "--tau", "30", "--out", str(out)]) == 0
            assert json.loads(out.read_text()) == doc["reports"][method]
        capsys.readouterr()

    @pytest.mark.parametrize("text,whole", [("50.0", "50"), ("1e2", "100")])
    def test_tau_in_float_notation_runs_like_the_whole_number(self, tmp_path, capsys,
                                                               text, whole):
        # --tau is read as a float, and check_horizon is the one horizon rule
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        for tau in (text, whole):
            assert main(["pipeline", *source, "--tau", tau, "--order", "4", "--method", "both",
                         "--solver", "dense", "--out", str(tmp_path / tau)]) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(tmp_path / whole)
                       for p in (tmp_path / whole).rglob("*") if p.is_file())
        assert files
        for f in files:
            assert (tmp_path / text / f).read_bytes() == (tmp_path / whole / f).read_bytes()

    @pytest.mark.parametrize("command", ["pipeline", "reduce", "gramian", "bounds"])
    def test_fractional_tau_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     command):
        monkeypatch.setattr(dtmor.cli, "compute_gramian",
                            lambda *args: pytest.fail("a Gramian was solved"))
        extra = {"pipeline": ["--order", "3"], "reduce": ["--order", "3"], "gramian": [],
                 "bounds": ["--rom", str(tmp_path / "rom")]}[command]
        code = main([command, "--kind", "jacobi", "--size", "4", "--tau", "2.5", *extra,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "--tau" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", ["0", "-4"])
    def test_bounds_tau_below_one_exits_2_before_any_solve(self, tmp_path, capsys,
                                                           monkeypatch, tau):
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        rom = tmp_path / "rom"
        assert main(["reduce", *source, "--tau", "20", "--method", "bt", "--order", "4",
                     "--out", str(rom)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dtmor.cli, "compute_gramian",
                            lambda *args: pytest.fail("a Gramian was solved"))
        code = main(["bounds", *source, "--rom", str(rom), "--tau", tau,
                     "--out", str(tmp_path / "rep.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "--tau" in err
        assert not (tmp_path / "rep.json").exists()

    def test_bounds_tau_must_match_tlbt_window(self, tmp_path, capsys):
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        job = tmp_path / "job"
        assert main(["pipeline", *source, "--tau", "20", "--order", "4", "--method", "both",
                     "--solver", "dense", "--out", str(job)]) == 0
        capsys.readouterr()
        code = main(["bounds", *source, "--rom", str(job / "rom_tlbt"), "--tau", "40",
                     "--out", str(tmp_path / "tl.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--tau 40" in err and "tau=20" in err
        assert not (tmp_path / "tl.json").exists()
        # a BT model has no window of its own: any --tau bounds it
        assert main(["bounds", *source, "--rom", str(job / "rom_bt"), "--tau", "40",
                     "--out", str(tmp_path / "bt.json")]) == 0
        capsys.readouterr()

    def test_bounds_rom_past_numerical_rank_exits_3(self, tmp_path, capsys):
        # one input and two steps: the factor product has rank 2 < order 5
        assert main(["generate", "--kind", "random-stable", "--size", "5",
                     "--out", str(tmp_path / "rom")]) == 0
        code = main(["bounds", "--kind", "jacobi", "--size", "3", "--tau", "2",
                     "--rom", str(tmp_path / "rom"), "--out", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert code == 3

    def test_bounds_balances_the_model_pair_once(self, tmp_path, capsys, monkeypatch):
        # the Hankel tail and the balanced expressions come from one balancing
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        assert main(["reduce", *source, "--tau", "20", "--order", "4", "--solver", "dense",
                     "--out", str(tmp_path / "rom")]) == 0
        calls = []

        def counted(*args, _real=dtmor.balancing.balance):
            calls.append(args[-1])
            return _real(*args)
        monkeypatch.setattr(dtmor.balancing, "balance", counted)
        assert main(["bounds", *source, "--rom", str(tmp_path / "rom"), "--tau", "20",
                     "--balanced-expressions", "--constants", "eigen",
                     "--out", str(tmp_path / "rep.json")]) == 0
        capsys.readouterr()
        assert calls == [20]
        assert json.loads((tmp_path / "rep.json").read_text())["thm31"]["value"] >= 0

    def test_reduce_and_bounds_roundtrip(self, tmp_path, capsys):
        assert main(["generate", "--kind", "random-stable", "--size", "10",
                     "--inputs", "2", "--outputs", "2", "--seed", "4",
                     "--out", str(tmp_path / "sys")]) == 0
        for method in ("tlbt", "bt"):
            assert main(["reduce", "--system", str(tmp_path / "sys"), "--tau", "20",
                         "--method", method, "--order", "4", "--solver", "dense",
                         "--out", str(tmp_path / f"rom_{method}")]) == 0

        def bounds(method, *flags):
            out = tmp_path / f"{method}{len(flags)}.json"
            assert main(["bounds", "--system", str(tmp_path / "sys"),
                         "--rom", str(tmp_path / f"rom_{method}"), "--tau", "20",
                         *flags, "--out", str(out)]) == 0
            return json.loads(out.read_text())

        doc = bounds("tlbt", "--balanced-expressions", "--constants", "eigen")
        assert doc["thm32"]["total"] >= doc["thm31"]["value"] >= 0
        # the flag leaves a TLBT model's infinite-horizon norm to the trace form
        assert doc["inf_horizon"]["value_sq"] == bounds("tlbt")["inf_horizon"]["value_sq"]
        doc = bounds("bt", "--balanced-expressions")
        assert doc["inf_horizon"]["value_sq"] is not None
        assert doc["inf_horizon"]["upper_sq"] >= doc["inf_horizon"]["value_sq"] * (1 - 1e-9)
        capsys.readouterr()

    def test_bounds_balanced_expressions_on_rank_deficient_window(self, tmp_path, capsys):
        # desk-scale Gauss-Seidel grid: tau*m = 100 < n = 400, so the window
        # pair is balanced at its numerical rank
        source = ["--kind", "gauss-seidel", "--size", "20", "--inputs", "2",
                  "--outputs", "2", "--seed", "1"]
        job = tmp_path / "job"
        assert main(["pipeline", *source, "--tau", "50", "--order", "10", "--method", "both",
                     "--solver", "dense", "--out", str(job)]) == 0
        docs = {}
        for method in ("tlbt", "bt"):
            out = tmp_path / f"{method}.json"
            assert main(["bounds", *source, "--rom", str(job / f"rom_{method}"), "--tau", "50",
                         "--balanced-expressions", "--constants", "eigen",
                         "--out", str(out)]) == 0
            docs[method] = json.loads(out.read_text())
        capsys.readouterr()
        tl = docs["tlbt"]
        assert tl["thm31"]["value"] == pytest.approx(tl["prop23"]["epsilon"] ** 2, rel=1e-4)
        assert tl["thm32"]["total"] >= tl["thm31"]["value"]
        bt = docs["bt"]
        assert bt["thm31"]["value"] is None and bt["thm32"]["total"] is None
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=20, inputs=2,
                                         outputs=2, seed=1))
        diff = impulse_sequence(s, 3000) - impulse_sequence(read_system(job / "rom_bt"), 3000)
        inf = bt["inf_horizon"]
        assert inf["value_sq"] == pytest.approx(float(np.sum(diff ** 2)), rel=1e-5)
        assert inf["upper_sq"] >= inf["value_sq"]

    def test_bounds_bt_model_solves_only_infinite_horizon_gramians(self, tmp_path, capsys,
                                                                   monkeypatch):
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        job = tmp_path / "job"
        assert main(["pipeline", *source, "--tau", "20", "--order", "4", "--method", "bt",
                     "--solver", "dense", "--out", str(job)]) == 0
        taus = []
        original = dtmor.dense_stein.tl_gramian_dense

        def recording(system, tau, side="reach"):
            taus.append(tau)
            return original(system, tau, side)
        monkeypatch.setattr(dtmor.dense_stein, "tl_gramian_dense", recording)
        monkeypatch.setattr(dtmor.bounds, "tl_gramian_dense", recording)
        for flags in ([], ["--balanced-expressions"]):
            taus.clear()
            assert main(["bounds", *source, "--rom", str(job / "rom_bt"), "--tau", "20",
                         *flags, "--out", str(tmp_path / "rep.json")]) == 0
            assert taus and all(math.isinf(t) for t in taus)
        capsys.readouterr()

    def test_bounds_constants_need_balanced_expressions(self, tmp_path, capsys):
        source = ["--kind", "gauss-seidel", "--size", "6", "--inputs", "2",
                  "--outputs", "2", "--seed", "3"]
        job = tmp_path / "job"
        assert main(["pipeline", *source, "--tau", "20", "--order", "4", "--method", "tlbt",
                     "--solver", "dense", "--out", str(job)]) == 0
        capsys.readouterr()
        assert main(["bounds", *source, "--rom", str(job / "rom_tlbt"), "--tau", "20",
                     "--constants", "eigen", "--out", str(tmp_path / "rep.json")]) == 2
        assert "--balanced-expressions" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--sim-horizon", "-1", "--tau", "10", "--order", "3"],
        ["pipeline", "--tau", "10", "--order", "0"],
        ["reduce", "--tau", "10", "--order", "-1"],
        ["reduce", "--tau", "10", "--method", "bt", "--order", "0"],
        ["simulate", "--horizon", "-1"],
    ])
    def test_negative_horizon_and_order_below_one_exit_2(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        # rejected as configuration before any Gramian solve or input is built
        monkeypatch.setattr(dtmor.cli, "compute_gramian",
                            lambda *args: pytest.fail("a Gramian was solved"))
        code = main([*argv, "--kind", "jacobi", "--size", "4", "--inputs", "2",
                     "--outputs", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and ("horizon" in err or "order" in err)
        assert not (tmp_path / "out").exists()

    def test_job_config_rejects_negative_sim_horizon_and_order_below_one(self):
        spec = ExampleSpec(kind="jacobi", size=4)
        JobConfig(example=spec, tau=10, order=1, sim_horizon=0).validate()
        with pytest.raises(ConfigError, match="horizon"):
            JobConfig(example=spec, tau=10, order=1, sim_horizon=-1).validate()
        with pytest.raises(ConfigError, match="order"):
            JobConfig(example=spec, tau=10, order=0).validate()

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--tau", "10", "--order", "2", "--solver", "rksm-pm1", "--max-iter", "0"],
        ["gramian", "--tau", "inf", "--solver", "smith", "--max-iter", "0"],
        ["pipeline", "--tau", "10", "--hsv-tol", "-1"],
        ["reduce", "--tau", "10", "--hsv-tol", "-1"],
    ])
    def test_max_iter_below_one_and_negative_hsv_tol_exit_2(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        # rejected as configuration, not blamed on a solver that never ran
        for module, name in ((dtmor.lowrank, "rksm"), (dtmor.lowrank, "smith_arnoldi"),
                             (dtmor.dense_stein, "tl_gramian_dense")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("a Gramian was solved"))
        code = main([*argv, "--kind", "jacobi", "--size", "4", "--inputs", "2",
                     "--outputs", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and ("max_iterations" in err or "hsv" in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pipeline", "gramian"])
    @pytest.mark.parametrize("solver", dtmor.cli.SOLVERS)
    @pytest.mark.parametrize("flag", [["--max-iter", "0"], ["--tol", "5"], ["--cadence", "0"],
                                      ["--tl-tol", "2"]], ids=lambda flag: flag[0][2:])
    def test_bad_solver_settings_exit_2_before_the_system_is_built(
            self, tmp_path, capsys, monkeypatch, command, solver, flag):
        # the job's SolverConfig checks each setting, whatever the solver
        for name in ("generate_example", "read_system"):
            monkeypatch.setattr(dtmor.cli, name, lambda *args: pytest.fail("a system was built"))
        order = ["--order", "2"] if command == "pipeline" else []
        code = main([command, "--kind", "jacobi", "--size", "4", "--inputs", "2",
                     "--outputs", "2", "--tau", "10", *order, "--solver", solver, *flag,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gramian", "reduce", "pipeline"])
    def test_tau_below_one_exits_2_before_the_system_is_built(self, tmp_path, capsys,
                                                              monkeypatch, command):
        monkeypatch.setattr(dtmor.cli, "generate_example",
                            lambda *args: pytest.fail("a system was built"))
        order = [] if command == "gramian" else ["--order", "2"]
        code = main([command, "--kind", "jacobi", "--size", "4", "--tau", "0", *order,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "--tau" in err
        assert not (tmp_path / "out").exists()

    def test_job_config_rejects_negative_hsv_tol(self):
        spec = ExampleSpec(kind="jacobi", size=4)
        JobConfig(example=spec, tau=10, hsv_tol=0.0).validate()
        with pytest.raises(ConfigError, match="hsv"):
            JobConfig(example=spec, tau=10, hsv_tol=-1.0).validate()

    @pytest.mark.parametrize("storage", [np.asarray, scipy.sparse.csr_matrix])
    def test_gramian_with_shift_on_an_eigenvalue(self, tmp_path, capsys, storage):
        # the -1 shift hits an eigenvalue of A; dense and sparse storage agree
        A = storage(np.diag([-1.0, 0.5, 0.3]))
        write_system(DiscreteLTISystem(A, np.ones((3, 1)), np.ones((1, 3))), tmp_path / "sys")
        out = tmp_path / "g"
        assert main(["gramian", "--system", str(tmp_path / "sys"), "--tau", "5",
                     "--solver", "rksm-pm1", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 3 and summary["rank"] == 3
        assert summary["residual"] <= 1e-12


class TestUncoveredCommandPaths:
    def test_seeded_random_pipeline_bounds_and_reruns(self, tmp_path, capsys):
        argv = ["pipeline", "--kind", "jacobi", "--size", "6", "--inputs", "2",
                "--outputs", "2", "--seed", "1", "--tau", "12", "--order", "3",
                "--method", "both", "--input", "seeded-random", "--input-seed", "5"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        names = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                       if p.is_file())
        assert names == sorted(p.relative_to(tmp_path / "b")
                               for p in (tmp_path / "b").rglob("*") if p.is_file())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        lines = (tmp_path / "a" / "errors.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        in_window = [row for row in rows if int(row["k"]) <= 12]
        assert len(in_window) == 13 and any(float(row["error_bt"]) > 0 for row in in_window)
        for row in in_window:
            for method in ("bt", "tlbt"):
                assert float(row[f"bound_{method}"]) >= float(row[f"error_{method}"])

    def test_dense_gramian_command(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gramian", "--kind", "gauss-seidel", "--size", "5", "--inputs", "2",
                     "--outputs", "2", "--seed", "3", "--side", "obs", "--tau", "12",
                     "--solver", "dense", "--out", str(out)]) == 0
        capsys.readouterr()
        assert scipy.io.mmread(out / "gramian.mtx").shape == (25, 25)
        assert scipy.io.mmread(out / "tl_term.mtx").shape == (25, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["side"] == "obs" and summary["tau"] == 12
        assert summary["residual"] <= 1e-12

    def test_dense_and_smith_gramian_summaries_agree_on_rank(self, tmp_path, capsys):
        # the dense rank is the numerical rank of gramian.mtx, not n
        summaries = {}
        for solver in ("dense", "smith"):
            out = tmp_path / solver
            assert main(["gramian", "--kind", "gauss-seidel", "--size", "5", "--inputs", "2",
                         "--outputs", "2", "--seed", "3", "--side", "obs", "--tau", "12",
                         "--solver", solver, "--out", str(out)]) == 0
            summaries[solver] = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert summaries["dense"]["rank"] == summaries["smith"]["rank"] < 25
        lam = np.linalg.eigvalsh(scipy.io.mmread(tmp_path / "dense" / "gramian.mtx"))
        assert summaries["dense"]["rank"] == int(np.sum(lam > 1e-12 * lam.max()))
