"""The package calls the benchmark wraps, and the per-layer metrics taken
from their spans.

Each entry wraps a name where its callers look it up: ``cli`` calls
``compute_gramian``, ``read_system``, ``write_bundle``, ``error_table`` and
``simulate`` through its own globals, ``bounds`` imported
``tl_gramian_dense`` and ``solve_cross_sylvester`` by name, and ``lowrank``
imported ``solve_projected_tl`` by name.  Spans are named after the module
that defines the function, so the metric names say which layer did the work.
"""
from __future__ import annotations

from pathlib import Path

from dtmor import balancing, bounds, cli, dense_stein, lowrank, system

from spans import Span, Tracer, self_times

_REAL_SHIFT_TOL = 1e-14  # the same test lowrank uses to call a shift real


def factorizations(shifts) -> int:
    """Shifted factorizations implied by a returned shift list.

    rksm factorizes each distinct shift once; after a complex shift it
    appends the conjugate, which the same complex solve covers.
    """
    distinct, skip = set(), False
    for s in shifts:
        if skip:
            skip = False
            continue
        s = complex(s)
        distinct.add(s)
        skip = abs(s.imag) > _REAL_SHIFT_TOL
    return len(distinct)


def _note_rksm(attrs, args, kwargs, res):
    attrs.update(
        iterations=res.iterations, rank=res.rank,
        columns_built=res.records[-1].basis_columns if res.records else res.rank,
        deflated=res.deflated_columns, residual=res.residual,
        factorizations=factorizations(res.shifts))


def _note_n(attrs, args, kwargs, res):
    attrs["n"] = args[0].n  # the system argument, or self for methods


def _note_gap(attrs, args, kwargs, res):
    attrs["gap"] = res.sides_relative_gap


def _note_bytes(attrs, args, kwargs, res):
    attrs["bytes"] = sum(f.stat().st_size for f in Path(res).rglob("*") if f.is_file())


WRAPS = (
    (cli, "compute_gramian", "cli.compute_gramian", None),
    (cli, "read_system", "system.read_system", None),
    (cli, "write_bundle", "cli.write_bundle", _note_bytes),
    (cli, "error_table", "cli.error_table", None),
    (cli, "simulate", "system.simulate", None),
    (lowrank, "rksm", "lowrank.rksm", _note_rksm),
    (lowrank, "solve_projected_tl", "dense_stein.solve_projected_tl", None),
    (balancing, "square_root_truncate", "balancing.square_root_truncate", None),
    (bounds, "build_bound_report", "bounds.build_bound_report", None),
    (bounds, "bound_output_tl", "bounds.bound_output_tl", _note_gap),
    (bounds, "tl_gramian_dense", "dense_stein.tl_gramian_dense", _note_n),
    (dense_stein, "tl_gramian_dense", "dense_stein.tl_gramian_dense", _note_n),
    (bounds, "solve_cross_sylvester", "dense_stein.solve_cross_sylvester", None),
    (system.DiscreteLTISystem, "spectral_radius", "system.spectral_radius", _note_n),
)


def install(tracer: Tracer) -> None:
    for owner, attr, name, note in WRAPS:
        tracer.wrap(owner, attr, name, note)


# metric name -> unit; the order is the order of the printout
UNITS = {
    "lowrank.rksm_s": "s",
    "lowrank.rksm_calls": "count",
    "lowrank.iterations": "count",
    "lowrank.columns_built": "count",
    "lowrank.rank": "count",
    "lowrank.rank_per_column": "ratio",
    "lowrank.deflated_columns": "count",
    "lowrank.s_per_iteration": "s",
    "lowrank.factorizations": "count",
    "lowrank.residual_max": "ratio",
    "dense_stein.projected_s": "s",
    "dense_stein.projected_calls": "count",
    "dense_stein.tl_gramian_s": "s",
    "dense_stein.full_order_calls": "count",
    "dense_stein.cross_sylvester_s": "s",
    "dense_stein.cross_sylvester_calls": "count",
    "system.spectral_radius_s": "s",
    "system.full_order_eigensolves": "count",
    "bounds.build_bound_report_s": "s",
    "bounds.bound_output_tl_s": "s",
    "bounds.bound_output_tl_calls": "count",
    "bounds.sides_gap": "ratio",
    "balancing.square_root_truncate_s": "s",
    "system.simulate_s": "s",
    "cli.error_table_s": "s",
    "system.read_system_s": "s",
    "cli.write_bundle_s": "s",
    "cli.bytes_written": "bytes",
}

# per-layer self-time metrics and the span each one sums
_SELF_TIME = {
    "lowrank.rksm_s": "lowrank.rksm",
    "dense_stein.projected_s": "dense_stein.solve_projected_tl",
    "dense_stein.tl_gramian_s": "dense_stein.tl_gramian_dense",
    "dense_stein.cross_sylvester_s": "dense_stein.solve_cross_sylvester",
    "system.spectral_radius_s": "system.spectral_radius",
    "bounds.build_bound_report_s": "bounds.build_bound_report",
    "bounds.bound_output_tl_s": "bounds.bound_output_tl",
    "balancing.square_root_truncate_s": "balancing.square_root_truncate",
    "system.simulate_s": "system.simulate",
    "cli.error_table_s": "cli.error_table",
    "system.read_system_s": "system.read_system",
    "cli.write_bundle_s": "cli.write_bundle",
}

_CALLS = {
    "lowrank.rksm_calls": "lowrank.rksm",
    "dense_stein.projected_calls": "dense_stein.solve_projected_tl",
    "dense_stein.cross_sylvester_calls": "dense_stein.solve_cross_sylvester",
    "bounds.bound_output_tl_calls": "bounds.bound_output_tl",
}


def job_metrics(spans: list[Span], n: int) -> dict[str, float]:
    """Per-layer metrics of one job from its spans; ``n`` is the order of
    the job's system, which marks a dense_stein or system call as full order."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def full_order(name):
        return sum(1 for i in by_name.get(name, ()) if spans[i].attrs.get("n") == n)

    out = {m: sum(own[i] for i in by_name.get(name, ())) for m, name in _SELF_TIME.items()}
    out.update({m: len(by_name.get(name, ())) for m, name in _CALLS.items()})

    rksm = by_name.get("lowrank.rksm", ())
    iterations = attr_sum("lowrank.rksm", "iterations")
    built = attr_sum("lowrank.rksm", "columns_built")
    rank = attr_sum("lowrank.rksm", "rank")
    out.update({
        "lowrank.iterations": iterations,
        "lowrank.columns_built": built,
        "lowrank.rank": rank,
        "lowrank.rank_per_column": rank / built if built else 0.0,
        "lowrank.deflated_columns": attr_sum("lowrank.rksm", "deflated"),
        "lowrank.s_per_iteration":
            sum(spans[i].duration for i in rksm) / iterations if iterations else 0.0,
        "lowrank.factorizations": attr_sum("lowrank.rksm", "factorizations"),
        "lowrank.residual_max": max((spans[i].attrs["residual"] for i in rksm
                                     if "residual" in spans[i].attrs), default=0.0),
        "dense_stein.full_order_calls": full_order("dense_stein.tl_gramian_dense"),
        "system.full_order_eigensolves": full_order("system.spectral_radius"),
        "bounds.sides_gap": max((spans[i].attrs.get("gap", 0.0)
                                 for i in by_name.get("bounds.bound_output_tl", ())),
                                default=0.0),
        "cli.bytes_written": attr_sum("cli.write_bundle", "bytes"),
    })
    return {m: out[m] for m in UNITS}
