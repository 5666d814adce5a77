"""Run the dtmor benchmark: whole reduction jobs, timed from outside.

    python3 bench/run.py --workload desk-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1        # every workload, one process each

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the jobs run untouched and the last line of the output is
a JSON object with the end-to-end metrics; with ``--trace 1`` every job is
traced and the JSON carries the per-layer metrics.  Result files and spans
are written under ``.bench_work/``.  See bench/README.md for the workloads
and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("desk-dense", "pipeline-lowrank", "large-tlbt")
SETUP_REPEATS = 5      # set-up and reference pairs in fresh interpreters
# CPU seconds of the reference import on the machine of the first baseline;
# setup_s is the set-up's CPU time at that machine speed
REFERENCE_S = 0.40
# the reference: a fixed set of dependency imports, independent of dtmor
REFERENCE = ("import time; c = time.process_time(); "
             "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg; "
             "print(time.process_time() - c)")
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def source_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*.py")):
            h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def blas_info() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and the threads it will use."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return name, threads


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas, threads = blas_info()
    return {"commit": git_commit(), "source_sha256": source_digest(SRC / "dtmor"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "nproc": nproc, "seed": seed}


def timed_setup(name: str, seed: int, work: Path):
    """Import the package and build the workload's inputs; returns the
    workload object and the CPU seconds that took."""
    c0 = time.process_time()
    import workloads
    w = workloads.WORKLOADS[name]()
    w.setup(work, seed)
    return w, time.process_time() - c0


def child_cpu_seconds(argv: list[str]) -> float:
    """The CPU seconds that a fresh interpreter prints as its last line.

    CPU time, unlike wall time, does not grow when other processes share
    the cores.  The child uses one BLAS thread, so no idle BLAS thread
    spins on the clock and the CPU time is the work it does.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         timeout=120, env=env)
    if res.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} failed:\n{res.stderr}")
    return float(res.stdout.strip().splitlines()[-1])


def setup_sample(name: str, seed: int, k: int) -> tuple[float, float]:
    """CPU seconds of the reference import and then of the set-up, each in
    a fresh interpreter.

    The speed of the shared machine for import-like work drifts by up to
    1.6x within minutes, in both CPU and wall time; the ratio of the two
    timings, taken a second apart, cancels most of that drift.
    """
    ref = child_cpu_seconds(["-c", REFERENCE])
    work = WORK / f"{name}-s{seed}-setup{k}"
    try:
        setup = child_cpu_seconds([str(BENCH / "run.py"), "--setup-only",
                                   "--workload", name, "--seed", str(seed),
                                   "--work", str(work)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ref, setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(w, out: Path, seconds: float, traced: bool, between):
    """Run jobs until the next one would take the job time past
    ``seconds``; at least one job runs.  In a traced run every job is
    traced.  ``between(job_seconds)`` runs before each job, untimed.

    Returns (job seconds, outcomes, the jobs' tracers, peak RSS through the
    first job).
    """
    import layers
    from spans import Tracer
    from workloads import Outcome

    samples, outcomes, tracers = [], [], []
    while not samples or sum(samples) + statistics.median(samples) <= seconds:
        between(sum(samples))
        shutil.rmtree(out, ignore_errors=True)
        tracer = Tracer()
        tracer.job = len(samples)
        if traced:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            result = w.job(out)
        except Exception as exc:  # a failed job is counted, the run goes on
            result = exc
        samples.append(time.perf_counter() - t0)
        tracer.restore()
        tracers.append(tracer)
        if isinstance(result, Exception):
            print(f"job {tracer.job} raised {type(result).__name__}: {result}",
                  file=sys.stderr)
            outcomes.append(Outcome(digest="", failures=[f"raised {type(result).__name__}"]))
        else:
            outcomes.append(w.check(out, result))
        if len(samples) == 1:
            # later jobs raise the peak by an amount that varies from run to
            # run (heap the allocator kept), so the gated peak stops here
            first_peak = peak_rss_mb()
    return samples, outcomes, tracers, first_peak


def trace_cost(tracers, samples) -> dict:
    """What tracing adds to each job: its wrapped calls times the measured
    cost of one wrapper, plus the time its notes took.  ``overhead`` is the
    median over jobs of that cost as a share of the job's untraced time."""
    from spans import wrapper_seconds
    per_call = wrapper_seconds()
    added = [len(t.spans) * per_call + t.note_seconds for t in tracers]
    return {"overhead": statistics.median(a / (s - a) for a, s in zip(added, samples)),
            "jobs": len(tracers),
            "wrapped_calls": statistics.median(len(t.spans) for t in tracers),
            "wrapper_s": per_call,
            "note_s": statistics.median(t.note_seconds for t in tracers)}


def run_workload(args, nproc: int) -> dict:
    name, seed = args.workload, args.seed
    work = WORK / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w, _ = timed_setup(name, seed, work)
    import dtmor
    if Path(dtmor.__file__).resolve().parent != (SRC / "dtmor").resolve():
        raise RuntimeError(f"imported dtmor from {dtmor.__file__}, not from {SRC}")
    from stats import DigestBook, summarize
    import layers

    pairs = []

    def keep_pace(job_seconds: float) -> None:
        """Take set-up samples in step with the job time that has passed.
        The machine's speed drifts within a run, and samples taken in one
        burst would all see one moment of it."""
        want = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * job_seconds / args.seconds))
        while len(pairs) < want:
            pairs.append(setup_sample(name, seed, len(pairs)))

    env = environment(seed, nproc)
    samples, outcomes, tracers, first_peak = run_jobs(
        w, work / "out", args.seconds, args.trace == 1, keep_pace)
    keep_pace(args.seconds)
    book = DigestBook(WORK / "digests.json")
    # a change to the package or to the jobs starts a new reference digest
    key = f"{name}/seed{seed}/{source_digest(SRC / 'dtmor', BENCH)[:16]}"
    for o in outcomes:
        if o.digest and not book.check(key, o.digest):
            o.failures.append("output digest differs from the first run with this seed")
    failed = sum(1 for o in outcomes if o.failures)
    probes = []
    if name == "desk-dense":
        probes = w.probe_contracts(work, seed, work / "out" / "rom_tlbt")

    ok = [o for o in outcomes if not o.failures]
    rom_error = statistics.median(o.rom_error for o in ok) if ok else float("nan")
    rom_ratio = (statistics.median(o.rom_bound / o.rom_error for o in ok)
                 if ok else float("nan"))
    end_to_end = {
        "job_s": statistics.median(samples),
        "setup_s": REFERENCE_S * statistics.median(s / r for r, s in pairs),
        "peak_rss_mb": first_peak,
    }
    report = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "job_s": summarize(samples), "job_s_samples": samples,
        "setup_cpu_s_samples": [s for _, s in pairs],
        "reference_cpu_s_samples": [r for r, _ in pairs],
        "attempted": len(outcomes), "failed": failed,
        "fail_rate": failed / len(outcomes),
        "failures": [o.failures for o in outcomes if o.failures],
        "rom_method": w.method, "rom_error": rom_error, "rom_bound_ratio": rom_ratio,
        "contract_probes": probes,
        "contract_failures": sum(1 for p in probes if not p["documented"]),
        "peak_rss_mb_whole_run": peak_rss_mb(),
        "end_to_end": end_to_end,
    }
    if args.trace == 1:
        per_job = [layers.job_metrics(t.spans, w.n) for t in tracers]
        per_layer = {m: statistics.median(j[m] for j in per_job) for m in layers.UNITS}
        report["trace_cost"] = trace_cost(tracers, samples)
        per_layer["trace_overhead"] = report["trace_cost"]["overhead"]
        per_layer["rom_error"] = rom_error
        per_layer["rom_bound_ratio"] = rom_ratio
        report["per_layer"] = per_layer
        spans_doc = [[vars(s) for s in t.spans] for t in tracers]
        write_json(WORK / "results" / f"{name}-seed{seed}-spans.json", spans_doc)
    write_json(WORK / "results" / f"{name}-seed{seed}-trace{args.trace}.json", report)
    shutil.rmtree(work, ignore_errors=True)
    return report


def per_layer_units() -> dict:
    import layers
    return {**layers.UNITS, "trace_overhead": "ratio", "rom_error": "abs",
            "rom_bound_ratio": "ratio"}


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")


def print_report(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"({r['attempted']} jobs in about {r['seconds']} s)")
    j = r["job_s"]
    rows = [("job_s", f"{j['median']:.4f}", "s",
             f"median of {j['samples']} {'traced' if r['trace'] else 'untraced'} jobs"
             + "".join(f", {k} {v:.4f}" for k, v in j.items() if k.startswith("p"))),
            ("setup_s", f"{r['end_to_end']['setup_s']:.4f}", "s",
             f"CPU time at reference speed, median of {len(r['setup_cpu_s_samples'])} set-ups"),
            ("peak_rss_mb", f"{r['end_to_end']['peak_rss_mb']:.1f}", "MB",
             f"through set-up and the first job ({r['peak_rss_mb_whole_run']:.1f} for the run)"),
            ("fail_rate", f"{r['fail_rate']:.3f}", "ratio",
             f"{r['failed']} of {r['attempted']} jobs failed"),
            ("rom_error", f"{r['rom_error']:.5e}", "abs",
             f"largest {r['rom_method'].upper()} output error in the window, impulse input"),
            ("rom_bound_ratio", f"{r['rom_bound_ratio']:.4f}", "ratio",
             f"{r['rom_method'].upper()} bound level / rom_error")]
    if r["contract_probes"]:
        codes = ", ".join(f"{p['name']} exit {p['exit_code']}" for p in r["contract_probes"])
        rows.append(("contract_failures", str(r["contract_failures"]), "count", codes))
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14} {unit:<6} {note}")
    if "per_layer" in r:
        units = per_layer_units()
        c = r["trace_cost"]
        notes = {"trace_overhead":
                 f"median of {c['jobs']} jobs: {c['wrapped_calls']:g} wrapped calls x "
                 f"{c['wrapper_s'] * 1e6:.2f} us + {c['note_s'] * 1e3:.2f} ms in notes"}
        for name, value in r["per_layer"].items():
            print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}".rstrip())
    for f in r["failures"]:
        print(f"  FAILED: {'; '.join(f)}")
    print("  environment: " + json.dumps(r["environment"], sort_keys=True))


def result_line(r: dict) -> str:
    if r["trace"] == 1:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in r["end_to_end"].items()}
    return json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = res.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode != 0 or not lines:
            print(f"{name}: exit code {res.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": code == 0 and all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    if not (SRC / "dtmor" / "__init__.py").is_file():
        print(f"no dtmor package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, args.work)[1])
        return 0
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args, nproc)
    print_report(report)
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
