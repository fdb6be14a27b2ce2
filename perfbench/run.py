"""emq benchmark: end-to-end and per-layer metrics over two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, nothing else is needed.  Workloads:

  symbolic_sweep   one warm process: verify, reduce, propagate and anomaly on
                   the bundled models over seed-drawn --seed values, plus
                   classical-mode files and the negative cases
  lattice_scaling  generated lattice files at fixed sizes (imaginary time at
                   n = 1024 and 2048, real time at n = 16384, classical mode)
                   plus thermal-path library jobs

Every job's verdict is checked against the hand-written table in
expected.py.  With --trace 0 the last line of output carries the end-to-end
metrics; with --trace 1 the same jobs run again under the outside-in tracer
(tracing.py), the verdicts of both passes must agree, and the last line
carries the per-layer metrics.  Lines before it are a readable report with
the environment, the workload seed, why the workload was chosen and the raw
timings.

Job and set-up times are scaled to a fixed host speed, measured by the
reference loops in reference.py: the interpreter loop for interpreter-bound
jobs and set-up, the numpy loop for native jobs (thermal paths, and the
imaginary- and real-time lattice runs of lattice_scaling).  The report
prints the raw times too.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread: the loop has one client running one job at a time, and on
# a 2-CPU machine a second BLAS thread spinning after each call slows the
# interpreter thread by 15-20% and makes run-to-run figures wander.  Set
# before numpy is first imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import expected  # noqa: E402  (sibling modules of this script)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("symbolic_sweep", "lattice_scaling")
KINDS = ("verify", "reduce", "propagate", "anomaly", "paths")
END_TO_END = (("setup_s", "s"), ("wall_s", "s")) + tuple(
    (f"{k}_p50_s", "s") for k in KINDS) + (("job_tail_s", "s"),
                                           ("peak_rss_mb", "MB"))
SETUP_PROBES = 11
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _blas_threads():
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": _blas_threads()}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "emq", "__init__.py")):
        raise BenchError(f"no emq sources under {SRC}")
    sys.path.insert(0, SRC)
    import emq.cli
    if not os.path.abspath(emq.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"emq imported from {emq.cli.__file__}, not {SRC}")
    return emq.cli


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def _subprocess(argv, cwd):
    """Run a child to completion; kill and reap it on timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + "\ntimed out"
    return proc.returncode, out, err


def run_paths(spec: dict) -> dict:
    """One thermal-path sampling job through the emq library."""
    from emq import pathint
    if spec["fn"] == "brownian":
        return pathint.brownian_increment_report(
            n_slices=spec["n_slices"], beta=spec["beta"], mass=spec["mass"],
            omega=spec["omega"], n_samples=spec["n_samples"],
            seed=spec["seed"])
    from emq.reduction import run_reduction
    from emq.sysfile import load_model
    model = load_model(spec["model"])
    *_, result = run_reduction(model.system, model.constraint, model.darboux,
                               seed=spec["seed"])
    out = pathint.holder_slopes(result.system, model.params,
                                n_samples=spec["n_samples"], seed=spec["seed"])
    return {k: out[k] for k in ("quantum_slope", "classical_slope")}


def run_job(cli, job) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        if job.kind == "paths":
            return {"exit": 0, "result": run_paths(job.paths)}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a crash is a verdict; keep the run going
        return {"crash": traceback.format_exc(), "exit": None}
    err = err.getvalue()
    if code is None or "Traceback" in err:
        return {"crash": err or "no exit", "exit": code}
    result = {"exit": code, "stderr": err}
    if out.getvalue().strip():
        try:
            result["report"] = json.loads(out.getvalue())
        except json.JSONDecodeError:
            return {"crash": f"unreadable output: {out.getvalue()[:200]}",
                    "exit": code}
    return result


def run_pass(wl, cli):
    """All jobs once, one at a time, each between two reference times: the
    numpy loop's for a native job, else the interpreter loop's.  Returns
    outcomes, raw durations, (before, after) reference times per job and
    the raw wall time."""
    outcomes, durations, refs = [], [], []
    interp = reference.measure()
    t_start = time.perf_counter()
    for job in wl.jobs:
        before = reference.measure_native() if job.native else interp
        t0 = time.perf_counter()
        outcomes.append(run_job(cli, job))
        durations.append(time.perf_counter() - t0)
        after = reference.measure_native() if job.native else None
        interp = reference.measure()
        refs.append((before, after or interp))
    return outcomes, durations, refs, time.perf_counter() - t_start


def job_times(wl, durations, refs):
    """Each job's time scaled to the nominal speed of its reference."""
    return [reference.scale(d, *ref, nominal=reference.NATIVE_NOMINAL_S
                            if job.native else reference.NOMINAL_S)
            for job, d, ref in zip(wl.jobs, durations, refs)]


def measure_setup(wl, work):
    """Medians over fresh processes of import emq.cli plus model loading,
    scaled by the reference time each process measured, and raw."""
    scaled, raw, imports = [], [], []
    for _ in range(SETUP_PROBES):
        code, out, err = _subprocess(
            [sys.executable, os.path.join(HERE, "child.py"), *wl.models],
            work)
        if code != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-400:]}")
        probe = json.loads(out)
        if not os.path.abspath(probe["emq_file"]).startswith(SRC + os.sep):
            raise BenchError(f"child imported emq from {probe['emq_file']}")
        total = probe["import_s"] + probe["load_s"]
        raw.append(total)
        scaled.append(total * reference.NOMINAL_S / probe["ref_s"])
        imports.append(probe["import_s"])
    return (statistics.median(scaled), statistics.median(raw),
            statistics.median(imports))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(durations):
    """Highest percentile with at least ten jobs beyond it: (value, pct, n)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(wl, durations, setup_s, peak_rss_mb) -> dict:
    values = {"setup_s": setup_s, "wall_s": sum(durations)}
    for kind in KINDS:
        times = [d for j, d in zip(wl.jobs, durations) if j.kind == kind]
        if not times:
            raise BenchError(f"{wl.name} has no {kind} job")
        values[f"{kind}_p50_s"] = statistics.median(times)
    values["job_tail_s"] = tail(durations)[0]
    values["peak_rss_mb"] = peak_rss_mb
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def check_all(wl, outcomes, table=expected.EXPECTED):
    failures = []
    for job, outcome in zip(wl.jobs, outcomes):
        problems = expected.check(job, outcome, table)
        if problems:
            failures.append((job.label, problems))
    return failures


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name, seed, seconds, trace, work, size="full", units=None):
    cli = _import_program()
    wl = workloads.generate(name, SRC, work, seed,
                            units or workloads.units_for(name, seconds), size)
    setup_s, setup_raw, import_s = measure_setup(wl, work)
    outcomes, durations, refs, wall = run_pass(wl, cli)
    times = job_times(wl, durations, refs)
    rss = peak_rss_mb()
    failures = check_all(wl, outcomes)
    res = {"workload": wl, "outcomes": outcomes, "durations": durations,
           "times": times, "refs": refs, "failures": failures, "wall": wall,
           "setup_raw": setup_raw}
    if not trace:
        values = end_to_end(wl, times, setup_s, rss)
        res["metrics"] = {k: (values[k], u) for k, u in END_TO_END}
        return res
    snapshot, t_outcomes, t_times = traced_pass(wl, cli)
    mismatched = [j.label for j, a, b in zip(wl.jobs, outcomes, t_outcomes)
                  if expected.verdict(a) != expected.verdict(b)]
    res["failures"] += [(lbl, ["traced verdict differs"]) for lbl in mismatched]
    layers = tracing.layer_metrics(snapshot, import_s,
                                   sum(t_times) / sum(times))
    res["metrics"] = {k: (layers[k], u) for k, u in tracing.LAYER_METRICS}
    return res


def traced_pass(wl, cli):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, durations, refs, _ = run_pass(wl, cli)
    finally:
        tracer.uninstall()
    return tracer.snapshot(), outcomes, job_times(wl, durations, refs)


def report(res, seed, seconds, trace) -> list:
    wl = res["workload"]
    jobs, durations = wl.jobs, res["times"]
    attempted = len(jobs)
    failed = len(res["failures"])
    lines = [f"emq benchmark: workload {wl.name}, seed {seed}, "
             f"--seconds {seconds}, trace {trace}",
             f"  why: {wl.why}",
             f"  environment: {json.dumps(environment())}",
             f"  units: {wl.units} x {attempted // wl.units} jobs, closed loop,"
             f" one client, one job at a time",
             f"  jobs attempted {attempted}, failed {failed}, "
             f"error_rate {failed / attempted:.4f}"]
    _, pct, n = tail(durations)
    lines.append(f"  job_tail_s is p{pct:.1f} of {n} jobs")
    for native, loop, nominal in ((False, "interpreter", reference.NOMINAL_S),
                                  (True, "numpy", reference.NATIVE_NOMINAL_S)):
        refs = [r for job, ref in zip(jobs, res["refs"])
                if job.native == native for r in ref]
        lines.append(f"  {loop} reference loop: {len(refs)} timings, median "
                     f"{statistics.median(refs) * 1e3:.3f} ms, range "
                     f"{min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms, "
                     f"nominal {nominal * 1e3:.3f} ms")
    lines.append(f"  raw: wall {res['wall']:.3f} s with the reference loops, "
                 f"jobs {sum(res['durations']):.3f} s, "
                 f"setup {res['setup_raw']:.4f} s")
    mix = {}
    for job, took, raw in zip(jobs, durations, res["durations"]):
        times, raws = mix.setdefault(job.expect, ([], []))
        times.append(took)
        raws.append(raw)
    for key, (times, raws) in mix.items():
        lines.append(f"  job {key}: {len(times)} runs, "
                     f"median {statistics.median(times):.4f} s, "
                     f"raw {statistics.median(raws):.4f} s")
    for label, problems in res["failures"]:
        lines.append(f"  WRONG {label}: {'; '.join(problems)}")
    for name, (value, unit) in res["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    return lines


def result_line(res) -> str:
    attempted = len(res["workload"].jobs)
    failed = len(res["failures"])
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}})


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test(work_root) -> int:
    """Each workload at a tiny size, untraced and traced."""
    wrong = dict(expected.EXPECTED)
    wrong["verify:harmonic"] = dict(wrong["verify:harmonic"], exit=1)
    for name in WORKLOADS:
        for trace in (0, 1):
            work = tempfile.mkdtemp(dir=work_root)
            try:
                res = run(name, 7, 1, trace, work, size="tiny", units=1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            text = "\n".join(report(res, 7, 1, trace))
            for metric, unit in (tracing.LAYER_METRICS if trace
                                 else END_TO_END):
                if f"  {metric} = " not in text or \
                        res["metrics"][metric][1] != unit:
                    raise AssertionError(f"{name}: {metric} not printed "
                                         f"with unit {unit}")
            if res["failures"]:
                raise AssertionError(f"{name}: error_rate is not 0: "
                                     f"{res['failures']}")
            caught = check_all(res["workload"], res["outcomes"], wrong)
            if not any("verify harmonic" in lbl for lbl, _ in caught):
                raise AssertionError(f"{name}: a wrong expected entry for "
                                     f"verify harmonic went unnoticed")
            print(f"self-test {name} trace {trace}: ok "
                  f"({len(res['workload'].jobs)} jobs)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    try:
        if args.self_test:
            return self_test(work_root)
        work = tempfile.mkdtemp(dir=work_root)
        try:
            res = run(args.workload, args.seed, args.seconds, args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    print("\n".join(report(res, args.seed, args.seconds, args.trace)))
    print(result_line(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
