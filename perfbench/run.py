#!/usr/bin/env python3
"""fwflow benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the run environment and any failure.

``--trace 0`` measures the end-to-end metrics with tracing off. It starts
fresh processes one after another. The first runs the workload's ``full``
size once, for its memory. Then WORKERS processes each import fwflow, prepare
the inputs, run one checked warm-up pass of the workload's ``timed`` size,
then passes for their share of ``--seconds``. Spreading the passes over
processes averages out what differs from one process to the next (memory
layout, hash seeds) as well as the machine's drift:

- ``wall_norm``: median over all timed passes of the pass's wall time
  divided by the time of the workload's ``calibrate.py`` kernel, run just
  before and after the pass (the raw wall times are printed above the JSON);
- ``wall_norm_tail``: the highest order statistic of the same ratio with at
  least ten passes beyond it (its percentile and the pass count are printed);
- ``setup_s``: median over the workers of the time to import fwflow and
  prepare the inputs;
- ``peak_rss_mb``: peak resident memory of the process that ran the full
  size (its resident memory after import and set-up is printed beside it).

``--trace 1`` runs the tracer's self-check, then the workload's ``full`` size
once untraced and once traced, and reports the per-layer metrics; see
``perfbench/README.md``. Each pass, traced or not, goes through the output
check in ``checks.py``; ``failed`` counts passes that raised or failed it,
and set-ups that raised. A run whose program fails still prints its result,
with ``correct`` false; exit code 2 without a result means the benchmark
cannot run here.

Every run uses one BLAS thread and one process at a time.
"""

from __future__ import annotations

import argparse
import gc
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

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("FWFLOW_OUTPUT_DIR", None)  # it would redirect every CSV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKERS = 5
WORKER_TIMEOUT = 120  # seconds; a run must end within 180
TAIL_BEYOND = 10

import calibrate  # noqa: E402  (benchmark modules import no numpy at load time)
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def check_checkout():
    if not (SRC / "fwflow" / "__init__.py").is_file():
        raise BenchError(f"no fwflow package under {SRC}; run from a source checkout")


def import_program():
    check_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fwflow
    import fwflow.cli  # noqa: F401

    if Path(fwflow.__file__).resolve().parent != (SRC / "fwflow").resolve():
        raise BenchError(f"imported fwflow from {fwflow.__file__}, not from {SRC}")


def failure(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed, size, work):
    """Seconds to import the program and prepare the inputs, and the inputs."""
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    import_program()
    ctx = workload.prepare(seed, size, work)
    return time.perf_counter() - t0, ctx


def spawn_worker(workload, seed, seconds, index):
    """Run one worker process to completion and return its JSON report.

    A worker that cannot run here exits with 2 and stops the benchmark. One
    that crashes or hangs is one failed attempt: the program may be at fault.
    """
    cmd = [sys.executable, str(Path(__file__)), "--worker", str(index), "--workload",
           workload.name, "--seed", str(seed), "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,  # failures go to stderr
                              text=True, timeout=WORKER_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        problem = f"worker {index} ran over {WORKER_TIMEOUT} s"
    else:
        if proc.returncode == 2:
            raise BenchError(f"worker {index} cannot run here")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = f"worker {index} exited with {proc.returncode} and no report"
    print(f"FAIL {problem}", file=sys.stderr)
    return {"attempted": 1, "failed": 1}


def one_pass(workload, ctx, out):
    """Run one pass into an empty ``out``: (wall seconds, cpu seconds, error or None)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        workload.run(ctx, out)
        err = None
    except Exception as e:  # a failing pass is counted, not fatal
        err = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, time.process_time() - c0, err


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if BLAS_THREADS > nproc:
        raise BenchError(f"{BLAS_THREADS} BLAS threads exceed {nproc} processors")
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "processes_at_once": 1,
    }


class Failures:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems) -> bool:
        """Count one attempt; report and count it as failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {label}: {p}", file=sys.stderr)
        return not problems


def tail(sorted_values):
    """The highest order statistic with TAIL_BEYOND values beyond it, and its percentile."""
    n = len(sorted_values)
    return sorted_values[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def memory_worker(workload, seed, work):
    """A fresh process that runs the full size once and checks it: its peak memory."""
    tally = Failures()
    try:
        _, ctx = timed_setup(workload, seed, "full", work)
        base_rss_mb = rss_mb()
        guarantees = checks.Guarantees(workload.expect(ctx))
    except BenchError:
        raise
    except Exception as e:  # the program failed before its pass
        tally.record("full-size set-up", [failure(e)])
        return {"attempted": tally.attempted, "failed": tally.failed}
    _, _, err = one_pass(workload, ctx, work / "out")
    peak_rss_mb = rss_mb()  # before the check, which reads every CSV back
    refs = checks.load_refs(workload.name, "full", checks.ref_key_seed(workload.seeded, seed))
    tally.record("full-size pass", [err] if err else checks.check_outputs(
        work / "out", guarantees, refs)[0])
    return {
        "peak_rss_mb": peak_rss_mb,
        "base_rss_mb": base_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def worker(workload, seed, seconds, work):
    """One process's share of a timed run: set-up, a warm-up pass, timed passes."""
    tally = Failures()
    try:
        setup_s, ctx = timed_setup(workload, seed, "timed", work)
        guarantees = checks.Guarantees(workload.expect(ctx))
    except BenchError:
        raise
    except Exception as e:  # the program failed before its first pass
        tally.record("set-up", [failure(e)])
        return {"attempted": tally.attempted, "failed": tally.failed}
    refs = checks.load_refs(workload.name, "timed", checks.ref_key_seed(workload.seeded, seed))
    out = work / "out"
    first = None  # digests of the first pass that passed the full check
    identical = compared = 0
    walls, norms, cpus = [], [], []
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        cal_before = calibrate.measure(workload.kernel)
        wall, cpu, err = one_pass(workload, ctx, out)
        cal = 0.5 * (cal_before + calibrate.measure(workload.kernel))
        label = f"pass {tally.attempted}"
        if err is not None:
            ok = tally.record(label, [err])
        elif first is not None and checks.digests(out) == first:
            ok = tally.record(label, [])
        else:
            fails, identical, compared, found = checks.check_outputs(out, guarantees, refs)
            if first is not None:
                fails = fails or ["output bytes differ from the first pass over the same inputs"]
            ok = tally.record(label, fails)
            if first is None and ok:
                first = found
        if deadline is None:  # the warm-up pass is checked but not timed
            deadline = time.perf_counter() + seconds
        elif err is None:  # a pass with wrong outputs is timed too, and counted in failed
            walls.append(wall)
            norms.append(wall / cal)
            cpus.append(cpu)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "norms": norms,
        "cpus": cpus,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "identical": identical,
        "compared": compared,
    }


def timed_run(workload, seed, seconds):
    """End-to-end metrics. A metric the failures left unmeasured is left out."""
    memory = spawn_worker(workload, seed, 0.0, "memory")
    reports = [spawn_worker(workload, seed, seconds / WORKERS, i) for i in range(WORKERS)]
    tally = Failures()
    tally.attempted = sum(r["attempted"] for r in reports + [memory])
    tally.failed = sum(r["failed"] for r in reports + [memory])
    walls = sorted(w for r in reports for w in r.get("walls", ()))
    norms = sorted(v for r in reports for v in r.get("norms", ()))
    cpus = [c for r in reports for c in r.get("cpus", ())]
    setups = [r["setup_s"] for r in reports if "setup_s" in r]
    n = len(walls)
    metrics, extra = {}, {}
    if n:
        metrics["wall_norm"] = (statistics.median(norms), "calib",
                                f"median of {n} passes in {WORKERS} processes, pass wall time / "
                                f"{workload.kernel} kernel time")
        extra["wall_s"] = (f"{statistics.median(walls):.6g} s median, cpu "
                           f"{statistics.median(cpus):.6g} s median (raw; drifts with the machine)")
    if n > TAIL_BEYOND:
        norm_tail, level = tail(norms)
        metrics["wall_norm_tail"] = (norm_tail, "calib",
                                     f"p{level:.0f} of {n} passes, {TAIL_BEYOND} beyond")
        extra["wall_s"] += f"; {tail(walls)[0]:.6g} s p{level:.0f}"
    else:
        tally.record("timed passes", [f"only {n} passes completed; the tail needs "
                                      f"more than {TAIL_BEYOND}"])
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s",
                              "median of " + ", ".join(f"{s:.4f}" for s in setups))
    if "peak_rss_mb" in memory:
        metrics["peak_rss_mb"] = (memory["peak_rss_mb"], "MB",
                                  f"ru_maxrss of one full-size pass in a fresh process; "
                                  f"{memory['base_rss_mb']:.1f} MB after import and set-up")
    identical = sum(r.get("identical", 0) for r in reports)
    compared = sum(r.get("compared", 0) for r in reports)
    extra["csv_identical"] = (f"{identical / compared:.6g}" if compared
                              else "n/a (no reference at this seed)")
    return tally, metrics, extra


def traced_run(workload, seed):
    """Per-layer metrics. A metric the failures left unmeasured is left out."""
    tally = Failures()
    try:
        import_program()
    except BenchError:
        raise
    except Exception as e:
        tally.record("import", [failure(e)])
        return tally, {}, {}
    try:
        tally.record("tracer self-check", tracing.self_check(WORK / "selfcheck"))
    except Exception as e:
        tally.record("tracer self-check", [failure(e)])

    def full_pass(run_seed, label, tracer=None):
        """Prepare and run the full size: (wall, kernel time, ctx, out, error or None)."""
        work = WORK / label
        work.mkdir(parents=True, exist_ok=True)
        out = work / "out"
        cal = calibrate.measure(workload.kernel)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            ctx = workload.prepare(run_seed, "full", work)
            prepare_s = time.perf_counter() - t0
            pass_s, _, err = one_pass(workload, ctx, out)
        except Exception as e:  # prepare raised
            return None, None, None, out, failure(e)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cal = 0.5 * (cal + calibrate.measure(workload.kernel))
        return prepare_s + pass_s, cal, ctx, out, err

    def check(label, ctx, out, err, refs):
        """Record one pass's check: (identical, compared, digests)."""
        if err is not None:
            tally.record(label, [err])
            return 0, 0, {}
        try:
            fails, identical, compared, found = checks.check_outputs(
                out, checks.Guarantees(workload.expect(ctx)), refs)
        except Exception as e:
            fails, identical, compared, found = [failure(e)], 0, 0, {}
        tally.record(label, fails)
        return identical, compared, found

    refs = checks.load_refs(workload.name, "full", checks.ref_key_seed(workload.seeded, seed))
    wall_u, cal_u, ctx, out_u, err = full_pass(seed, "untraced")
    identical, compared, untraced = check("untraced full pass", ctx, out_u, err, refs)

    tracer = tracing.Tracer()
    wall_t, cal_t, _, out_t, err = full_pass(seed, "traced", tracer)
    tally.record("traced full pass", [err] if err else (
        [] if checks.digests(out_t) == untraced else ["tracing changed the bytes of the outputs"]))

    if refs is None and workload.seeded:
        # no reference at this seed: measure byte identity at the default seed
        _, _, ctx0, out0, err = full_pass(DEFAULT_SEED, "reference")
        refs = checks.load_refs(workload.name, "full", DEFAULT_SEED)
        identical, compared, _ = check("default-seed full pass", ctx0, out0, err, refs)

    metrics = {}
    if wall_t is not None:
        metrics.update((name, (value, tracing.unit(name), ""))
                       for name, value in tracer.metrics().items())
    if compared:
        metrics["cli.csv_identical"] = (identical / compared, "ratio",
                                        f"{identical} of {compared} CSVs match the reference bytes")
    if wall_u is not None:
        metrics["trace.untraced_wall_s"] = (wall_u, "s", "full size, prepare and pass")
    if wall_u is not None and wall_t is not None:
        # the machine's speed drifts between the two passes: compare them at the
        # traced pass's speed, as measured by the calibration kernel around each
        metrics["trace.overhead_s"] = (wall_t - wall_u * cal_t / cal_u, "s",
                                       f"traced {wall_t:.4f} s - untraced {wall_u:.4f} s "
                                       f"x kernel {cal_t:.4f} / {cal_u:.4f}")
    return tally, metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", default=None, help=argparse.SUPPRESS)  # an index, or "memory"
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.worker is not None:
            work = WORK / f"worker_{args.worker}"
            try:
                if args.worker == "memory":
                    report = memory_worker(workload, args.seed, work)
                else:
                    report = worker(workload, args.seed, args.seconds, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(json.dumps(report))
            return 0
        check_checkout()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            if args.trace:
                tally, metrics, extra = traced_run(workload, args.seed)
            else:
                tally, metrics, extra = timed_run(workload, args.seed, args.seconds)
            env = environment()
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    seeded = "" if workload.seeded else " (inputs do not depend on the seed)"
    print(f"workload {workload.name} seed {args.seed}{seeded} trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    for name, text in extra.items():
        print(f"{name} {text}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
