"""Benchmark worker: runs one workload in a fresh interpreter.

usage: python worker.py --root DIR --workload W --seed N --passes K --trace 0|1 --out RESULT.json
       python worker.py --root DIR --workload W --seed N --setup-only

Set-up imports dephaser and dephaser.cli, loads the recorded references,
builds the seeded script and constructs the evaluators; the wall-clock
time at which it is ready goes into the result, so the launcher can time
set-up from the start of the process.  With --setup-only the worker
prints that time and exits.

Untraced, the worker runs the script K times, each time on the next of
the CPUs it may use, times every operation between two runs of the
calibration loop and verifies every output after each pass.  Traced, it
runs one untraced pass and then two traced passes, whose per-layer counts
must agree exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The calibration loop: CALIBRATION_INT_STEPS steps of pure-Python integer
# arithmetic, then CALIBRATION_NUMPY_STEPS steps of the small-array numpy
# arithmetic (expm1, products and sums over 100 terms) that dephaser's scalar
# evaluations are made of, timed CALIBRATION_REPS times back to back.  Each
# half alone follows some kinds of dephaser code better than others; their
# sum follows all of them about as well as the best half does.
# CALIBRATION_REF_S is the loop's typical time on the 2-core x86-64 machine
# with Python 3.11 and numpy 2.4 that the benchmark was written on.
CALIBRATION_INT_STEPS = 10000
CALIBRATION_NUMPY_STEPS = 100
CALIBRATION_REPS = 2
CALIBRATION_REF_S = 1.3e-3
# Scripts with fewer operations than this take op_p50_ms and op_tail_ms over
# every pass, so that ten samples lie above the tail.
MIN_OPS_PER_PASS = 40


def calibration_s():
    """Seconds the fixed calibration loop takes now: the CPU's current speed for this kind of code."""
    import numpy as np  # not at module level, so that set-up imports it inside dephaser

    a = np.arange(1.0, 101.0)
    clock = time.perf_counter
    best = math.inf
    for _ in range(CALIBRATION_REPS):
        t0 = clock()
        n = 0
        for i in range(CALIBRATION_INT_STEPS):
            n += i * i % 7
        s = 0.0
        for i in range(CALIBRATION_NUMPY_STEPS):
            x = a * (1e-3 * i)
            s += float(np.sum(a * (np.expm1(-x) + x)))
        best = min(best, clock() - t0)
    return best


class Context:
    """State shared by the operations of one run."""

    def __init__(self, root, workload, ref):
        self.root = root
        self.ref = ref
        self.cli_in_process = workload.cli_in_process
        self.outdir = os.path.join(root, ".perfbench_out", f"tmp-{workload.name}-{os.getpid()}")
        os.makedirs(self.outdir, exist_ok=True)
        self.env = dict(os.environ)
        self.tracer = None
        self.outputs_identical = 0
        self.outputs_checked = 0

    def cli_command(self, out_path):
        if self.tracer is not None:
            return [sys.executable, os.path.join(HERE, "trace_cli.py"), out_path + ".spans.npz"]
        return [sys.executable, "-m", "dephaser.cli"]


def setup(root, name, seed):
    t0 = time.perf_counter()
    import dephaser
    import dephaser.cli  # noqa: F401

    import_span = (t0, time.perf_counter())
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(dephaser.__file__).startswith(src + os.sep):
        raise SystemExit(f"dephaser was imported from {dephaser.__file__}, not from {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ctx = Context(root, workload, ref)
    ctx.import_span = import_span
    workload.prepare(ctx)
    return workload, workload.script(seed), ctx


def run_pass(workload, script, ctx):
    """Time every operation, then verify every output; never abort on a failure.

    The calibration loop runs before the first operation and after each
    one, outside the timed regions.  Returns the operation times, the
    len(script) + 1 calibration times and the failures.
    """
    from workloads import fail

    clock = time.perf_counter
    outputs, latencies = [], []
    calibrations = [calibration_s()]
    for i, op in enumerate(script):
        if ctx.tracer is not None:
            ctx.tracer.active = True
        t0 = clock()
        try:
            out, err = workload.run(op, ctx, i), None
        except Exception as exc:  # a raising operation is a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        if ctx.tracer is not None:
            ctx.tracer.active = False
        outputs.append((out, err))
        calibrations.append(calibration_s())
    failures = []
    for i, (op, (out, err)) in enumerate(zip(script, outputs)):
        if err is not None:
            found = [fail("raised", f"{op['kind']}: {err}")]
        else:
            try:
                found = workload.check(op, out, ctx)
            except Exception as exc:  # malformed output the check could not read
                found = [fail("check_raised", f"{op['kind']}: {type(exc).__name__}: {exc}")]
        failures += [dict(f, op=i) for f in found]
    return latencies, calibrations, failures


def scaled(latencies, calibrations):
    """Operation times at the reference speed: each time over the mean of
    the calibrations on either side of it, times CALIBRATION_REF_S."""
    return [
        lat * 2.0 * CALIBRATION_REF_S / (before + after)
        for lat, before, after in zip(latencies, calibrations, calibrations[1:])
    ]


def summarize(latencies, calibrations, failures, ops_per_pass):
    """End-to-end times at the reference speed of the calibration loop.

    wall_s is the median of the scaled pass times.  op_p50_ms is the median
    and op_tail_ms the highest percentile that leaves ten samples above it.
    A script of at least MIN_OPS_PER_PASS operations gives one sample per
    operation: for op_p50_ms its fastest scaled time, because noise on a
    shared machine only adds time to the short operations the median falls
    on; for op_tail_ms its median scaled time, because the long operations
    of the tail scatter both ways with the error of the calibrations that
    scale them.  A shorter script gives every scaled operation time of
    every pass to both.
    """
    scaled_lat = [scaled(lat, cal) for lat, cal in zip(latencies, calibrations)]
    walls = [sum(lat) for lat in scaled_lat]
    if ops_per_pass >= MIN_OPS_PER_PASS:
        fastest = sorted(1e3 * min(times) for times in zip(*scaled_lat))
        medians = sorted(1e3 * statistics.median(times) for times in zip(*scaled_lat))
    else:
        fastest = medians = sorted(1e3 * x for lat in scaled_lat for x in lat)
    n = len(medians)
    failed_ops = {(f["pass"], f["op"]) for f in failures}
    return {
        "passes": len(walls),
        "ops_per_pass": ops_per_pass,
        "wall_s": statistics.median(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": [sum(lat) for lat in latencies],
        "pass_latencies_ms": [[1e3 * x for x in lat] for lat in latencies],
        "pass_calibrations_ms": [[1e3 * x for x in cal] for cal in calibrations],
        "op_p50_ms": statistics.median(fastest),
        "op_tail_ms": medians[n - 11],
        "op_tail_percentile": 100.0 * (n - 10) / n,
        "op_samples": n,
        "attempted": ops_per_pass * len(walls),
        "failed": len(failed_ops),
        "correct": all(f["known"] for f in failures),
        "failures": failures,
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.cli_in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_pass(workload, script, ctx, tracer):
    import tracing

    tracer.reset()
    if workload.cli_in_process:
        tracer.add("cli.import", *ctx.import_span)
    ctx.outputs_identical = 0
    latencies, calibrations, failures = run_pass(workload, script, ctx)
    wall = sum(scaled(latencies, calibrations))
    traces = [tracer.arrays()]
    if not workload.cli_in_process:
        for i in range(len(script)):
            path = os.path.join(ctx.outdir, f"op{i}.out.spans.npz")
            traces.append(tracing.load(path))
            os.remove(path)
    layers = tracing.layer_metrics(traces)
    layers["cli.outputs_identical"] = ctx.outputs_identical
    return wall, layers, traces, failures


def run_traced(workload, script, ctx, out_dir, tag):
    import tracing

    wall_plain = sum(scaled(*run_pass(workload, script, ctx)[:2]))
    tracer = ctx.tracer = tracing.Tracer()
    tracing.install(tracer)
    wall, layers, traces, failures = traced_pass(workload, script, ctx, tracer)
    _, again, _, _ = traced_pass(workload, script, ctx, tracer)
    counts = {k: v for k, v in layers.items() if isinstance(v, int)}
    mismatch = {k: (v, again[k]) for k, v in counts.items() if again[k] != v}
    layers["trace.overhead_frac"] = wall / wall_plain - 1.0
    spans_path = os.path.join(out_dir, f"{tag}.spans.npz")
    tracing.save_all(traces, spans_path)
    return layers, mismatch, failures, spans_path


def environment(seed):
    import numpy
    import scipy

    import dephaser
    from workloads import source_digest

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dephaser": dephaser.__version__,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")
        },
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    workload, script, ctx = setup(args.root, args.workload, args.seed)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        shutil.rmtree(ctx.outdir)
        return 0

    from workloads import no_change_predictions

    result = {
        "ready": ready,
        "workload": workload.name,
        "why": workload.why,
        "no_change": no_change_predictions(workload.name),
        "env": environment(args.seed),
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    try:
        if args.trace:
            tag = f"{workload.name}-seed{args.seed}"
            layers, mismatch, failures, spans = run_traced(workload, script, ctx, out_dir, tag)
            result.update(
                layers=layers,
                count_mismatch=mismatch,
                spans_file=spans,
                attempted=len(script),
                failed=len({f["op"] for f in failures}),
                correct=all(f["known"] for f in failures),
                failures=failures,
            )
        else:
            latencies, calibrations, failures = [], [], []
            cpus = sorted(os.sched_getaffinity(0))
            for k in range(args.passes):
                # Pass k runs on the k-th CPU this process may use, in turn.  On
                # a shared machine one CPU can run this code up to twice as slow
                # as another for many seconds; the best-of-passes times then
                # come from whichever was fast.
                os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                lat, cal, found = run_pass(workload, script, ctx)
                latencies.append(lat)
                calibrations.append(cal)
                failures += [dict(f, **{"pass": k}) for f in found]
            result.update(summarize(latencies, calibrations, failures, len(script)))
            result["peak_rss_mb"] = peak_rss_mb(workload)
            result["cli_outputs"] = {"identical": ctx.outputs_identical, "checked": ctx.outputs_checked}
    finally:
        shutil.rmtree(ctx.outdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
