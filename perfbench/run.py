"""Benchmark of the dephaser package: one seeded workload per run.

usage: python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

NAME is one of cli_session, param_sweep, surfaces, crosscheck, or all
(every workload in turn).  Run it from the root of a checkout; dephaser
is imported from src/ there, nothing is installed.  Each run is closed
loop with one client: one fresh worker interpreter, one thread, BLAS and
OpenMP pinned to one thread.

A run repeats the workload's seeded script a fixed number of times, at
least MIN_PASSES, set from --seconds and the time one pass took when the
benchmark was written (NOMINAL_PASS_S), so both commits of a comparison
do the same work.

Times are scaled to a reference speed.  The speed of Python code on a
shared machine swings by up to 2x, for stretches from a fraction of a
second to a minute, and a whole run can fall into a slow stretch.  So a
fixed calibration loop of pure-Python and small-array numpy arithmetic
(worker.calibration_s) runs before and after every operation (outside the
timed region) and before and after every set-up, and each time is
multiplied by CALIBRATION_REF_S over the mean of the two calibrations
around it (worker.scaled).  Raw times are kept in the record.

--trace 0 prints the end-to-end metrics: wall_s (the median of the scaled
pass times), op_p50_ms and op_tail_ms (the median, over the operations
each at its fastest scaled pass, and the highest percentile that leaves
ten samples above it, over the operations each at its median scaled pass;
a script of fewer than 40 operations gives both every scaled operation
time of every pass instead), setup_s (median over SETUPS fresh interpreters
of the scaled time from process start to ready) and peak_rss_mb.
--trace 1 runs the script untraced once and traced twice and prints the
per-layer metrics; their counts must agree between the two traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  correct is false when any
operation failed for a reason other than the known defects listed in
workloads.py.  The full record, with the environment, every failure and
the per-layer table, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import calibration_s, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cli_session", "param_sweep", "surfaces", "crosscheck")
# Scaled seconds one pass of each script took on a 2-core x86-64 machine
# with Python 3.11, numpy 2.4 and scipy 1.17 when the benchmark was written.
NOMINAL_PASS_S = {"cli_session": 8.3, "param_sweep": 8.2, "surfaces": 3.3, "crosscheck": 4.6}
# wall_s and op_tail_ms are medians over passes, so every run makes at least three
MIN_PASSES = 3
SETUPS = 3
RUN_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# (name in the JSON line, per-layer key, unit).  Only per-layer times that
# no workload leaves at zero are in the JSON line; the rest are printed and
# kept in the record.  The JSON name of _quadrature.calls drops the leading
# underscore, which metric names may not start with.
PER_LAYER = tuple(
    (name.lstrip("_"), name, "s" if name.endswith("_s") else "count")
    for name in (
        "cli.import_s",
        "cli.rows_written",
        "cli.bytes_written",
        "cli.outputs_identical",
        "spectral.L_calls",
        "dephasing.construct_s",
        "dephasing.analytic.self_s",
        "dephasing.analytic.g_calls",
        "dephasing.analytic.gdot_calls",
        "dephasing.hight.g_calls",
        "dephasing.hight.gdot_calls",
        "dephasing.freq-quad.g_calls",
        "dephasing.freq-quad.gdot_calls",
        "dephasing.time-quad.g_calls",
        "dephasing.time-quad.gdot_calls",
        "_quadrature.calls",
        "dynamics.map_calls",
        "dynamics.op_validations",
        "dynamics.state_builds",
        "dynamics.clamps",
        "measures.rate_calls",
        "measures.exponent_calls",
        "response.echo_calls",
    )
) + (("trace.overhead_frac", "trace.overhead_frac", "ratio"),)


def pinned_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def worker(args, env, deadline):
    """Run the worker; returns (wall-clock start, completed process)."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, "--root", ROOT] + args,
        env=env,
        cwd=ROOT,
        capture_output=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-3000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return t0, proc


def source_commit():
    """Git commit of the checkout when it is a git repository, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode().strip() or None


def run_one(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "dephaser", "__init__.py")):
        raise SystemExit(f"no dephaser source under {ROOT}/src; run from the root of a checkout")
    env = pinned_env()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]

    # compile the package once so every timed set-up reads the same bytecode
    compile_cmd = [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")]
    subprocess.run(compile_cmd, env=env, cwd=ROOT, check=True, timeout=120)
    setups, raw_setups = [], []
    if not trace:
        cpus = sorted(os.sched_getaffinity(0))
        for k in range(SETUPS):
            # the calibration and the worker it scales run on one CPU
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            before = calibration_s()
            t0, proc = worker(common + ["--setup-only"], env, deadline)
            after = calibration_s()
            raw_setups.append(json.loads(proc.stdout.decode().strip().splitlines()[-1])["ready"] - t0)
            setups += scaled(raw_setups[-1:], [before, after])
        os.sched_setaffinity(0, cpus)
    passes = max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[name]))
    result_path = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}.json")
    worker(
        common + ["--passes", str(passes), "--trace", str(trace), "--out", result_path], env, deadline
    )
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s_samples"] = setups
    res["raw_setup_s_samples"] = raw_setups
    res["env"]["commit"] = source_commit()
    res["env"]["seconds"] = seconds

    if trace:
        if res["count_mismatch"]:
            raise SystemExit(f"per-layer counts differ between two traced passes: {res['count_mismatch']}")
        metrics = {key: {"value": res["layers"][k], "unit": u} for key, k, u in PER_LAYER}
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    res["metrics"] = metrics
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    report(res, trace, result_path)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def report(res, trace, path):
    e = res["env"]
    print(
        f"perfbench {res['workload']} seed={e['seed']} trace={trace} python={e['python']} "
        f"numpy={e['numpy']} scipy={e['scipy']} nproc={e['nproc']} commit={e['commit']}"
    )
    print(f"  why: {res['why']}")
    print(f"  no change expected here from: {res['no_change']}")
    if trace:
        for k, v in res["layers"].items():
            print(f"  {k:32s} {v}")
    else:
        print(f"  passes={res['passes']} ops per pass={res['ops_per_pass']}; times scaled to the reference speed")
        for k, u in END_TO_END:
            extra = f"  (p{res['op_tail_percentile']:.2f} of {res['op_samples']} samples)" if k == "op_tail_ms" else ""
            print(f"  {k:12s} = {res[k]:.6g} {u}{extra}")
        print(f"  failed_frac  = {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}")
        cli = res["cli_outputs"]
        if cli["checked"]:
            print(f"  cli outputs byte-identical to the recording: {cli['identical']}/{cli['checked']}")
    grouped = collections.Counter((f["reason"], f["known"], f["detail"]) for f in res["failures"])
    verdict = "correct" if res["correct"] else "INCORRECT"
    print(f"  verification: {verdict}; {res['failed']} failed of {res['attempted']} attempted")
    for (reason, known, detail), n in sorted(grouped.items()):
        print(f"    {'known' if known else 'NEW'} {reason} x{n}: {detail}")
    print(f"  record: {path}")


def main():
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
