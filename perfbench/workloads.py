"""The four benchmark workloads: seeded scripts, timed operations and their checks.

A workload turns a seed into a script, a list of operations.  Each
operation is timed on its own (``run``) and verified afterwards, outside
the timed region (``check``).  A check returns a list of failure records;
an empty list means the operation is correct.

Every workload draws its inputs from pools that are fixed in this file;
``record.py`` records their reference values in ``reference.json``.  The
run seed picks the pool entries a script uses and their order, so the
same seed gives the same script.  crosscheck operations carry their own
independent reference route; its pool is recorded for the places where
that route fails.

Tolerances
    RTOL, ATOL   against recorded values: |x - ref| <= RTOL |ref| + ATOL
    TWIN_RTOL    between independent routes to the same quantity
    SMALL_T_RTOL Re g, Re gdot at t <= TRUST_T against an independent quadrature
    STATE_TOL    positivity of propagated states and identities between maps

A failure is marked ``known`` only where record.py saw it when the
references were recorded, so that a fix shows as fewer failures and the
same failure anywhere else makes the run incorrect:
    re_g_negative, small_t_mismatch
        the tiny-t cancellation of ROADMAP item 3: Re g < 0, or Re g or
        Re gdot more than SMALL_T_RTOL off an independent quadrature, at
        the (bath, t) points of the param_sweep log grid recorded in
        reference.json
    low_t_probe
        ROADMAP item 3 at low temperature: analytic L(t) and time-quad g(t)
        off at beta = 2e5, only at the LOW_T_PROBE operations of crosscheck
    quadrature_l_no_convergence
        found while this benchmark was written: the quadrature route of
        L(t) raises IntegrationError at isolated points (its Fourier tail
        does not converge); only at QUAD_L_PROBE and at the crosscheck pool
        points recorded in reference.json
At and above TRUST_T, Re g and Re gdot are compared with the recorded
values; at and below it, with the independent quadrature of record.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
TWIN_RTOL = 1e-8
STATE_TOL = 1e-12
TRUST_T = 1e-3
SMALL_T_RTOL = 1e-5

POOL_SEED = 11113722
# relative spread of seeded inputs around a fixed Latin-hypercube point
JITTER = 0.05
DEFAULT_BATH = {"eta": 1.0, "gamma": 0.5, "beta": 1.0, "K": 100, "t1": 1.0}
SAMPLE_ROWS = 21


def source_digest():
    """SHA-256 over the dephaser source files, to name the code a result came from."""
    import dephaser

    digest = hashlib.sha256()
    src = os.path.dirname(dephaser.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return digest.hexdigest()


def _lhs(rng, lo, hi, n):
    """n Latin-hypercube draws on [lo, hi]: one per equal stratum, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _jitter(rng, x, cap):
    """x moved by at most JITTER (relative), capped at the top of its range."""
    return min(float(x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))), cap)


def fail(reason, detail, known=False):
    """A failure record; known marks a defect seen at this very place when the references were recorded."""
    return {"reason": reason, "detail": detail, "known": known}


def _close(x, ref, rtol=RTOL, atol=ATOL):
    return abs(x - ref) <= rtol * abs(ref) + atol


def bath_params(b):
    from dephaser import BathParams

    return BathParams(eta=b["eta"], gamma=b["gamma"], beta=b["beta"], matsubara_terms=b["K"])


def _drawn_baths(rng, n, with_tmax=False):
    """The default bath followed by n - 1 moderate baths, rounded so CLI flags stay short."""
    baths = [dict(DEFAULT_BATH, tmax=10.0) if with_tmax else dict(DEFAULT_BATH)]
    for _ in range(n - 1):
        b = {
            "eta": round(float(rng.uniform(0.5, 2.0)), 3),
            "gamma": round(float(rng.uniform(0.3, 1.0)), 3),
            "beta": round(float(10 ** rng.uniform(-0.5, 0.5)), 3),
            "K": 100,
            "t1": round(float(rng.uniform(0.5, 2.0)), 3),
        }
        if with_tmax:
            b["tmax"] = round(float(rng.uniform(5.0, 20.0)), 3)
        baths.append(b)
    return baths


# ---------------------------------------------------------------- CLI outputs


def cli_argv(entry):
    """Command line (without --out) of one CLI pool entry."""
    kind, b = entry["kind"], entry["bath"]
    cmd = {"trd": ["figures", "trd"], "trd2t": ["figures", "trd2t"]}.get(
        kind, [kind.removesuffix("_t1")]
    )
    argv = cmd + ["--beta", repr(b["beta"]), "--gamma", repr(b["gamma"]), "--eta", repr(b["eta"])]
    if kind.endswith("_t1"):
        argv += ["--t1", repr(b["t1"])]
    if "tmax" in b:
        argv += ["--tmax", repr(b["tmax"])]
    if entry.get("points"):
        argv += ["--points", str(entry["points"])]
    if not kind.startswith("measure"):
        argv += ["--format", entry["fmt"]]
    return argv


def cli_key(entry):
    return " ".join(cli_argv(entry))


def parse_output(data: bytes, kind: str):
    """The dict of a measure output, or (columns, rows) of a series output."""
    text = data.decode("utf-8")
    if kind.startswith("measure"):
        return json.loads(text)
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["columns"], np.array(payload["rows"], dtype=float)
    lines = text.rstrip("\n").split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows


def summarize_output(data: bytes, kind: str):
    """Recorded form of one CLI output: its hash and the values a check compares."""
    rec = {"sha256": hashlib.sha256(data).hexdigest()}
    parsed = parse_output(data, kind)
    if kind.startswith("measure"):
        rec["n_value"] = parsed["n_value"]
        rec["intervals"] = [[iv["t_start"], iv["t_end"]] for iv in parsed["intervals"]]
        return rec
    cols, rows = parsed
    idx = np.unique(np.linspace(0, len(rows) - 1, SAMPLE_ROWS).astype(int))
    rec.update(
        columns=cols,
        n_rows=len(rows),
        col_sums=rows.sum(axis=0).tolist(),
        sample_idx=idx.tolist(),
        sample_rows=rows[idx].tolist(),
    )
    return rec


def check_cli_output(data: bytes, entry, ref):
    """Failures of one CLI output against its recorded values and physical limits."""
    kind = entry["kind"]
    if ref is None:
        return [fail("no_reference", cli_key(entry))]
    try:
        parsed = parse_output(data, kind)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return [fail("unparsable_output", f"{cli_key(entry)}: {type(exc).__name__}: {exc}")]
    out = []
    if kind.startswith("measure"):
        n = parsed["n_value"]
        if not n >= 0.0:
            out.append(fail("negative_measure", f"{cli_key(entry)}: n = {n!r}"))
        if not _close(n, ref["n_value"], rtol=1e-8):
            out.append(fail("measure_mismatch", f"{cli_key(entry)}: n = {n!r}, recorded {ref['n_value']!r}"))
        got = [[iv["t_start"], iv["t_end"]] for iv in parsed["intervals"]]
        if len(got) != len(ref["intervals"]) or not np.allclose(got, ref["intervals"], rtol=0, atol=1e-8):
            out.append(fail("interval_mismatch", f"{cli_key(entry)}: {got} vs {ref['intervals']}"))
        return out
    cols, rows = parsed
    if cols != ref["columns"] or rows.shape[0] != ref["n_rows"]:
        return [fail("shape_mismatch", f"{cli_key(entry)}: {cols} x {rows.shape[0]}")]
    if not np.all(np.isfinite(rows)):
        return [fail("non_finite", cli_key(entry))]
    scale = np.abs(rows).sum(axis=0)
    if np.any(np.abs(rows.sum(axis=0) - ref["col_sums"]) > RTOL * scale + ATOL):
        out.append(fail("column_sum_mismatch", cli_key(entry)))
    if not np.allclose(rows[ref["sample_idx"]], ref["sample_rows"], rtol=RTOL, atol=ATOL):
        out.append(fail("sample_mismatch", cli_key(entry)))
    if kind == "gfun" and np.any(rows[:, 1] < 0.0):
        out.append(fail("re_g_negative", f"{cli_key(entry)}: min Re g {rows[:, 1].min():.3e}"))
    if kind == "echo" and np.any(rows[:, 2] > 1.0 + STATE_TOL):
        out.append(fail("echo_above_one", f"{cli_key(entry)}: max |R| {rows[:, 2].max()!r}"))
    distance = {"trdist": rows[:, 1], "trdist_t1": rows[:, 1], "trd": rows[:, 1:], "trd2t": rows[:, 2]}
    if kind in distance and np.any(distance[kind] <= 0.0):
        out.append(fail("distance_not_positive", cli_key(entry)))
    return out


def run_cli(entry, ctx, path):
    """One CLI call writing to path: a real process, or main() in this process."""
    argv = cli_argv(entry) + ["--out", path]
    if ctx.cli_in_process:
        from dephaser import cli

        return cli.main(argv)
    cmd = ctx.cli_command(path) + argv
    proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.root, capture_output=True, timeout=120)
    if proc.returncode:
        ctx.stderr_tail = proc.stderr.decode("utf-8", "replace")[-500:]
    return proc.returncode


def check_cli(entry, rc, path, ctx):
    if rc != 0:
        return [fail("cli_exit", f"{cli_key(entry)}: exit {rc} {getattr(ctx, 'stderr_tail', '')}")]
    with open(path, "rb") as fh:
        data = fh.read()
    ref = ctx.ref["cli"].get(cli_key(entry))
    if ref is not None and hashlib.sha256(data).hexdigest() == ref["sha256"]:
        ctx.outputs_identical += 1
    ctx.outputs_checked += 1
    return check_cli_output(data, entry, ref)


# ---------------------------------------------------------------- cli_session

CLI_KINDS = ("gfun", "trdist", "trdist_t1", "measure", "measure_t1", "echo", "trd", "trd2t")
SERIES_KINDS = tuple(k for k in CLI_KINDS if not k.startswith("measure"))


def cli_session_pool():
    baths = _drawn_baths(np.random.default_rng(POOL_SEED + 1), 3)
    pool = []
    for kind in CLI_KINDS:
        fmts = ("json",) if kind.startswith("measure") else ("csv", "json")
        pool += [{"kind": kind, "bath": b, "fmt": f} for b in baths for f in fmts]
    return pool


class CliSession:
    """Real ``python -m dephaser.cli`` processes, run one after another.

    Every subcommand once at its default size, then echo and figures
    trd2t again in the other output format, so that both the CSV and the
    JSON writer run in every pass.
    """

    name = "cli_session"
    why = (
        "import is about 90 % of each call and serialization most of the rest, so cli dominates; "
        "dynamics, response and _quadrature are bypassed"
    )
    cli_in_process = False

    def script(self, seed):
        rng = np.random.default_rng(seed)
        pool = cli_session_pool()
        fmt_of = dict(zip(SERIES_KINDS, rng.permutation(["csv", "json"] * 3)))

        def pick(kind, fmt):
            choices = [e for e in pool if e["kind"] == kind and e["fmt"] == fmt]
            return choices[int(rng.integers(len(choices)))]

        entries = [pick(k, fmt_of.get(k, "json")) for k in CLI_KINDS]
        entries += [pick(k, "json" if fmt_of[k] == "csv" else "csv") for k in ("echo", "trd2t")]
        return [{"kind": "cli", "entry": entries[i]} for i in rng.permutation(len(entries))]

    def prepare(self, ctx):
        pass

    def run(self, op, ctx, i):
        op["path"] = os.path.join(ctx.outdir, f"op{i}.out")
        return run_cli(op["entry"], ctx, op["path"])

    def check(self, op, out, ctx):
        return check_cli(op["entry"], out, op["path"], ctx)


# ---------------------------------------------------------------- param_sweep

SWEEP_STRATA = 6
SWEEP_VARIANTS = 3
LOG_GRID = (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 10.0)
# grid points checked against the independent quadrature in record.py
INDEPENDENT_T = tuple(t for t in LOG_GRID if t <= TRUST_T)
CURVE_POINTS = 1000
# with 7 baths of 4 + 7 operations, the median operation is a curve segment
CURVE_SEGMENTS = 7
CURVE_SAMPLES = tuple(range(25, CURVE_POINTS, 25))


def param_sweep_pool():
    """SWEEP_STRATA strata of SWEEP_VARIANTS baths each.

    The strata are a Latin hypercube in (log10 beta, gamma, t1) over the
    stated ranges, with K drawn per stratum.  The variants of a stratum
    draw eta freely and move beta, gamma and t1 by at most JITTER, so every
    choice of variants costs about the same while the inputs still differ
    from seed to seed.
    """
    rng = np.random.default_rng(POOL_SEED + 2)
    n = SWEEP_STRATA
    log_beta, gamma, t1 = _lhs(rng, -1.0, 3.0, n), _lhs(rng, 0.2, 2.0, n), _lhs(rng, 0.0, 3.0, n)
    k = rng.choice([25, 100, 400], n)
    return [
        [
            {
                "eta": float(rng.uniform(0.1, 10.0)),
                "gamma": _jitter(rng, gamma[s], 2.0),
                "beta": _jitter(rng, 10 ** log_beta[s], 1e3),
                "K": int(k[s]),
                "t1": _jitter(rng, t1[s], 3.0),
            }
            for _ in range(SWEEP_VARIANTS)
        ]
        for s in np.argsort(log_beta)
    ]


def sweep_bath_ops(b):
    """The operations run on one bath, construction first; the evaluator is shared through ctx.

    The decay curve is split into CURVE_SEGMENTS operations of consecutive
    points, so that the median operation falls among curve segments.
    """
    return (
        [{"kind": "construct", "bath": b}, {"kind": "nm_prepared", "bath": b}, {"kind": "nm_single", "bath": b}]
        + [{"kind": "curve", "bath": b, "segment": j} for j in range(CURVE_SEGMENTS)]
        + [{"kind": "grid", "bath": b}]
    )


def _segment(j):
    bounds = np.linspace(0, CURVE_POINTS, CURVE_SEGMENTS + 1).astype(int)
    return range(bounds[j], bounds[j + 1])


def sweep_key(b):
    return json.dumps(b, sort_keys=True)


def sweep_outputs(op, ev):
    """Compute one param_sweep operation on a constructed analytic evaluator."""
    from dephaser import Prepared, SingleTime, SystemParams, decay_exponent, decay_exponent_rate
    from dephaser import non_markovianity

    b, kind = op["bath"], op["kind"]
    if kind in ("nm_prepared", "nm_single"):
        scen = Prepared(b["t1"]) if kind == "nm_prepared" else SingleTime()
        res = non_markovianity(SystemParams(), ev, scen)
        return {
            "n_value": res.n_value,
            "truncated": res.truncated,
            "intervals": [[iv.t_start, iv.t_end] for iv in res.intervals],
        }
    if kind == "curve":
        scen = Prepared(b["t1"])
        ts = np.linspace(0.0, 10.0 / b["gamma"], CURVE_POINTS)[_segment(op["segment"])]
        e = [decay_exponent(ev, scen, float(t)) for t in ts]
        r = [decay_exponent_rate(ev, scen, float(t)) for t in ts]
        return {"exponent": np.array(e), "rate": np.array(r)}
    g = [ev.g(t) for t in LOG_GRID]
    gd = [ev.gdot(t) for t in LOG_GRID]
    return {"g": np.array(g), "gdot": np.array(gd)}


def sweep_summary(kind, out):
    """Recorded form of one param_sweep output; the curve comes whole, all segments joined."""
    if kind in ("nm_prepared", "nm_single"):
        return out
    if kind == "curve":
        idx = list(CURVE_SAMPLES)
        return {"exponent": out["exponent"][idx].tolist(), "rate": out["rate"][idx].tolist()}
    return {
        "g": [[z.real, z.imag] for z in out["g"]],
        "gdot": [[z.real, z.imag] for z in out["gdot"]],
    }


def check_sweep(op, out, ref):
    kind = op["kind"]
    tag = f"{kind} beta={op['bath']['beta']:.4g} K={op['bath']['K']}"
    if kind == "construct":
        return []
    if ref is None:
        return [fail("no_reference", tag)]
    bath_ref, ref = ref, ref[kind]
    fails = []
    if kind in ("nm_prepared", "nm_single"):
        if not out["n_value"] >= 0.0:
            fails.append(fail("negative_measure", f"{tag}: n = {out['n_value']!r}"))
        if not _close(out["n_value"], ref["n_value"], rtol=1e-8):
            fails.append(fail("measure_mismatch", f"{tag}: n = {out['n_value']!r} vs {ref['n_value']!r}"))
        got, want = out["intervals"], ref["intervals"]
        if out["truncated"] != ref["truncated"] or len(got) != len(want) or not np.allclose(
            got, want, rtol=0, atol=1e-8
        ):
            fails.append(fail("interval_mismatch", f"{tag}: {got} vs {want}"))
        return fails
    if kind == "curve":
        seg = _segment(op["segment"])
        pairs = [(k, i - seg.start) for k, i in enumerate(CURVE_SAMPLES) if i in seg]
        for name in ("exponent", "rate"):
            got = [out[name][i] for _, i in pairs]
            want = [ref[name][k] for k, _ in pairs]
            if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
                fails.append(fail("curve_mismatch", f"{tag}: {name} segment {op['segment']}"))
        return fails
    for name in ("g", "gdot"):
        want = np.array(ref[name])
        got = out[name]
        trusted = np.array(LOG_GRID) >= TRUST_T
        if not np.allclose(got.imag, want[:, 1], rtol=RTOL, atol=ATOL):
            fails.append(fail("grid_mismatch", f"{tag}: Im {name}"))
        if not np.allclose(got.real[trusted], want[trusted, 0], rtol=RTOL, atol=ATOL):
            fails.append(fail("grid_mismatch", f"{tag}: Re {name}"))
    return fails + check_small_t(out, bath_ref["independent"], tag)


def small_t_failure(name, x, want):
    """Reason a small-t Re g or Re gdot fails against its independent value, or None."""
    if name == "g" and x < 0.0:
        return "re_g_negative"
    if not abs(x - want) <= SMALL_T_RTOL * abs(want):
        return "small_t_mismatch"
    return None


def check_small_t(out, indep, tag):
    """Re g and Re gdot at t <= TRUST_T against the independent quadrature record.

    A failure is known only at a (t, function, reason) recorded in
    indep["defects"] when the references were recorded: the tiny-t
    cancellation of ROADMAP item 3.
    """
    fails = []
    recorded = {tuple(d) for d in indep["defects"]}
    for k, t in enumerate(INDEPENDENT_T):
        for name in ("g", "gdot"):
            x, want = out[name][k].real, indep[name][k]
            reason = small_t_failure(name, x, want)
            if reason is not None:
                detail = f"{tag}: Re {name}({t:g}) = {x:.6e}, independent {want:.6e}"
                fails.append(fail(reason, detail, (t, name, reason) in recorded))
    return fails


class ParamSweep:
    """In-process library loop over seeded Brownian baths.

    Each pass runs the default bath and one seeded variant from each of
    the SWEEP_STRATA strata of the pool, so every seed spans the same range
    of Matsubara block lengths.  The evaluators are built first; the other
    operations of all baths follow in seeded order, so that a slow stretch
    of a shared machine does not slow one bath's operations together.
    """

    name = "param_sweep"
    why = (
        "scalar analytic g/gdot and the growth scan do nearly all the work; no import or "
        "serialization is timed; beta sets the Matsubara block length, so cost varies 5x by bath"
    )
    cli_in_process = True

    def script(self, seed):
        rng = np.random.default_rng(seed)
        baths = [dict(DEFAULT_BATH)] + [
            stratum[int(rng.integers(SWEEP_VARIANTS))] for stratum in param_sweep_pool()
        ]
        ops = [op for b in baths for op in sweep_bath_ops(b)]
        # constructions stay ahead of the evaluations that use them
        head = [o for o in ops if o["kind"] == "construct"]
        rest = [o for o in ops if o["kind"] != "construct"]
        return [head[i] for i in rng.permutation(len(head))] + [rest[i] for i in rng.permutation(len(rest))]

    def prepare(self, ctx):
        ctx.evals = {}

    def run(self, op, ctx, i):
        from dephaser import BrownianMatsubara

        key = sweep_key(op["bath"])
        if op["kind"] == "construct":
            ctx.evals[key] = BrownianMatsubara(bath_params(op["bath"]))
            return None
        return sweep_outputs(op, ctx.evals[key])

    def check(self, op, out, ctx):
        return check_sweep(op, out, ctx.ref["param_sweep"].get(sweep_key(op["bath"])))


# ---------------------------------------------------------------- surfaces

# (command, points per axis, format): both sizes and both writers, one call each
SURFACE_CALLS = (("echo", 150, "csv"), ("echo", 250, "json"), ("trd2t", 150, "json"), ("trd2t", 250, "csv"))
ECHO_N = 200
# the echo grid runs as ECHO_BANDS operations of consecutive rows; with the
# CLI calls they are the heaviest operations, so op_tail_ms falls among them
ECHO_BANDS = 10
PROP_N = 48


def surfaces_pool():
    # beta and K, which set the cost of each g call, are the same in every
    # bath, so the seeded choice of bath changes the numbers but not the work
    baths = [dict(b, beta=1.0) for b in _drawn_baths(np.random.default_rng(POOL_SEED + 3), 3, with_tmax=True)]
    return baths, [
        {"kind": kind, "bath": b, "fmt": fmt, "points": n} for kind, n, fmt in SURFACE_CALLS for b in baths
    ]


def echo_rows(ev, tmax, rows):
    """Rows ``rows`` of R(t1, t2) on the ECHO_N x ECHO_N grid over [0, tmax]^2."""
    from dephaser import echo_response

    ts = np.linspace(0.0, tmax, ECHO_N)
    return [[echo_response(ev, float(ts[i]), float(t2)) for t2 in ts] for i in rows]


def echo_band(j):
    bounds = np.linspace(0, ECHO_N, ECHO_BANDS + 1).astype(int)
    return range(bounds[j], bounds[j + 1])


class Surfaces:
    """Two-interval surfaces: CLI echo/trd2t in process, echo kernels, propagated states.

    Every pass writes echo and figures trd2t at both grid sizes, once in
    each format; the seed picks the bath of each call, the bath of the echo
    grid and the propagated states.
    """

    name = "surfaces"
    why = (
        "g at every t1+t2 sum, row serialization and map/state validation dominate; measures and "
        "import are bypassed; two CLI grid sizes per axis vary the working set"
    )
    cli_in_process = True

    def script(self, seed):
        rng = np.random.default_rng(seed)
        baths, pool = surfaces_pool()
        ops = []
        for call in SURFACE_CALLS:
            choices = [e for e in pool if (e["kind"], e["points"], e["fmt"]) == call]
            ops.append({"kind": "cli", "entry": choices[int(rng.integers(len(choices)))]})
        eb = int(rng.integers(len(baths)))
        ops += [{"kind": "echo_band", "bath": eb, "band": j} for j in range(ECHO_BANDS)]
        pb = int(rng.integers(len(baths)))
        eps = float(rng.uniform(-1.0, 1.0))
        tmax = baths[pb]["tmax"]
        t2s = np.linspace(0.0, tmax, PROP_N)
        for t1 in np.linspace(0.0, tmax, PROP_N):
            p = rng.uniform(0.0, 1.0, PROP_N)
            r = np.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 1.0, PROP_N)
            c = r * np.exp(2j * math.pi * rng.random(PROP_N))
            states = [(float(p[k]), complex(c[k]), float(t2s[k])) for k in range(PROP_N)]
            ops.append({"kind": "prop_row", "bath": pb, "eps": eps, "t1": float(t1), "states": states})
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def prepare(self, ctx):
        from dephaser import BrownianMatsubara, coherence_flip, identity_op

        baths, _ = surfaces_pool()
        ctx.baths = baths
        ctx.evals = [BrownianMatsubara(bath_params(b)) for b in baths]
        ctx.identity, ctx.flip = identity_op(), coherence_flip()

    def run(self, op, ctx, i):
        from dephaser import DensityMatrix2, SystemParams, propagate_two_time

        if op["kind"] == "cli":
            op["path"] = os.path.join(ctx.outdir, f"op{i}.out")
            return run_cli(op["entry"], ctx, op["path"])
        ev = ctx.evals[op["bath"]]
        if op["kind"] == "echo_band":
            return echo_rows(ev, ctx.baths[op["bath"]]["tmax"], echo_band(op["band"]))
        system = SystemParams(op["eps"])
        out = []
        for p, c, t2 in op["states"]:
            state = DensityMatrix2(p, c)
            keep = propagate_two_time(state, system, ev, ctx.identity, op["t1"], t2)
            flip = propagate_two_time(state, system, ev, ctx.flip, op["t1"], t2)
            out.append((keep, flip))
        return out

    def check(self, op, out, ctx):
        if op["kind"] == "cli":
            return check_cli(op["entry"], out, op["path"], ctx)
        if op["kind"] == "echo_band":
            sums = ctx.ref["surfaces"]["echo_row_sums"][op["bath"]]
            fails = []
            for i, row in zip(echo_band(op["band"]), np.array(out)):
                if not _close(row.sum(), complex(*sums[i]), atol=RTOL * np.abs(row).sum() + ATOL):
                    fails.append(fail("echo_row_mismatch", f"bath {op['bath']} row {i}"))
                if np.any(np.abs(row) > 1.0 + STATE_TOL):
                    fails.append(fail("echo_above_one", f"bath {op['bath']} row {i}"))
            return fails
        fails = []
        for (p, c, t2), pair in zip(op["states"], out):
            fails += check_prop(op, p, c, t2, pair, ctx)
        return fails


def check_prop(op, p, c, t2, out, ctx):
    """Propagated states are valid, the identity junction composes, the flip matches R."""
    from dephaser import DensityMatrix2, SystemParams, echo_response, propagate_single

    keep, flip = out
    t1 = op["t1"]
    tag = f"t1={t1:.4g} t2={t2:.4g}"
    fails = []
    for s in (keep, flip):
        if abs(s.c12) ** 2 > s.p11 * (1.0 - s.p11) + STATE_TOL or not 0.0 <= s.p11 <= 1.0:
            fails.append(fail("invalid_state", f"{tag}: p={s.p11!r} c={s.c12!r}"))
    ev = ctx.evals[op["bath"]]
    state = DensityMatrix2(p, c)
    single = propagate_single(state, SystemParams(op["eps"]), ev, t1 + t2)
    if abs(keep.c12 - single.c12) > STATE_TOL or keep.p11 != state.p11:
        fails.append(fail("identity_junction_mismatch", f"{tag}: {keep.c12!r} vs {single.c12!r}"))
    r = echo_response(ev, t1, t2)
    want = np.exp(-1j * op["eps"] * (t2 - t1)) * r * np.conj(state.c12)
    if abs(flip.c12 - want) > STATE_TOL:
        fails.append(fail("flip_kernel_mismatch", f"{tag}: {flip.c12!r} vs {want!r}"))
    return fails


# ---------------------------------------------------------------- crosscheck

CROSS_BATHS = 6
CROSS_TIMES = 3
CROSS_L_POINTS = 12
EIGEN_BATCHES = 10
EIGEN_PAIRS = 100
CROSS_VARIANTS = 3
LOW_T_PROBE = {"eta": 1.0, "gamma": 0.5, "beta": 2e5, "K": 100, "t": 2.0}
# A point where the Fourier tail of the quadrature route of L(t) does not
# converge (IntegrationError), found with free jitter around the skeleton.
QUAD_L_PROBE = {
    "eta": 4.086068936136349, "gamma": 1.2291841437352562, "beta": 5.710845475499416, "K": 100,
    "t": 0.4325526503743964,
}
# A cold bath at six times where time-quad is slowest: its operations and
# those of the coldest Latin-hypercube baths form the cluster in which
# op_tail_ms falls, instead of the edge between two clusters.
SLOW_BATH = {"eta": 1.0, "gamma": 1.3, "beta": 100.0, "K": 100}
SLOW_TIMES = (2.5, 4.5)
SLOW_N = 6
# A 30 x 30 x 8 grid of states (the default is 50 x 50 x 8) takes about a
# second instead of 13, so the crosscheck script runs several times per run.
GRID_SEARCH = {"n_population": 30, "n_coherence": 30}


def cross_skeleton():
    """Fixed Latin-hypercube points: baths with their evaluation times, and L(t) points."""
    rng = np.random.default_rng(POOL_SEED + 4)

    def baths(n):
        return [
            {"eta": float(e), "gamma": float(g), "beta": float(10**lb), "K": 100}
            for e, g, lb in zip(_lhs(rng, 0.1, 10.0, n), _lhs(rng, 0.2, 2.0, n), _lhs(rng, -1.0, 3.0, n))
        ]

    log_t = (math.log10(0.05), 1.0)
    route_baths = baths(CROSS_BATHS) + [SLOW_BATH]
    route_times = list(10 ** _lhs(rng, *log_t, CROSS_BATHS * CROSS_TIMES).reshape(CROSS_BATHS, CROSS_TIMES))
    route_times.append(_lhs(rng, *SLOW_TIMES, SLOW_N))
    l_baths = baths(CROSS_L_POINTS)
    l_times = 10 ** _lhs(rng, *log_t, CROSS_L_POINTS)
    return route_baths, route_times, list(zip(l_baths, l_times))


def _jittered(rng, b):
    """The bath with eta, gamma and beta moved by at most JITTER."""
    return dict(b, **{key: _jitter(rng, b[key], cap) for key, cap in (("eta", 10.0), ("gamma", 2.0), ("beta", 1e3))})


def _twin_failure(reason, tag, got, want):
    err = abs(got - want) / abs(want)
    if err > TWIN_RTOL:
        return [fail(reason, f"{tag}: rel err {err:.2e}")]
    return []


def crosscheck_pool():
    """Every input crosscheck can draw: CROSS_VARIANTS jittered copies of each skeleton point.

    Returns (routes, l_points): routes[i][v] is (bath, times) and
    l_points[i][v] is (bath, t).  The pool is finite, so record.py can run
    every L(t) point of it and record where the quadrature route fails.
    """
    rng = np.random.default_rng(POOL_SEED + 5)
    route_baths, route_times, l_skeleton = cross_skeleton()
    routes = [
        [(_jittered(rng, b), [_jitter(rng, float(t), 10.0) for t in times]) for _ in range(CROSS_VARIANTS)]
        for b, times in zip(route_baths, route_times)
    ]
    l_points = [
        [(_jittered(rng, b), _jitter(rng, float(t), 10.0)) for _ in range(CROSS_VARIANTS)] for b, t in l_skeleton
    ]
    return routes, l_points


def l_key(bath, t):
    return json.dumps({"bath": bath, "t": t}, sort_keys=True)


def l_pair(bath, t):
    """(analytic L(t), quadrature L(t)), or the IntegrationError of the quadrature route."""
    import dephaser as d
    from dephaser.spectral import OverdampedBrownian

    sd = OverdampedBrownian(bath_params(bath))
    analytic = d.correlation_function(sd, bath["beta"], t)
    try:
        return analytic, d.correlation_function(sd, bath["beta"], t, route="quadrature")
    except d.IntegrationError as exc:
        return analytic, exc


def l_failure(bath, t, out):
    """The reason an L(t) pair fails its check and a detail, or None."""
    tag = f"L beta={bath['beta']:.4g} gamma={bath['gamma']:.4g} t={t:.4g}"
    if isinstance(out[1], Exception):
        return "quadrature_l_no_convergence", f"{tag}: {out[1]}"
    err = abs(out[0] - out[1]) / abs(out[1])
    if err > TWIN_RTOL:
        return "twin_mismatch", f"{tag}: rel err {err:.2e}"
    return None


class Crosscheck:
    """Independent routes that keep the fast ones honest.

    The evaluation points are a fixed Latin hypercube (cross_skeleton) in
    CROSS_VARIANTS jittered copies (crosscheck_pool); the seed picks one
    copy of each point, so every seed does the same amount of quadrature
    work on different inputs.
    """

    name = "crosscheck"
    why = (
        "the only workload where adaptive quadrature (_quadrature, spectral's quadrature route) "
        "and the measures pair search do the work; cli is bypassed"
    )
    cli_in_process = True

    def script(self, seed):
        rng = np.random.default_rng(seed)
        routes, l_points = crosscheck_pool()
        ops = []
        for i, variants in enumerate(routes):
            bath, times = variants[int(rng.integers(CROSS_VARIANTS))]
            ops.append({"kind": "construct", "bath": bath, "slot": i})
            for t in times:
                for engine in ("freq-quad", "time-quad"):
                    for fn in ("g", "gdot"):
                        ops.append({"kind": "route", "slot": i, "engine": engine, "fn": fn, "t": t})
        for variants in l_points:
            bath, t = variants[int(rng.integers(CROSS_VARIANTS))]
            ops.append({"kind": "L", "bath": bath, "t": t})
        ops.append({"kind": "L", "bath": LOW_T_PROBE, "t": LOW_T_PROBE["t"], "probe": "low_t_probe"})
        ops.append(
            {"kind": "L", "bath": QUAD_L_PROBE, "t": QUAD_L_PROBE["t"], "probe": "quadrature_l_no_convergence"}
        )
        ops.append({"kind": "tq_probe", "bath": LOW_T_PROBE, "t": LOW_T_PROBE["t"]})
        for _ in range(EIGEN_BATCHES):
            p = rng.uniform(0.0, 1.0, (2, EIGEN_PAIRS))
            c = np.sqrt(p * (1 - p)) * rng.uniform(0.0, 1.0, p.shape) * np.exp(2j * np.pi * rng.random(p.shape))
            ops.append({"kind": "eigen", "p": p, "c": c})
        ops.append({"kind": "grid_search", "t1": 1.0})
        # constructions stay ahead of the evaluations that use them
        head = [o for o in ops if o["kind"] == "construct"]
        rest = [o for o in ops if o["kind"] != "construct"]
        return head + [rest[i] for i in rng.permutation(len(rest))]

    def prepare(self, ctx):
        from dephaser import BrownianMatsubara

        ctx.slots = {}
        ctx.default_ev = BrownianMatsubara(bath_params(DEFAULT_BATH))

    def run(self, op, ctx, i):
        import dephaser as d
        from dephaser.spectral import OverdampedBrownian

        kind = op["kind"]
        if kind == "construct":
            p = bath_params(op["bath"])
            sd = OverdampedBrownian(p)
            ctx.slots[op["slot"]] = {
                "freq-quad": d.FrequencyQuadrature(sd, p.beta),
                "time-quad": d.TimeDomainQuadrature(sd, p.beta),
                "analytic": d.BrownianMatsubara(p),
            }
            return None
        if kind == "route":
            evs = ctx.slots[op["slot"]]
            return getattr(evs[op["engine"]], op["fn"])(op["t"]), getattr(evs["analytic"], op["fn"])(op["t"])
        if kind == "L":
            return l_pair(op["bath"], op["t"])
        if kind == "tq_probe":
            p = bath_params(op["bath"])
            tq = d.TimeDomainQuadrature(OverdampedBrownian(p), p.beta)
            return tq.g(op["t"]), d.BrownianMatsubara(p).g(op["t"])
        if kind == "eigen":
            pairs = [
                (d.DensityMatrix2(float(op["p"][0, k]), complex(op["c"][0, k])),
                 d.DensityMatrix2(float(op["p"][1, k]), complex(op["c"][1, k])))
                for k in range(EIGEN_PAIRS)
            ]
            return [(d.trace_distance_eigen(a, b), d.trace_distance(a, b)) for a, b in pairs]
        ev = ctx.default_ev
        scen = d.Prepared(op["t1"])
        grid = d.non_markovianity(d.SystemParams(), ev, scen, search=d.GridSearch(**GRID_SEARCH))
        exact = d.non_markovianity(d.SystemParams(), ev, scen)
        return grid.n_value, exact.n_value

    def check(self, op, out, ctx):
        kind = op["kind"]
        if kind == "construct":
            return []
        if kind == "route":
            tag = f"{op['engine']} {op['fn']} beta={ctx.slots[op['slot']]['analytic'].beta:.4g} t={op['t']:.4g}"
            return _twin_failure("twin_mismatch", tag, *out)
        if kind == "L":
            found = l_failure(op["bath"], op["t"], out)
            if found is None:
                return []
            reason, detail = found
            probe = op.get("probe")
            if probe == "low_t_probe" and reason == "twin_mismatch":
                reason = "low_t_probe"
            # known only where it was seen when the references were recorded:
            # at its probe, or at a pool point recorded as failing for that reason
            known = probe == reason or (
                ctx.ref["crosscheck"]["l_failures"].get(l_key(op["bath"], op["t"])) == reason
            )
            return [fail(reason, detail, known)]
        if kind == "tq_probe":
            b = op["bath"]
            tag = f"tq_probe beta={b['beta']:.4g} gamma={b['gamma']:.4g} t={op['t']:.4g}"
            return [dict(f, known=True) for f in _twin_failure("low_t_probe", tag, *out)]
        if kind == "eigen":
            worst = max(abs(a - b) for a, b in out)
            return [fail("trace_distance_mismatch", f"max diff {worst:.2e}")] if worst > STATE_TOL else []
        grid, exact = out
        gap = exact - grid
        if not (exact > 0.0 and -1e-9 <= gap <= 1e-3):
            return [fail("grid_search_mismatch", f"grid {grid!r} vs analytic {exact!r}")]
        return []


WORKLOADS = {w.name: w for w in (CliSession(), ParamSweep(), Surfaces(), Crosscheck())}

# Which end-to-end metrics each layer metric should move, and on which
# workloads it should move nothing: (layer metrics, moves, no change on).
PREDICTIONS = (
    ("cli.import_s", "setup_s everywhere; wall_s, op_p50_ms on cli_session",
     {"param_sweep": "wall_s", "surfaces": "wall_s", "crosscheck": "wall_s"}),
    ("cli.write_s, cli.rows_written, cli.bytes_written",
     "wall_s on surfaces; op_tail_ms, peak_rss_mb on cli_session",
     {"param_sweep": "all", "crosscheck": "all"}),
    ("dephasing.analytic.*, measures.rate_calls",
     "wall_s, op_p50_ms on param_sweep; wall_s on surfaces",
     {"crosscheck": "op_p50_ms"}),
    ("measures.self_s (GridSearch)", "wall_s on crosscheck", {"surfaces": "all"}),
    ("_quadrature.*, spectral.*, dephasing.{freq,time}-quad.*", "op_p50_ms, wall_s on crosscheck",
     {"param_sweep": "all", "surfaces": "all"}),
    ("dynamics.*, response.*", "op_p50_ms on surfaces", {"cli_session": "all", "param_sweep": "all"}),
)


def no_change_predictions(workload):
    """The layer changes under which this workload's metrics should stay put."""
    return {layer: where[workload] for layer, _, where in PREDICTIONS if workload in where}
