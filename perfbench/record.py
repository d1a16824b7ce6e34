"""Record the reference values the benchmark checks outputs against.

usage: PYTHONPATH=src python3 perfbench/record.py

Runs every pool entry of workloads.py with the current source and writes
perfbench/reference.json: for each CLI call the SHA-256 of its output,
column sums and sample rows; for each param_sweep bath the measure, the
sampled decay curve, the log-grid g/gdot, Re g and Re gdot at the small
grid times from an independent quadrature (independent_re_g, which uses
scipy only) and the small-t points where dephaser fails against it; for
each surfaces bath the row sums of the echo grid; for crosscheck the pool
points where the quadrature route of L(t) fails.  The values are those of
the commit that recorded them.  Run it again only for a change meant to
alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _coth(x):
    return 1.0 / math.tanh(x) if x < 30.0 else 1.0


def independent_re_g(eta, gamma, beta, t, x_split=200.0):
    """(Re g(t), Re gdot(t)) of the overdamped Brownian bath by direct quadrature.

    Re g = (1/pi) int J(w)/w^2 coth(beta w/2) (1 - cos w t) dw and
    Re gdot = (1/pi) int J(w)/w coth(beta w/2) sin(w t) dw with
    J(w) = 2 eta gamma w / (w^2 + gamma^2), in x = w t: log-spaced below
    x = 1, adaptive up to x_split, Fourier-weighted (QAWF) above.  It
    shares no code with dephaser and agrees with its engines to about
    1e-8 (Re g) and 1e-11 (Re gdot) where they are accurate.
    """
    gt = gamma * t

    def f_g(x):
        return 2.0 * eta * gamma * t * t / (x * (x * x + gt * gt)) * _coth(0.5 * beta * x / t)

    def f_gdot(x):
        return 2.0 * eta * gamma * t / (x * x + gt * gt) * _coth(0.5 * beta * x / t)

    def below_one(f):
        lo = math.log(1e-14 * min(gt, t / beta, 1.0))
        log_f = lambda u: f(math.exp(u)) * math.exp(u)  # noqa: E731
        return integrate.quad(log_f, lo, 0.0, limit=500, epsabs=0.0, epsrel=1e-12)[0]

    def up_to_split(f):
        return integrate.quad(f, 1.0, x_split, limit=2000, epsabs=0.0, epsrel=1e-12)[0]

    one_minus_cos = lambda x: f_g(x) * 2.0 * math.sin(0.5 * x) ** 2  # noqa: E731
    re_g = below_one(one_minus_cos) + up_to_split(one_minus_cos)
    re_g += integrate.quad(f_g, x_split, np.inf, epsabs=0.0, epsrel=1e-12)[0]
    re_g -= integrate.quad(f_g, x_split, np.inf, weight="cos", wvar=1.0)[0]
    with_sin = lambda x: f_gdot(x) * math.sin(x)  # noqa: E731
    re_gdot = below_one(with_sin) + up_to_split(with_sin)
    re_gdot += integrate.quad(f_gdot, x_split, np.inf, weight="sin", wvar=1.0)[0]
    return re_g / math.pi, re_gdot / math.pi


def independent_grid(b, grid):
    """Independent Re g, Re gdot at INDEPENDENT_T and the points where the grid output fails them."""
    import workloads as w

    values = [independent_re_g(b["eta"], b["gamma"], b["beta"], t) for t in w.INDEPENDENT_T]
    rec = {"g": [v[0] for v in values], "gdot": [v[1] for v in values], "defects": []}
    for k, t in enumerate(w.INDEPENDENT_T):
        for name in ("g", "gdot"):
            reason = w.small_t_failure(name, grid[name][k].real, rec[name][k])
            if reason is not None:
                rec["defects"].append([t, name, reason])
    return rec


def main():
    import dephaser
    from dephaser import BrownianMatsubara, cli

    import workloads as w

    tmp = os.path.join(ROOT, ".perfbench_out", "record.out")
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    ref = {"cli": {}, "param_sweep": {}, "surfaces": {}, "crosscheck": {}}

    baths, surface_cli = w.surfaces_pool()
    for entry in w.cli_session_pool() + surface_cli:
        rc = cli.main(w.cli_argv(entry) + ["--out", tmp])
        if rc != 0:
            raise SystemExit(f"recording failed: {w.cli_key(entry)} exited {rc}")
        with open(tmp, "rb") as fh:
            ref["cli"][w.cli_key(entry)] = w.summarize_output(fh.read(), entry["kind"])
    os.remove(tmp)

    for b in [dict(w.DEFAULT_BATH)] + [b for stratum in w.param_sweep_pool() for b in stratum]:
        ev = BrownianMatsubara(w.bath_params(b))
        outs = {}
        for op in w.sweep_bath_ops(b)[1:]:
            out = w.sweep_outputs(op, ev)
            if op["kind"] == "curve" and "curve" in outs:
                out = {k: np.concatenate([outs["curve"][k], v]) for k, v in out.items()}
            outs[op["kind"]] = out
        rec = {k: w.sweep_summary(k, v) for k, v in outs.items()}
        rec["independent"] = independent_grid(b, outs["grid"])
        ref["param_sweep"][w.sweep_key(b)] = rec

    sums = []
    for b in baths:
        ev = BrownianMatsubara(w.bath_params(b))
        rows = w.echo_rows(ev, b["tmax"], range(w.ECHO_N))
        sums.append([[z.real, z.imag] for z in np.sum(rows, axis=1)])
    ref["surfaces"]["echo_row_sums"] = sums

    l_failures = {}
    for variants in w.crosscheck_pool()[1]:
        for bath, t in variants:
            found = w.l_failure(bath, t, w.l_pair(bath, t))
            if found is not None:
                l_failures[w.l_key(bath, t)] = found[0]
    ref["crosscheck"]["l_failures"] = l_failures

    ref["recorded_with"] = {
        "dephaser": dephaser.__version__,
        "source_sha256": w.source_digest(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
