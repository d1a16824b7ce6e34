"""Command line interface.

Subcommands
    gfun     lineshape function g(t) and its derivative on a time grid
    trdist   normalized pair trace distance and its rate over the scanned interval
    measure  non-Markovianity measure, growth intervals, maximizing pair (JSON)
    echo     two-interval rephasing kernel R(t1, t2) on a square grid
    figures  data behind the two reference plots (trd, trd2t)

Numeric flags override --config entries, which override built-in
defaults.  --points is capped at 1 000 000 for 1-d series and 2 000 per
axis for 2-d grids (4 000 000 rows); larger values are rejected before
anything is allocated.  Series go to --out (or stdout) as CSV or JSON
with floats at full precision; repeated runs with the same inputs are
byte identical.  A series is rendered to one string, each distinct value
of a column formatted once, and written with one call.  Runtime failures
print a one-line JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dephasing import ENGINE_NAMES, BrownianMatsubara, HighTemperatureBrownian, make_evaluator
from .dynamics import SystemParams
from .errors import DephaserError
from .measures import (
    AnalyticPair,
    GridSearch,
    Prepared,
    SingleTime,
    decay_exponent_grid,
    decay_exponent_rate,
    non_markovianity,
)
from .response import flip_exponent_grid
from .spectral import BathParams

SCHEMA_VERSION = 1

_DEFAULTS = {
    "beta": 1.0,
    "gamma": 0.5,
    "eta": 1.0,
    "epsilon": 0.0,
    "terms": 100,
    "engine": "analytic",
    "t1": 0.0,
    "tmax": 10.0,
    "points": None,  # per-command: 1000 for 1-d series, 200 for 2-d grids
    "search": "analytic",
    "format": "csv",
    "out": None,
}

# (default, cap) of --points by grid dimension: 1-d series, 2-d square grids
_POINTS = {1: (1000, 1_000_000), 2: (200, 2000)}


@dataclass(frozen=True)
class RunConfig:
    bath: BathParams
    system: SystemParams
    engine: str
    t1: float
    tmax: float
    points: int | None
    search: str
    fmt: str
    out: str | None

    def scenario(self):
        return Prepared(self.t1) if self.t1 > 0.0 else SingleTime()

    def evaluator(self):
        return make_evaluator(self.engine, self.bath)

    def grid(self, ndim: int) -> np.ndarray:
        """Time axis from 0 to tmax for a series of ndim time dimensions."""
        n_default, cap = _POINTS[ndim]
        n = self.points if self.points is not None else n_default
        if n < 2:
            raise ValueError("points must be at least 2")
        if n > cap:
            raise ValueError(f"points must be at most {cap} for a {ndim}-d grid, got {n}")
        return np.linspace(0.0, self.tmax, n)


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config is not None:
        merged.update(_load_config(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key if key != "format" else "fmt", None)
        if flag is not None:
            merged[key] = flag

    if merged["tmax"] <= 0.0 or not math.isfinite(merged["tmax"]):
        raise ValueError("tmax must be positive and finite")
    if merged["t1"] < 0.0 or not math.isfinite(merged["t1"]):
        raise ValueError("t1 must be nonnegative and finite")
    if merged["engine"] not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {merged['engine']!r}; expected one of {ENGINE_NAMES}")
    if merged["search"] not in ("analytic", "grid"):
        raise ValueError("search must be 'analytic' or 'grid'")
    if merged["format"] not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")

    bath = BathParams(
        eta=float(merged["eta"]),
        gamma=float(merged["gamma"]),
        beta=float(merged["beta"]),
        matsubara_terms=int(merged["terms"]),
    )
    return RunConfig(
        bath=bath,
        system=SystemParams(epsilon=float(merged["epsilon"])),
        engine=str(merged["engine"]),
        t1=float(merged["t1"]),
        tmax=float(merged["tmax"]),
        points=None if merged["points"] is None else int(merged["points"]),
        search=str(merged["search"]),
        fmt=str(merged["format"]),
        out=merged["out"],
    )


@dataclass
class Series:
    columns: list
    rows: np.ndarray  # 2-d float, one row per output line


# json.dump's text for the floats whose repr differs from it
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column_text(col: np.ndarray, fmt: str) -> list:
    """The text of every float of col, formatted once per distinct bit pattern.

    Bit patterns, not values, so that -0.0 and 0.0 keep their own text.
    CSV writes %.17g; JSON writes what json.dump does (float.__repr__,
    NaN, Infinity, -Infinity).
    """
    bits, where = np.unique(col.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    text = np.array(
        list(map("%.17g".__mod__ if fmt == "csv" else float.__repr__, values.tolist())), dtype=object
    )
    if fmt == "json":
        for i in np.flatnonzero(~np.isfinite(values)):
            text[i] = _JSON_NONFINITE[text[i]]
    return text[where].tolist()


def _write_series(series: Series, fmt: str, fh) -> None:
    rows = np.asarray(series.rows, dtype=np.float64)
    cells = zip(*(_column_text(rows[:, j], fmt) for j in range(rows.shape[1])))
    if fmt == "csv":
        text = ",".join(series.columns) + "\n" + "".join(",".join(r) + "\n" for r in cells)
    else:
        # the layout json.dump gives {"schema_version", "columns", "rows"}
        text = '{"schema_version": %d, "columns": %s, "rows": [%s]}\n' % (
            SCHEMA_VERSION,
            json.dumps(list(series.columns)),
            ", ".join("[" + ", ".join(r) + "]" for r in cells),
        )
    fh.write(text)


def _emit(obj, cfg: RunConfig) -> None:
    if isinstance(obj, Series):
        if cfg.out is not None:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                _write_series(obj, cfg.fmt, fh)
        else:
            _write_series(obj, cfg.fmt, sys.stdout)
        return
    text = json.dumps(obj, indent=2) + "\n"
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _square_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t1 and t2 columns of the rows of a ts x ts grid, t1 outer."""
    return np.repeat(ts, ts.size), np.tile(ts, ts.size)


def _exp_neg(x: np.ndarray) -> np.ndarray:
    """exp(-x) element by element with math.exp: np.exp on floats is not bit-identical to it."""
    return np.fromiter((math.exp(-v) for v in x.tolist()), float, x.size)


def cmd_gfun(cfg: RunConfig) -> Series:
    ts = cfg.grid(1)
    ev = cfg.evaluator()
    g = np.array([ev.g(float(t)) for t in ts])
    gdot = np.array([ev.gdot(float(t)) for t in ts])
    rows = np.column_stack((ts, g.real, g.imag, gdot.real, gdot.imag))
    return Series(["t", "re_g", "im_g", "re_gdot", "im_gdot"], rows)


def cmd_trdist(cfg: RunConfig) -> Series:
    """Pair trace distance normalized to 1 at the start of the scanned interval."""
    ts = cfg.grid(1)
    ev = cfg.evaluator()
    scenario = cfg.scenario()
    e = decay_exponent_grid(ev, scenario, ts)
    d = _exp_neg(e - e[0])  # the grid starts at t = 0
    rate = np.array([decay_exponent_rate(ev, scenario, float(t)) for t in ts])
    return Series(["t2", "distance", "sigma"], np.column_stack((ts, d, -rate * d)))


def cmd_measure(cfg: RunConfig) -> dict:
    ev = cfg.evaluator()
    scenario = cfg.scenario()
    search = GridSearch() if cfg.search == "grid" else AnalyticPair()
    res = non_markovianity(cfg.system, ev, scenario, t_max=cfg.tmax, search=search)
    scen = {"kind": "prepared", "t1": cfg.t1} if cfg.t1 > 0.0 else {"kind": "single"}
    return {
        "schema_version": SCHEMA_VERSION,
        "n_value": res.n_value,
        "t_max": res.t_max,
        "truncated": res.truncated,
        "scenario": scen,
        "search": res.search,
        "engine": cfg.engine,
        "bath": {
            "eta": cfg.bath.eta,
            "gamma": cfg.bath.gamma,
            "beta": cfg.bath.beta,
            "matsubara_terms": cfg.bath.matsubara_terms,
        },
        "intervals": [
            {"t_start": iv.t_start, "t_end": iv.t_end, "delta_d": iv.delta_d}
            for iv in res.intervals
        ],
        "pair": {
            "a": {"p11": res.pair.a.p11, "re_c12": res.pair.a.c12.real, "im_c12": res.pair.a.c12.imag},
            "b": {"p11": res.pair.b.p11, "re_c12": res.pair.b.c12.real, "im_c12": res.pair.b.c12.imag},
        },
    }


def cmd_echo(cfg: RunConfig) -> Series:
    ts = cfg.grid(2)
    r = np.exp(-flip_exponent_grid(cfg.evaluator(), ts)).ravel()
    # hypot matches abs() of a Python complex bit for bit; np.abs does not
    rows = np.column_stack((*_square_grid(ts), np.hypot(r.real, r.imag), r.real, r.imag))
    return Series(["t1", "t2", "abs_r", "re_r", "im_r"], rows)


def cmd_figures(cfg: RunConfig, which: str) -> Series:
    """Data for the two reference plots.

    trd: normalized trace distance against t2 for t1 in {0, 1} with the
    high-temperature kernel (terms = 0) and the strictly truncated
    100-term kernel side by side.
    trd2t: the high-temperature distance surface over (t1, t2).
    """
    if which == "trd":
        ts = cfg.grid(1)
        ev_ht = HighTemperatureBrownian(cfg.bath)
        ev_k = BrownianMatsubara(cfg.bath, include_tail=False)
        columns = ["t2"]
        curves = []
        for t1 in (0.0, 1.0):
            scenario = Prepared(t1) if t1 > 0.0 else SingleTime()
            for label, ev in (("terms_0", ev_ht), ("terms_100", ev_k)):
                columns.append(f"d_t1_{t1:g}_{label}")
                e = decay_exponent_grid(ev, scenario, ts)
                curves.append(_exp_neg(e - e[0]))
        return Series(columns, np.column_stack([ts] + curves))

    if which == "trd2t":
        ts = cfg.grid(2)
        d = _exp_neg(flip_exponent_grid(HighTemperatureBrownian(cfg.bath), ts).real.ravel())
        return Series(["t1", "t2", "distance"], np.column_stack((*_square_grid(ts), d)))

    raise ValueError(f"unknown figure {which!r}")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--beta", type=float, help="inverse temperature")
    sp.add_argument("--gamma", type=float, help="bath cutoff frequency")
    sp.add_argument("--eta", type=float, help="bath coupling strength")
    sp.add_argument("--epsilon", type=float, help="two-level splitting")
    sp.add_argument("--terms", type=int, help="explicit Matsubara terms K")
    sp.add_argument("--engine", choices=ENGINE_NAMES, help="g(t) evaluator")
    sp.add_argument("--t1", type=float, help="preparation interval before the flip")
    sp.add_argument("--tmax", type=float, help="end of the scanned interval")
    sp.add_argument(
        "--points", type=int, help="grid points per axis (at most 1000000 in 1-d, 2000 in 2-d)"
    )
    sp.add_argument("--search", choices=("analytic", "grid"), help="maximizing-pair strategy")
    sp.add_argument("--config", help="JSON file with the same keys as the flags")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), help="series format")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dephaser",
        description="Pure-dephasing dynamics and non-Markovianity of a two-level system",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("gfun", "lineshape function g(t), gdot(t) on a time grid"),
        ("trdist", "normalized trace distance and its rate"),
        ("measure", "non-Markovianity measure and growth intervals (JSON)"),
        ("echo", "two-interval rephasing kernel on a square grid"),
    ):
        _add_common(sub.add_parser(name, help=doc))
    fig = sub.add_parser("figures", help="data behind the reference plots")
    fig.add_argument("which", choices=("trd", "trd2t"))
    _add_common(fig)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "gfun":
            _emit(cmd_gfun(cfg), cfg)
        elif args.command == "trdist":
            _emit(cmd_trdist(cfg), cfg)
        elif args.command == "measure":
            _emit(cmd_measure(cfg), cfg)
        elif args.command == "echo":
            _emit(cmd_echo(cfg), cfg)
        else:
            _emit(cmd_figures(cfg, args.which), cfg)
    except (DephaserError, ValueError, OSError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
