"""Command line interface.

Subcommands
    gfun     lineshape function g(t) and its derivative on a time grid
    trdist   normalized pair trace distance and its rate over the scanned interval
    measure  non-Markovianity measure, growth intervals, maximizing pair (JSON)
    echo     two-interval rephasing kernel R(t1, t2) on a square grid
    figures  data behind the two reference plots (trd, trd2t)

Every subcommand takes the options of one table, _OPTIONS, as flags and
as --config JSON keys; flags override config entries, which override the
defaults.  A config value must have its option's JSON type: a number (not
a bool) for a float, an integer for an int, a string for a str, and null
only where the default is None.  --points is capped at 1 000 000 for 1-d
series and 2 000 per axis for 2-d grids, --terms at 1 000 000; larger
values are rejected before anything is allocated.  Series go to --out (or
stdout) as CSV or JSON with floats at full precision; repeated runs with
the same inputs are byte identical.  Each distinct value of a column is
formatted once, with its separators, and a series is written _WRITE_ROWS
rows per call, so only one block of its text is held at a time.  Every
value written is finite: where a distance or kernel exp(-x) or trdist's
sigma overflows, and wherever else a value is not finite, the command
raises DephaserError before --out is opened.  Runtime failures print a
one-line JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .dephasing import ENGINE_NAMES, HighTemperatureBrownian, TruncatedMatsubara, make_evaluator
from .dynamics import SystemParams
from .errors import DephaserError
from .measures import (
    AnalyticPair,
    GridSearch,
    Prepared,
    decay_exponent,
    decay_exponent_rate,
    non_markovianity,
)
from .response import flip_exponent_grid
from .spectral import BathParams

SCHEMA_VERSION = 1

# (name, type, default, choices, help) of every option
_OPTIONS = (
    ("beta", float, 1.0, None, "inverse temperature"),
    ("gamma", float, 0.5, None, "bath cutoff frequency"),
    ("eta", float, 1.0, None, "bath coupling strength"),
    (
        "terms",
        int,
        100,
        None,
        "Matsubara terms K of the truncated curves of figures trd; the analytic engine reads K only in its gdot "
        "below x = 2 pi t / beta = 0.2, where more than 2000000 terms past K are live (at most 1000000)",
    ),
    ("engine", str, "analytic", ENGINE_NAMES, "g(t) evaluator"),
    ("t1", float, 0.0, None, "preparation interval before the flip"),
    ("tmax", float, 10.0, None, "end of the scanned interval"),
    ("points", int, None, None, "grid points per axis (at most 1000000 in 1-d, 2000 in 2-d)"),
    ("search", str, "analytic", ("analytic", "grid"), "maximizing-pair strategy"),
    ("out", str, None, None, "output path (default stdout)"),
    ("format", str, "csv", ("csv", "json"), "series format"),
)

# (default when points is None, cap) by grid dimension: 1-d series, 2-d square grids
_POINTS = {1: (1000, 1_000_000), 2: (200, 2000)}
# strict truncation (figures trd) allocates arrays of --terms elements, so it is checked first
_TERMS_CAP = 1_000_000
# the Python types a config value of each option type may have, and their JSON name
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


@dataclass(frozen=True)
class RunConfig:
    bath: BathParams
    engine: str
    t1: float
    tmax: float
    points: int | None
    search: str
    fmt: str
    out: str | None

    def scenario(self):
        return Prepared(self.t1)

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


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Flags over --config entries over _OPTIONS defaults; each config entry is checked against its row."""
    data = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - {row[0] for row in _OPTIONS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for name, kind, default, choices, _ in _OPTIONS:
        v = data.get(name, default)
        if v is not None or default is not None:
            accepted, json_name = _JSON_TYPES[kind]
            if isinstance(v, bool) or not isinstance(v, accepted):
                raise ValueError(f"{name} must be {json_name}, got {v!r}")
            if choices is not None and v not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {v!r}")
            v = kind(v)
        flag = getattr(args, name)  # argparse has applied the row's type and choices
        values[name] = v if flag is None else flag

    if values["tmax"] <= 0.0 or not math.isfinite(values["tmax"]):
        raise ValueError("tmax must be positive and finite")
    if values["t1"] < 0.0 or not math.isfinite(values["t1"]):
        raise ValueError("t1 must be nonnegative and finite")
    bath = BathParams(values["eta"], values["gamma"], values["beta"], values["terms"])
    if bath.matsubara_terms > _TERMS_CAP:
        raise ValueError(f"terms must be at most {_TERMS_CAP}, got {bath.matsubara_terms}")
    fields = ("engine", "t1", "tmax", "points", "search", "format", "out")  # RunConfig's, after bath
    return RunConfig(bath, *(values[name] for name in fields))


@dataclass
class Series:
    columns: list
    rows: np.ndarray  # 2-d float, one row per output line


# rows of a series joined into one text and written with one call; no more of the output is held at once
_WRITE_ROWS = 4096


def _column_text(col: np.ndarray, fmt: str, before: str, after: str) -> tuple[np.ndarray, np.ndarray]:
    """The text of every distinct float of col between before and after, and the index of each float's text.

    Distinct bit patterns, not values, so that -0.0 and 0.0 keep their own
    text, each formatted once.  CSV writes %.17g; JSON writes what
    json.dump does for a finite float, float.__repr__.  No value is nan or
    infinite: _emit refuses them.
    """
    bits, where = np.unique(col.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    if fmt == "csv":
        text = list(map(f"{before}%.17g{after}".__mod__, values))
    else:
        text = [f"{before}{v!r}{after}" for v in values]
    return np.array(text, dtype=object), where


def _write_series(series: Series, fmt: str, fh) -> None:
    """Write the series to fh _WRITE_ROWS rows per call, each row the texts of its columns with their separators."""
    rows = np.asarray(series.rows, dtype=np.float64)
    n, m = rows.shape
    if fmt == "csv":
        head, tail = ",".join(series.columns) + "\n", ""
        marks = [("", ",")] * (m - 1) + [("", "\n")]
    else:
        # the layout json.dump gives {"schema_version", "columns", "rows"}, each row followed by ", " until the last
        head = '{"schema_version": %d, "columns": %s, "rows": [' % (SCHEMA_VERSION, json.dumps(list(series.columns)))
        tail = "]}\n"
        marks = [("[" if j == 0 else "", "], " if j == m - 1 else ", ") for j in range(m)]
    columns = [_column_text(rows[:, j], fmt, *marks[j]) for j in range(m)]
    fh.write(head)
    block = np.empty((min(n, _WRITE_ROWS), m), dtype=object)
    for lo in range(0, n, _WRITE_ROWS):
        cells = block[: min(n - lo, _WRITE_ROWS)]
        for j, (text, where) in enumerate(columns):
            cells[:, j] = text[where[lo : lo + len(cells)]]
        chunk = "".join(cells.ravel().tolist())
        fh.write(chunk[:-2] if fmt == "json" and lo + len(cells) == n else chunk)
    fh.write(tail)


def _emit(obj, cfg: RunConfig) -> None:
    """Write a Series in cfg.fmt, or a report as indented JSON, to cfg.out or stdout.

    DephaserError, before --out is opened, where a value is nan or infinite.
    """
    series = isinstance(obj, Series)
    try:
        text = None if series else json.dumps(obj, indent=2, allow_nan=False) + "\n"
        finite = not series or bool(np.isfinite(obj.rows).all())
    except ValueError:  # json.dumps' for a nan or infinite float
        finite = False
    if not finite:
        raise DephaserError("the output holds a nan or infinite value, which no command writes")
    stdout = contextlib.nullcontext(sys.stdout)
    with stdout if cfg.out is None else open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        if series:
            _write_series(obj, cfg.fmt, fh)
        else:
            fh.write(text)


def _overflow_checked(what: str, ufunc, *args) -> np.ndarray:
    """ufunc(*args) with numpy's overflow warning off; DephaserError where a value is not finite, as measures._weight
    raises where e^-2E overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = ufunc(*args)
    if not np.isfinite(values).all():
        raise DephaserError(f"{what} overflows the floats on this grid")
    return values


def _normalized_distance(e: np.ndarray) -> np.ndarray:
    """The distance exp(-(E - E(0))) of the decay exponents E on a grid that starts at t = 0."""
    return _overflow_checked("the normalized distance exp(-(E - E(0)))", np.exp, -(e - e[0]))


def _square_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t1 and t2 columns of the rows of a ts x ts grid, t1 outer."""
    return np.repeat(ts, ts.size), np.tile(ts, ts.size)


def cmd_gfun(cfg: RunConfig) -> Series:
    ts = cfg.grid(1)
    ev = cfg.evaluator()
    g = ev.g(ts)
    gdot = ev.gdot(ts)
    rows = np.column_stack((ts, g.real, g.imag, gdot.real, gdot.imag))
    return Series(["t", "re_g", "im_g", "re_gdot", "im_gdot"], rows)


def cmd_trdist(cfg: RunConfig) -> Series:
    """Pair trace distance normalized to 1 at the start of the scanned interval."""
    ts = cfg.grid(1)
    ev = cfg.evaluator()
    scenario = cfg.scenario()
    d = _normalized_distance(decay_exponent(ev, scenario, ts))
    rate = decay_exponent_rate(ev, scenario, ts)
    sigma = _overflow_checked("sigma = -(dE/dt) exp(-(E - E(0)))", np.multiply, -rate, d)
    return Series(["t2", "distance", "sigma"], np.column_stack((ts, d, sigma)))


def cmd_measure(cfg: RunConfig) -> dict:
    ev = cfg.evaluator()
    scenario = cfg.scenario()
    search = GridSearch() if cfg.search == "grid" else AnalyticPair()
    res = non_markovianity(SystemParams(), ev, scenario, t_max=cfg.tmax, search=search)
    scen = {"kind": "prepared", "t1": cfg.t1} if cfg.t1 > 0.0 else {"kind": "single"}
    return {
        "schema_version": SCHEMA_VERSION,
        "n_value": res.n_value,
        "t_max": res.t_max,
        "truncated": res.truncated,
        "scenario": scen,
        "search": res.search,
        "engine": cfg.engine,
        "bath": asdict(cfg.bath),
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
    flip = flip_exponent_grid(cfg.evaluator(), ts)
    r = _overflow_checked("the echo kernel exp(-flip exponent)", np.exp, -flip).ravel()
    # hypot, not np.abs: 0.53 ulp at most against 1.8 on 20 000 normal complex samples
    rows = np.column_stack((*_square_grid(ts), np.hypot(r.real, r.imag), r.real, r.imag))
    return Series(["t1", "t2", "abs_r", "re_r", "im_r"], rows)


def cmd_figures(cfg: RunConfig, which: str) -> Series:
    """Data for the two reference plots.

    trd: normalized trace distance against t2 for t1 in {0, 1} with the
    high-temperature kernel (terms = 0) and the strictly truncated
    K-term kernel (K = --terms >= 1, 100 by default) side by side.
    trd2t: the high-temperature distance surface over (t1, t2).
    """
    if which == "trd":
        if not cfg.bath.matsubara_terms:
            raise ValueError("figures trd needs --terms of at least 1: terms_0 names the high-temperature curve")
        ts = cfg.grid(1)
        ev_ht = HighTemperatureBrownian(cfg.bath)
        ev_k = TruncatedMatsubara(cfg.bath)
        columns, curves = ["t2"], []
        for t1 in (0.0, 1.0):
            for label, ev in (("terms_0", ev_ht), (f"terms_{cfg.bath.matsubara_terms}", ev_k)):
                columns.append(f"d_t1_{t1:g}_{label}")
                curves.append(_normalized_distance(decay_exponent(ev, Prepared(t1), ts)))
        return Series(columns, np.column_stack([ts] + curves))

    if which == "trd2t":
        ts = cfg.grid(2)
        flip = flip_exponent_grid(HighTemperatureBrownian(cfg.bath), ts).real.ravel()
        d = _overflow_checked("the distance exp(-Re flip exponent)", np.exp, -flip)
        return Series(["t1", "t2", "distance"], np.column_stack((*_square_grid(ts), d)))

    raise ValueError(f"unknown figure {which!r}")


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
        ("figures", "data behind the reference plots"),
    ):
        sp = sub.add_parser(name, help=doc)
        if name == "figures":
            sp.add_argument("which", choices=("trd", "trd2t"))
        for opt, kind, _, choices, help_text in _OPTIONS:
            sp.add_argument("--" + opt, type=kind, choices=choices, help=help_text)
        sp.add_argument("--config", help="JSON file with the same keys as the flags")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        # looked up at call time, so a cmd_* rebound on the module is the one that runs
        run = globals()["cmd_" + args.command]
        _emit(run(cfg, args.which) if args.command == "figures" else run(cfg), cfg)
    except (DephaserError, ValueError, OSError, OverflowError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
