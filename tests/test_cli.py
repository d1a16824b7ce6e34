"""End-to-end checks of the command line interface via main(argv)."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from test_dephasing import _skip_off_the_pinned_kernel

import dephaser
from dephaser import measures
from dephaser.cli import (
    _OPTIONS,
    _WRITE_ROWS,
    SCHEMA_VERSION,
    Series,
    _build_parser,
    _resolve,
    _write_series,
    main,
)
from dephaser.dephasing import BrownianMatsubara, HighTemperatureBrownian, TruncatedMatsubara
from dephaser.dynamics import SystemParams
from dephaser.measures import Prepared, SingleTime, decay_exponent, decay_exponent_rate, non_markovianity
from dephaser.response import echo_response
from dephaser.spectral import BathParams

DEFAULT_BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)


def run_cli(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    cols = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return cols, rows


def test_gfun_matches_engine(capsys):
    rc, out, _ = run_cli(capsys, ["gfun", "--points", "7", "--tmax", "4"])
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == ["t", "re_g", "im_g", "re_gdot", "im_gdot"]
    assert len(rows) == 7
    ev = BrownianMatsubara(DEFAULT_BATH)
    for t, re_g, im_g, re_gd, im_gd in rows:
        g = ev.g(t)
        gd = ev.gdot(t)
        # .17g output round-trips doubles exactly
        assert (re_g, im_g) == (g.real, g.imag)
        assert (re_gd, im_gd) == (gd.real, gd.imag)


def test_gfun_engines_agree_through_cli(capsys):
    grids = {}
    for engine in ("analytic", "freq-quad"):
        rc, out, _ = run_cli(
            capsys, ["gfun", "--engine", engine, "--points", "9", "--tmax", "8"]
        )
        assert rc == 0
        grids[engine] = np.array(parse_csv(out)[1])
    a, q = grids["analytic"], grids["freq-quad"]
    assert np.array_equal(a[:, 0], q[:, 0])
    scale = 1.0 + np.abs(a[:, 1:])
    assert np.max(np.abs(a[:, 1:] - q[:, 1:]) / scale) < 1e-6


def test_csv_json_outputs_carry_identical_numbers(capsys):
    argv = ["gfun", "--points", "5", "--tmax", "3"]
    rc, out_csv, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0
    cols, rows = parse_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["columns"] == cols
    assert payload["rows"] == rows


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["gfun", "--points", "20", "--tmax", "6"]
    rc, first, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, second, _ = run_cli(capsys, argv)
    assert rc == 0
    assert first == second


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.8, "tmax": 5.0}))
    rc, out, _ = run_cli(
        capsys, ["gfun", "--config", str(cfg), "--gamma", "0.6", "--points", "3"]
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == 5.0  # tmax taken from the config
    ev = BrownianMatsubara(BathParams(eta=1.0, gamma=0.6, beta=1.0, matsubara_terms=100))
    assert rows[-1][1] == ev.g(5.0).real  # gamma taken from the flag


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"cutoff": 2.0}))
    rc, out, err = run_cli(capsys, ["gfun", "--config", str(cfg)])
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "ValueError"
    assert "cutoff" in record["error"]["message"]


@pytest.mark.parametrize(
    "entry",
    [
        {"out": True},  # once reached open(True), which writes to stdout and closes it
        {"beta": True},
        {"beta": "1.0"},
        {"beta": None},
        {"terms": 100.0},
        {"points": 2.7},
        {"points": True},
        {"engine": 3},
        {"engine": "magic"},
        {"search": "random"},
        {"format": "xml"},
    ],
    ids=repr,
)
def test_config_values_checked_against_option_table(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(entry))
    rc, out, err = run_cli(capsys, ["gfun", "--points", "3", "--config", str(cfg)])
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert record["message"].startswith(next(iter(entry)) + " must be")


def test_config_integer_too_large_for_a_float_reports_json_error(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"beta": 1' + "0" * 400 + "}")
    rc, out, err = run_cli(capsys, ["gfun", "--config", str(cfg)])
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "OverflowError"


def test_config_accepts_integer_floats_and_null_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tmax": 5, "t1": 1, "points": None, "out": None}))
    rc, out, _ = run_cli(capsys, ["measure", "--config", str(cfg)])
    assert rc == 0
    res = json.loads(out)
    assert res["t_max"] == 5.0 and res["scenario"] == {"kind": "prepared", "t1": 1.0}
    assert '"t_max": 5.0,' in out  # ints for float options are converted, not echoed


def test_every_subcommand_takes_exactly_the_option_table(tmp_path, capsys):
    names = {row[0] for row in _OPTIONS}
    (sub,) = [a for a in _build_parser()._actions if isinstance(a.choices, dict)]
    assert set(sub.choices) == {"gfun", "trdist", "measure", "echo", "figures"}
    for parser in sub.choices.values():
        flags = {s[2:] for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert flags - {"help", "config"} == names
    # the table is also the set of config keys: all of them load, any other is refused
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps({name: default for name, _, default, _, _ in _OPTIONS}))
    assert run_cli(capsys, ["gfun", "--points", "2", "--config", str(cfg)])[0] == 0


def test_config_with_every_key_equals_the_same_flags(tmp_path):
    values = {
        "beta": 2.0,
        "gamma": 0.7,
        "eta": 1.5,
        "terms": 50,
        "engine": "hight",
        "t1": 0.5,
        "tmax": 4.0,
        "points": 9,
        "search": "grid",
        "out": str(tmp_path / "x.csv"),
        "format": "json",
    }
    assert set(values) == {row[0] for row in _OPTIONS}
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(values))
    parser = _build_parser()
    from_config = _resolve(parser.parse_args(["echo", "--config", str(cfg)]))
    flags = [x for name, v in values.items() for x in ("--" + name, str(v))]
    from_flags = _resolve(parser.parse_args(["echo"] + flags))
    assert from_config == from_flags
    assert from_flags.bath == BathParams(eta=1.5, gamma=0.7, beta=2.0, matsubara_terms=50)
    assert (from_flags.fmt, from_flags.points, from_flags.t1) == ("json", 9, 0.5)


def test_epsilon_is_a_usage_error(capsys):
    # the level splitting drops out of every output, so there is no such option
    with pytest.raises(SystemExit) as exc:
        main(["gfun", "--epsilon", "3.7"])
    assert exc.value.code == 2


def test_terms_above_cap_rejected_before_allocating(monkeypatch, capsys):
    def no_array(*args, **kwargs):
        raise AssertionError("Matsubara arrays allocated")

    monkeypatch.setattr(np, "arange", no_array)
    rc, out, err = run_cli(capsys, ["gfun", "--points", "3", "--terms", "1000000000"])
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert record["message"] == "terms must be at most 1000000, got 1000000000"


def test_trdist_normalization_and_rate(capsys):
    rc, out, _ = run_cli(
        capsys, ["trdist", "--t1", "1", "--points", "5", "--tmax", "2"]
    )
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == ["t2", "distance", "sigma"]
    assert rows[0][0] == 0.0
    assert rows[0][1] == 1.0
    ev = BrownianMatsubara(DEFAULT_BATH)
    rate0 = decay_exponent_rate(ev, Prepared(1.0), 0.0)
    assert rows[0][2] == -rate0
    assert rows[0][2] > 0.0  # the flip makes the pair distance grow at first


def test_measure_reports_frozen_value(capsys):
    rc, out, _ = run_cli(capsys, ["measure", "--t1", "1"])
    assert rc == 0
    res = json.loads(out)
    assert res["schema_version"] == SCHEMA_VERSION
    assert res["engine"] == "analytic"
    assert res["search"] == "analytic"
    assert res["scenario"] == {"kind": "prepared", "t1": 1.0}
    assert not res["truncated"]
    assert res["t_max"] == 10.0
    assert res["n_value"] == pytest.approx(0.228155804256954, rel=1e-8)
    assert len(res["intervals"]) == 1
    assert res["intervals"][0]["t_end"] == pytest.approx(0.62233387513238, abs=1e-8)
    assert res["pair"]["a"]["p11"] == 0.5
    assert res["pair"]["b"]["re_c12"] == -0.5


def test_measure_single_interval_is_zero(capsys):
    rc, out, _ = run_cli(capsys, ["measure", "--tmax", "5"])
    assert rc == 0
    res = json.loads(out)
    assert res["scenario"] == {"kind": "single"}
    assert res["n_value"] == 0.0
    assert res["intervals"] == []


def test_echo_grid_matches_kernel(capsys):
    rc, out, _ = run_cli(capsys, ["echo", "--points", "4", "--tmax", "2"])
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == ["t1", "t2", "abs_r", "re_r", "im_r"]
    assert len(rows) == 16
    ev = BrownianMatsubara(DEFAULT_BATH)
    for t1, t2, abs_r, re_r, im_r in rows:
        r = echo_response(ev, t1, t2)
        assert abs_r == pytest.approx(abs(r), rel=1e-12)
        assert complex(re_r, im_r) == pytest.approx(r, rel=1e-12)


def test_echo_slice_matches_trdist_up_to_normalization(capsys):
    # |R(t1, .)| and the prepared-interval distance differ only by the
    # start-of-interval normalization constant
    rc, out_echo, _ = run_cli(capsys, ["echo", "--points", "5", "--tmax", "2"])
    assert rc == 0
    rc, out_trd, _ = run_cli(capsys, ["trdist", "--t1", "1", "--points", "5", "--tmax", "2"])
    assert rc == 0
    echo_rows = [r for r in parse_csv(out_echo)[1] if r[0] == 1.0]
    trd_rows = parse_csv(out_trd)[1]
    assert len(echo_rows) == len(trd_rows) == 5
    norm = math.exp(-BrownianMatsubara(DEFAULT_BATH).g(1.0).real)
    for (_, t2, abs_r, _, _), (t, d, _) in zip(echo_rows, trd_rows):
        assert t2 == t
        assert abs_r == pytest.approx(d * norm, rel=1e-12)


@pytest.mark.parametrize("points", [201, 401])
def test_echo_row_rises_by_the_measure(capsys, points):
    # for the maximizing pair D(t2) = |R(t1, t2)|, so the rises of the t1 = 1 echo row add up to N,
    # short by at most h^2 where the grid misses a turning point (measured: 3.2e-4 at 201, 4.5e-6 at 401)
    rc, out, _ = run_cli(capsys, ["echo", "--tmax", "10", "--points", str(points)])
    assert rc == 0
    data = np.array(parse_csv(out)[1])
    row = data[data[:, 0] == 1.0]
    assert len(row) == points
    steps = np.diff(row[np.argsort(row[:, 1]), 2])
    rise = steps[steps > 0.0].sum()
    rc, out, _ = run_cli(capsys, ["measure", "--t1", "1", "--tmax", "10"])
    assert rc == 0
    n_value = json.loads(out)["n_value"]
    h = 10.0 / (points - 1)
    assert n_value - h * h <= rise <= n_value


def test_echo_identity_is_exact_at_the_growth_end(capsys):
    # one growth interval [0, t_end) (measures): N = |R(t1, t_end)| - |R(t1, 0)|, and |R(t1, .)| peaks at t_end
    rc, out, _ = run_cli(capsys, ["measure", "--t1", "1", "--tmax", "10"])
    assert rc == 0
    res = json.loads(out)
    (interval,) = res["intervals"]
    ev = BrownianMatsubara(DEFAULT_BATH)
    peak = abs(echo_response(ev, 1.0, interval["t_end"]))
    assert abs(res["n_value"] - (peak - abs(echo_response(ev, 1.0, 0.0)))) <= 1e-15
    rc, out, _ = run_cli(capsys, ["echo", "--tmax", "10", "--points", "401"])
    assert rc == 0
    data = np.array(parse_csv(out)[1])
    row = data[data[:, 0] == 1.0, 2]
    assert len(row) == 401 and row.max() <= peak + 1e-15


def test_figures_trd_curves(capsys):
    rc, out, _ = run_cli(capsys, ["figures", "trd", "--points", "400"])
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == [
        "t2",
        "d_t1_0_terms_0",
        "d_t1_0_terms_100",
        "d_t1_1_terms_0",
        "d_t1_1_terms_100",
    ]
    data = np.array(rows)
    assert np.all(np.diff(data[:, 1]) < 0)  # no preparation: monotone loss
    assert np.all(np.diff(data[:, 2]) < 0)
    assert data[:, 3].max() > 1.0  # echo recovery beats the start value
    # truncation level visibly separates the prepared curves
    assert np.max(np.abs(data[:, 3] - data[:, 4])) > 1e-3


def test_figures_trd_labels_the_truncated_curves_by_their_terms(capsys):
    rc, out, _ = run_cli(capsys, ["figures", "trd", "--terms", "7", "--points", "50"])
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == ["t2", "d_t1_0_terms_0", "d_t1_0_terms_7", "d_t1_1_terms_0", "d_t1_1_terms_7"]
    data = np.array(rows)
    ev = TruncatedMatsubara(BathParams(1.0, 0.5, 1.0, 7))
    for col, scenario in ((2, SingleTime()), (4, Prepared(1.0))):
        e = decay_exponent(ev, scenario, data[:, 0])
        assert np.all(data[:, col] == np.exp(-(e - e[0])))


def test_figures_trd_rejects_zero_terms(capsys):
    # terms_0 names the high-temperature curve, so K = 0 would print two columns of that name
    rc, out, err = run_cli(capsys, ["figures", "trd", "--terms", "0", "--points", "5"])
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert "terms_0 names the high-temperature curve" in record["message"]


def test_time_quad_reports_an_underflowing_correlation_argument(capsys):
    # L is integrated down to times where 2 pi t / beta underflows to 0
    argv = ["gfun", "--engine", "time-quad", "--tmax", "1e-318", "--points", "3", "--beta", "1e5"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert "beta = 100000.0" in record["message"] and "underflows to 0" in record["message"]


def test_figures_trd2t_surface(capsys):
    rc, out, _ = run_cli(capsys, ["figures", "trd2t", "--points", "30", "--tmax", "20"])
    assert rc == 0
    cols, rows = parse_csv(out)
    assert cols == ["t1", "t2", "distance"]
    assert len(rows) == 900
    d = np.array(rows)[:, 2]
    assert np.all(d > 0.0) and np.all(d <= 1.0)
    assert rows[0][2] == 1.0


def _scalar_echo_rows(ev, ts):
    """echo rows built point by point, as the CLI did before its grid path."""
    g_axis = np.array([ev.g(float(t)) for t in ts])
    rows = []
    for i, t1 in enumerate(ts):
        g_sum = np.array([ev.g(float(t)) for t in t1 + ts])
        for j, t2 in enumerate(ts):
            expo = 2.0 * g_axis[i] + 2.0 * g_axis[j] - g_sum[j]
            r = complex(np.exp(-expo))
            rows.append((float(t1), float(t2), abs(r), r.real, r.imag))
    return ["t1", "t2", "abs_r", "re_r", "im_r"], rows


def _scalar_trd2t_rows(ev, ts):
    """figures trd2t rows built point by point, as the CLI did before its grid path."""
    g_re = np.array([ev.g(float(t)).real for t in ts])
    rows = []
    for i, t1 in enumerate(ts):
        g_sum = np.array([ev.g(float(t1 + t)).real for t in ts])
        for j, t2 in enumerate(ts):
            e = 2.0 * g_re[i] + 2.0 * g_re[j] - g_sum[j]
            rows.append((float(t1), float(t2), float(np.exp(-e))))
    return ["t1", "t2", "distance"], rows


def _series_text(columns, rows, fmt):
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(format(v, ".17g") for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "columns": columns,
        "rows": [list(map(float, row)) for row in rows],
    }
    return json.dumps(payload) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, reference",
    [
        (["echo"], lambda ts: _scalar_echo_rows(BrownianMatsubara(DEFAULT_BATH), ts)),
        (["figures", "trd2t"], lambda ts: _scalar_trd2t_rows(HighTemperatureBrownian(DEFAULT_BATH), ts)),
    ],
    ids=["echo", "trd2t"],
)
def test_grid_path_matches_scalar_loop_exactly(capsys, argv, reference, fmt):
    # an odd grid whose pairwise sums round unevenly
    rc, out, _ = run_cli(capsys, argv + ["--points", "23", "--tmax", "7.123", "--format", fmt])
    assert rc == 0
    columns, rows = reference(np.linspace(0.0, 7.123, 23))
    assert out == _series_text(columns, rows, fmt)


def test_unknown_engine_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gfun", "--engine", "magic"])
    assert exc.value.code == 2


def test_missing_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_invalid_physics_reports_json_error(capsys):
    rc, out, err = run_cli(capsys, ["gfun", "--beta", "-1"])
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "ValueError"


def test_subnormal_t1_reports_dephaser_error(capsys):
    rc, out, err = run_cli(capsys, ["measure", "--t1", "5e-324"])
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "DephaserError"
    assert "5e-324" in record["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--beta", "1e-160", "--gamma", "1e-160", "--engine", "analytic"],
        ["--beta", "1e-160", "--gamma", "1e-160", "--engine", "hight"],
        ["--beta", "1", "--gamma", "1e-160", "--engine", "analytic"],
    ],
    ids=["tiny-analytic", "tiny-hight", "tiny-gamma-analytic"],
)
def test_coefficient_under_or_overflow_reports_dephaser_error(capsys, argv):
    # beta = 1e-160 puts nu_K = 2 pi K / beta past 1.3e154, where the c_n table squares it, and beta gamma^2 of
    # the hight engine underflows to 0; gamma = 1e-160 alone underflows (beta gamma / 2 pi)^2, which S0 divides by
    rc, out, err = run_cli(capsys, ["gfun", "--points", "3", *argv])
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "DephaserError"


def test_overflowing_pole_amplitude_reports_dephaser_error(capsys):
    # (eta / gamma) cot(beta gamma / 2) = 1e308 * 2e28 overflows: the analytic engine wrote Re g = Re gdot = inf, exit 0
    bath = ["--eta", "1e300", "--gamma", "1e-8", "--beta", "1e-20"]
    argv = ["gfun", *bath, "--tmax", "1e8", "--terms", "5", "--points", "4"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert "(eta / gamma) cot(beta gamma / 2) = inf" in record["message"]


@pytest.mark.parametrize(
    "argv, time",
    [
        (["gfun", "--tmax", "1e307", "--points", "3"], "1e+307"),
        (["trdist", "--engine", "hight", "--eta", "1e8", "--gamma", "0.001", "--beta", "1e8", "--t1", "1e300",
          "--tmax", "1", "--points", "4"], "1e+300"),
    ],
    ids=["gfun", "trdist-hight"],
)
def test_huge_time_reports_dephaser_error(capsys, argv, time):
    # gfun wrote Re g = inf at 1e306, where it is about 4e306 (the bound is 8.99e306 on the default bath now that it
    # reads no nu_K), and trdist a distance of 1 on every row where 2 Im g(t1) overflows
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert record["message"].startswith(f"time {time} is past ")


def test_zero_terms_bound_the_time_by_the_live_nu_1(capsys):
    # with K = 0 the tail's live block always holds nu_1, whose nu_1 t overflowed: Re g was nan, exit 0
    argv = ["gfun", "--engine", "analytic", "--eta", "1.476862013732477e-284", "--gamma", "1.125254707027072e-68",
            "--beta", "2.917868613480378e-51", "--tmax", "1.9527931364909633e+262", "--terms", "0", "--points", "4"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (1, "")
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert record["message"].startswith("time 1.9527931364909633e+262 is past ")


def test_overflowing_gamma_squared_reports_dephaser_error(capsys):
    # hight's beta gamma^2: Python's float ** raised, and the record was typed OverflowError
    rc, out, err = run_cli(capsys, ["gfun", "--engine", "hight", "--gamma", "1e160", "--points", "3"])
    assert (rc, out) == (1, "")
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert record["message"].startswith("beta gamma^2 = inf leaves the normal floats")


def test_hight_overflowing_eta_over_gamma_reports_dephaser_error(capsys):
    # eta / gamma = 2e308 overflows: Im g was -inf at every t > 0 and nan at t = 0
    argv = ["trdist", "--engine", "hight", "--eta", "2e298", "--gamma", "1e-10", "--beta", "3e10"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert record["message"].startswith("eta / gamma = inf overflows")


def test_hot_bath_live_terms_measure_as_hight(capsys):
    # nu_n^2 of the live terms overflowed in the old B_n = 4 eta gamma / (beta (nu_n^2 - gamma^2)): with K = 0 and beta
    # 6e-152, nu_226^2 overflows, and the rate at t1 (x = 0.31) reads n = 1, ..., 226, so measure raised DephaserError.
    # From d_n = (n - a)(n + a) the coefficients are finite (a = 1.7e-127), and the exact N is hight's
    argv = ["measure", "--eta", "6.468125137975613e-38", "--gamma", "1.819240580212178e+25", "--beta", "6e-152",
            "--terms", "0", "--tmax", "1e-160", "--t1", "3e-153"]
    records = {}
    for engine in ("analytic", "hight"):
        rc, out, err = run_cli(capsys, [*argv, "--engine", engine])
        assert (rc, err) == (0, "")
        records[engine] = json.loads(out)
        assert math.isfinite(records[engine]["n_value"])
    analytic, hight = (records[e] for e in ("analytic", "hight"))
    assert analytic["n_value"] == hight["n_value"]
    assert analytic["intervals"] == hight["intervals"]


def test_strict_truncation_needs_no_tail_amplitude(capsys):
    # s0 = eta gamma beta^2 / (2 pi^3) overflows at eta 3e304 on beta 933, gamma 0.5: the exact engine's sums past its
    # live terms and below x = 0.2 take it, but the K terms of figures trd's strict truncation do not, and its curves
    # are finite on this grid
    argv = ["--eta", "3e304", "--beta", "933", "--points", "3", "--tmax", "1e-150"]
    rc, out, err = run_cli(capsys, ["figures", "trd", *argv])
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)
    rc, out, err = run_cli(capsys, ["gfun", "--engine", "analytic", *argv])
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"]["message"].startswith("eta gamma beta^2 / (2 pi^3) = inf overflows")


def test_overflowing_distance_weight_reports_dephaser_error(capsys):
    # e^{-2E} of a decay exponent E below -354.9 at a run end: the record was typed OverflowError.  The E came from
    # Re g(t1) = 3.1e-7 where it underflows (the n > K tail's cancellation, ROADMAP item 3); the exact Re g now refuses
    # that t1, where (2 pi t1 / beta)^2 leaves the floats, and test_measures covers the weight's own DephaserError
    argv = ["measure", "--engine", "analytic", "--eta", "9.2592522089851906e+114", "--gamma", "3.3501912746885668e+123",
            "--beta", "2.5266068615700065e-40", "--terms", "0", "--tmax", "1.2783252917795422e+25",
            "--t1", "1.460056321775686e-299"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (1, "")
    record = json.loads(err)["error"]
    assert record["type"] == "DephaserError"
    assert record["message"].startswith("time 1.460056321775686e-299 is too small for the Matsubara sum of g")


def test_too_few_points_rejected(capsys):
    rc, _, err = run_cli(capsys, ["gfun", "--points", "1"])
    assert rc == 1
    assert "points" in json.loads(err)["error"]["message"]


def test_out_file_uses_lf_newlines(tmp_path, capsys):
    target = tmp_path / "series.csv"
    argv = ["gfun", "--points", "4", "--tmax", "2"]
    rc, _, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert rc == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    rc, stdout_text, _ = run_cli(capsys, argv)
    assert rc == 0
    assert raw.decode("utf-8") == stdout_text


def _g_call_times(monkeypatch, cls, argv, capsys):
    """Times at which cls.g is evaluated during one CLI run, per instance (every time of an array call)."""
    calls = {}
    g = cls.g

    def counted(self, t):
        calls.setdefault(id(self), []).extend(np.atleast_1d(t).tolist())
        return g(self, t)

    monkeypatch.setattr(cls, "g", counted)
    rc, _, _ = run_cli(capsys, argv)
    assert rc == 0
    return list(calls.values())


def test_trdist_evaluates_g_once_per_distinct_time(monkeypatch, capsys):
    (calls,) = _g_call_times(monkeypatch, BrownianMatsubara, ["trdist", "--t1", "1"], capsys)
    ts = np.linspace(0.0, 10.0, 1000)
    assert sorted(calls) == np.unique(np.concatenate(([1.0], ts, 1.0 + ts))).tolist()


def test_figures_trd_evaluates_g_once_per_distinct_time_and_curve(monkeypatch, capsys):
    ts = np.linspace(0.0, 10.0, 1000)
    per_curve = [ts, np.concatenate(([1.0], ts, 1.0 + ts))]  # t1 = 0, then t1 = 1
    want = sorted(t for times in per_curve for t in np.unique(times).tolist())
    for cls in (HighTemperatureBrownian, BrownianMatsubara):
        (calls,) = _g_call_times(monkeypatch, cls, ["figures", "trd"], capsys)
        assert sorted(calls) == want


def _gdot_call_sizes(monkeypatch, cls):
    """The number of times in each ask for gdot of an engine of cls from now on: a gdot call, or a Prepared rate at one
    time (measures.decay_exponent_rate), the route of the measure's pointwise rate, which reads gdot's memo at t and
    t1 + t, and fills it there, without a gdot call."""
    sizes = []
    gdot, rate = cls.gdot, measures.decay_exponent_rate

    def counted_rate(evaluator, scenario, t):
        if isinstance(evaluator, cls) and isinstance(scenario, Prepared) and np.ndim(t) == 0:
            sizes.append(2)
        return rate(evaluator, scenario, t)

    monkeypatch.setattr(cls, "gdot", lambda self, t: sizes.append(np.size(t)) or gdot(self, t))
    monkeypatch.setattr(measures, "decay_exponent_rate", counted_rate)
    return sizes


def test_measure_takes_the_certified_root_in_few_two_time_gdot_calls(monkeypatch, capsys):
    sizes = _gdot_call_sizes(monkeypatch, BrownianMatsubara)
    rc, _, _ = run_cli(capsys, ["measure", "--t1", "1"])
    assert rc == 0
    # the rate at 0 and at t_max, then about 10 steps of the root, each a float rate at (t, t1 + t) from gdot's memo,
    # which are counted, and no gdot call: 11 asks measured
    assert set(sizes) == {2} and len(sizes) <= 19


# stdout of `dephaser measure --search grid` without and with a preparation, recorded from the brute-force search;
# N of the second recorded again (1.7e-14) when S0 of the tail sums lost its 1 / a^2 cancellation, and N (8.7e-16)
# and its interval's end (5.5e-16) when g and gdot from x = 0.2 on took their live terms and G1 and G0
MEASURE_GRID_STDOUT = {
    (): (
        '{\n'
        '  "schema_version": 1,\n'
        '  "n_value": 0.0,\n'
        '  "t_max": 10.0,\n'
        '  "truncated": false,\n'
        '  "scenario": {\n'
        '    "kind": "single"\n'
        '  },\n'
        '  "search": "grid",\n'
        '  "engine": "analytic",\n'
        '  "bath": {\n'
        '    "eta": 1.0,\n'
        '    "gamma": 0.5,\n'
        '    "beta": 1.0,\n'
        '    "matsubara_terms": 100\n'
        '  },\n'
        '  "intervals": [],\n'
        '  "pair": {\n'
        '    "a": {\n'
        '      "p11": 0.5,\n'
        '      "re_c12": 0.5,\n'
        '      "im_c12": 0.0\n'
        '    },\n'
        '    "b": {\n'
        '      "p11": 0.5,\n'
        '      "re_c12": -0.5,\n'
        '      "im_c12": 0.0\n'
        '    }\n'
        '  }\n'
        '}\n'
    ),
    ("--t1", "0.5"): (
        '{\n'
        '  "schema_version": 1,\n'
        '  "n_value": 0.1278275550652982,\n'
        '  "t_max": 10.0,\n'
        '  "truncated": false,\n'
        '  "scenario": {\n'
        '    "kind": "prepared",\n'
        '    "t1": 0.5\n'
        '  },\n'
        '  "search": "grid",\n'
        '  "engine": "analytic",\n'
        '  "bath": {\n'
        '    "eta": 1.0,\n'
        '    "gamma": 0.5,\n'
        '    "beta": 1.0,\n'
        '    "matsubara_terms": 100\n'
        '  },\n'
        '  "intervals": [\n'
        '    {\n'
        '      "t_start": 0.0,\n'
        '      "t_end": 0.3626374889765849,\n'
        '      "delta_d": 0.1278275550652982\n'
        '    }\n'
        '  ],\n'
        '  "pair": {\n'
        '    "a": {\n'
        '      "p11": 0.4897959183673469,\n'
        '      "re_c12": 0.4998958658736181,\n'
        '      "im_c12": 0.0\n'
        '    },\n'
        '    "b": {\n'
        '      "p11": 0.4897959183673469,\n'
        '      "re_c12": -0.4998958658736181,\n'
        '      "im_c12": 6.121958720491211e-17\n'
        '    }\n'
        '  }\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("argv", list(MEASURE_GRID_STDOUT))
def test_measure_grid_stdout_is_pinned(capsys, argv):
    rc, out, _ = run_cli(capsys, ["measure", "--search", "grid", *argv])
    assert rc == 0
    assert out.encode() == MEASURE_GRID_STDOUT[argv].encode()


# SHA-256 of the stdout bytes of each command, recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64: every
# subcommand and engine, both formats, the default bath, beta 933, a bath near the resonance a = 1 and one on it
# (gamma 2 pi), t1 > 0; the 70-point grids write 4 900 rows.  A change that moves a bit on purpose records it again:
# the seven commands with --beta 933 or --gamma were recorded again when the pole and nu_m became one pair,
# time-quad's when L's Matsubara sum became a window and Euler-Maclaurin tails (Re g(5) moved by 5.6e-16 relative),
# 22 of them when Re g below x = 0.2 took that window and tails and h its Taylor series at small arguments (the
# largest move, 7.5e-12 relative, is gfun's Re g at t = 0.02, where the old value was 7.5e-12 off the oracle), and the
# eight of the default bath's gfun, trdist, measure --t1 1 and echo --points 70 when S0 of the tail sums lost its 1 /
# a^2 cancellation (Re g from x = 0.2 moved by up to 1.3e-13 relative, and gfun's worst Re g went 1.3e-13 -> 5.6e-15
# off the oracle), and eleven (gfun, trdist and measure on the default bath, beta 933, --gamma 6.2894 and 2 pi) when Re
# gdot below x = 0.2 moved onto g's nodes (Re gdot by at most 5.5e-14 relative, gfun --beta 933 at t = 9.88, where
# its worst Re gdot went 5.1e-14 -> 3.0e-15 off the oracle; trdist --beta 933's sigma by 2.0e-12 near its zero at
# t2 = 0.25, where the rate cancels), and eleven (gfun, trdist and echo --points 70 of the default bath, gfun --gamma
# 6.2894 and 2 pi, measure --t1 1 and --gamma 6.2894 --t1 1) when g and gdot from x = 0.2 on took their live terms and
# G1 and G0 (the largest move 1.3e-13 relative, trdist --t1 1's sigma near its zero; gfun's Re g by at most 5.8e-15,
# echo's by 2.9e-14 on a value of 2e-18, measure's N by at most 7.7e-16), and six (gfun --beta 933, --gamma 6.2894 and
# 2 pi, trdist --beta 933 --t1 1, measure --gamma 6.2894 --t1 1 and echo --beta 933 --points 25) when g's nodes below x
# = 0.2 took L's rule (gfun's values by at most 2.9e-15 relative, trdist's sigma by 1.4e-13 near its zero, echo's R by
# 7.2e-15, measure's N by 8.8e-14 and its growth end, a root refined to 1e-10, by 4.5e-11), and eleven (gfun, trdist and
# echo --points 70 of the default bath, both formats, gfun --gamma 6.2894 and 2 pi, and figures trd) when every B_n
# took the one row d_n = (n - a)(n + a) and c_n = B_n / nu_n (gfun's values by at most 4.4e-16, trdist's distance by
# 1.4e-14 on a value of 3.9e-13, echo's |R| by 1.5e-14 on a value of 1.8e-8, figures trd's distance by 7.2e-15), and
# six when S's Taylor groups below x = 0.2 became one Horner polynomial (gfun --beta 933 and 2 pi, trdist --beta 933
# --t1 1: gfun's Re g by at most 3.8e-16 relative, trdist's distance by 1.8e-15) and times of 33 to 37 live terms moved
# onto Python floats (gfun, both formats, --gamma 6.2894 and 2 pi: by at most 3.7e-16).
CLI_STDOUT_DIGESTS = {
    "gfun": "1810657152f3139bd68d2893478898d8da650ff473e993e45d9c168da96fb2a3",
    "gfun --format json": "b023c0291e675646b7b347d61c10adf941d25c20e480a10f98cf8c245b41f427",
    "gfun --engine hight": "1272e2b787329cc7233d7faf540560b1141fe49c9cda00fd8d692d5704572fc5",
    "gfun --beta 933": "e95a39483be864dd73aceafeab91853479d82a678ac866e76cb7fb7e34329ef7",
    "gfun --gamma 6.2894": "487ad20617b36f35cc0a622cd2560d9d155669f50402db1ebe82d62026f4e6fc",
    "gfun --gamma 6.283185307179586": "063d0c2731b7c43d24be124c4e7a00df8e5bbaceef36f961063a5d32ed31e94e",
    "gfun --engine freq-quad --points 3": "fa68da9b607f29f8c9362136ee7bf8aa57beaed01ccbef8b3fec0131c8162472",
    "gfun --engine time-quad --points 3": "6affe9c48abf752dda83c32b64d829606aa43ef60b68cecb4df7fb61c9b3f700",
    "trdist --t1 1": "298019db25b70884ca589f09405c1c1edc8d353b5943ca23cd1c22d9ee6d52d5",
    "trdist --t1 1 --format json": "88f2c6b27275a597c318611ae651df7175d8027e437e367a19c632fa3b7cd1d4",
    "trdist": "e7bd34f52168df75db31613612f525489da9a76ac4ae351e6ce084a89c8905cf",
    "trdist --engine hight --t1 0.5": "ed2338bcf288a2c31fec5d65e55c4c2be30fd2e42fd380070c0e4f8acde44b96",
    "trdist --beta 933 --t1 1": "ed9280ff23009e670f45058b76150b919638302affe4f7150fa81c8a242bd125",
    "measure": "75ee620125ccb5908232dbc74e3cc240d199e4800faf7e44510808a758671036",
    "measure --t1 1": "8ec3032d932d69d319fdee9096fd409df204d4e9b2b724d0a3f054ae90ca7650",
    "measure --engine hight --t1 1": "2167607459b8a3b9a2e4bca8ce2cda0b2c99c38cff36354b896053e3c5854817",
    "measure --beta 933 --t1 1": "8ee60095bd4941396a81d7725eb931fc1a753030253a09cfec19ae230cd5e732",
    "measure --gamma 6.2894 --t1 1": "18c0ab7a33ef305bbb9baa8d4cbe721b64d7cc0b40d8f9e82ddd062ba755bfda",
    "echo --points 70": "53c592465cd7692245d1fb52e0cb4cebcc957e073419727867b6a205805a92c1",
    "echo --points 70 --format json": "cc13b8446933b81835bf173ecca01765b6be0206c108fa79f55bc6803efabd7c",
    "echo --engine hight --points 25": "5804e4e75e06ab7a4055c6233c2820f6874e2219dd027e554e0182c1d8e3587d",
    "echo --beta 933 --points 25": "473308c92d9e5221712b14ec27d3d8d4b1d38dea5d25704a2690f79494bf94d6",
    "figures trd": "7f3ba1f9fad5e0c5bf2010e1c7ecc78290972971433ca83488613db863f6ce5b",
    "figures trd --format json --points 200": "dad0507ccefbf80e612c7b182b19fbda081eaa8dc31fbd890a1426849bf737db",
    "figures trd2t --points 70": "b4135d89f963aeaa7ab9b4b8d690d97698017fe6eeba5905adcfa469575a2a76",
    "figures trd2t --points 70 --format json": "54465b87b14f82d9ed751c795dd6e676f8667a5a3c4b49ed9b795e202c23595e",
}


def test_cli_stdout_matches_the_pinned_digests(capsys):
    _skip_off_the_pinned_kernel()
    digests = {}
    for command in CLI_STDOUT_DIGESTS:
        rc, out, _ = run_cli(capsys, command.split())
        assert rc == 0, command
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CLI_STDOUT_DIGESTS


def test_measure_scans_with_one_array_gdot_call(monkeypatch):
    # the truncated series has no certificate (its C_K can be negative), so it keeps the grid scan
    sizes = _gdot_call_sizes(monkeypatch, BrownianMatsubara)
    ev = TruncatedMatsubara(DEFAULT_BATH)
    res = non_markovianity(SystemParams(), ev, Prepared(1.0), t_max=10.0)
    scan = [n for n in sizes if n > 2]
    # the distinct times of the 10 001 grid points t and t1 + t, 12 056 of them, in one call
    ts = np.linspace(0.0, 10.0, 10001)
    assert scan == [np.unique(np.concatenate((ts, 1.0 + ts))).size]
    # the rest are the root's steps, one call at (t, t1 + t) each: 3 at this one crossing, 3-7 per crossing on
    # other baths, so at most 7 per interval, the most measured
    steps = len(sizes) - len(scan)
    assert 0 < steps <= 7 * len(res.intervals)


@pytest.mark.parametrize("argv", [["--terms", "100000", "--points", "200"], ["--points", "5000"]])
def test_gfun_table_stays_within_its_element_budget(monkeypatch, capsys, argv):
    from dephaser.dephasing import _TABLE_BUDGET

    terms = int(argv[1]) if argv[0] == "--terms" else 100
    expm1 = np.expm1
    largest = []

    def checked(x, *args, **kwargs):
        largest.append(np.size(x))
        return expm1(x, *args, **kwargs)

    monkeypatch.setattr(np, "expm1", checked)
    rc, _, _ = run_cli(capsys, ["gfun"] + argv)
    assert rc == 0
    # one K-term row at least, as a single time needs; never the whole points x K table
    assert max(largest) <= max(_TABLE_BUDGET, terms)


@pytest.mark.parametrize(
    "argv", [["gfun", "--points", "1000001"], ["echo", "--points", "2001"], ["figures", "trd2t", "--points", "2001"]]
)
def test_points_above_cap_rejected_before_allocating(monkeypatch, capsys, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert "points must be at most" in record["message"]


_EDGE_ROWS = [
    [0.0, -0.0, 1e308],
    [-0.0, 0.0, 5e-324],
    [0.1, 0.1, -5e-324],
    [2.2250738585072014e-308 / 3, 1.0 / 3.0, -1e308],
    [0.1, -0.0, 1.0],
    [1.0, 1.0, 2.2250738585072014e-308],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [1, 2, len(_EDGE_ROWS)])
def test_writer_matches_row_by_row_format(fmt, n_rows):
    # signed zeros in one column, repeats, subnormals and the extreme finite values
    rows = _EDGE_ROWS[:n_rows]
    fh = io.StringIO()
    _write_series(Series(["a", "b", "c"], np.array(rows)), fmt, fh)
    assert fh.getvalue() == _series_text(["a", "b", "c"], rows, fmt)


@pytest.mark.parametrize("n_rows", [1, 2, 4])
def test_emit_refuses_non_finite_values(capsys, monkeypatch, tmp_path, n_rows):
    # no command writes nan or inf: a series or a report holding one is a DephaserError before --out is opened
    nan, inf = float("nan"), float("inf")
    rows = [[nan, inf, -inf], [-inf, nan, 0.5], [inf, -inf, nan], [nan, 1.0, -0.0]][:n_rows]
    monkeypatch.setattr(dephaser.cli, "cmd_gfun", lambda cfg: Series(["x", "y", "z"], np.array(rows)))
    monkeypatch.setattr(dephaser.cli, "cmd_measure", lambda cfg: {"n_value": 0.5, "pair": {"p11": rows[-1][0]}})
    for command in ("gfun", "measure"):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{command}.{fmt}"
            for argv in ([command, "--format", fmt, "--out", str(out)], [command, "--format", fmt]):
                rc, stdout, err = run_cli(capsys, argv)
                assert (rc, stdout) == (1, "") and not out.exists()
                assert json.loads(err)["error"] == {
                    "type": "DephaserError",
                    "message": "the output holds a nan or infinite value, which no command writes",
                }


# the extreme values a finite column can hold; _emit refuses nan and inf before the writer sees them
_FMAX, _FMIN = sys.float_info.max, sys.float_info.min
_SPECIALS = [0.0, -0.0, _FMAX, -_FMAX, _FMIN, 5e-324, -5e-324, _FMIN / 3]


def _edge_series(n_rows, n_cols):
    """Seeded rows with repeats, and every special value in the first and in the last block of rows."""
    rng = np.random.default_rng(n_rows * 10 + n_cols)
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    if n_rows:
        rows[rng.integers(0, n_rows, n_rows // 3)] = rows[0]
        last = (n_rows - 1) // _WRITE_ROWS * _WRITE_ROWS
        for start, size in ((0, min(n_rows, _WRITE_ROWS)), (last, n_rows - last)):
            # row by row, a value per column; a one-row block keeps the last n_cols of them
            for k, value in enumerate(_SPECIALS):
                rows[start + k // n_cols % size, k % n_cols] = value
    return Series([f"c{j}" for j in range(n_cols)], rows)


class _Writes(list):
    write = list.append


def _first_difference(got, want):
    """None for equal texts, else the offset of their first difference and both texts around it (no slow diff)."""
    if got == want:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(i - 40, 0) : i + 40], want[max(i - 40, 0) : i + 40]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_cols", [1, 3, 5])
@pytest.mark.parametrize("n_rows", [0, 1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 2 * _WRITE_ROWS + 1])
def test_writer_matches_the_reference_at_block_edges(fmt, n_cols, n_rows):
    series = _edge_series(n_rows, n_cols)
    writes = _Writes()
    _write_series(series, fmt, writes)
    assert _first_difference("".join(writes), _series_text(series.columns, series.rows.tolist(), fmt)) is None
    # rows end in a newline (CSV) or start with a bracket (JSON) that no value and no header write holds
    mark = "\n" if fmt == "csv" else "["
    assert max(w.count(mark) for w in writes[1:-1] or [""]) <= _WRITE_ROWS
    if n_rows == 2 * _WRITE_ROWS + 1:
        assert len([w for w in writes if w.count(mark)]) >= 3


# runs the CLI as ``python -m dephaser.cli`` does, then reports the loaded modules
_MODULES_AFTER_CLI = """
import json, runpy, sys
try:
    runpy.run_module("dephaser.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _loaded_modules(tmp_path, code, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dephaser.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out.txt"
    args = argv + ["--out", str(out)] if argv else []
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    report = _loaded_modules(
        tmp_path, "import json, sys, dephaser.cli; print(json.dumps({'modules': sorted(sys.modules)}))", []
    )
    assert "dephaser.cli" in report["modules"]
    assert not [m for m in report["modules"] if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["echo", "--points", "3"], []),
        (["figures", "trd2t", "--points", "3"], []),
        (["figures", "trd", "--points", "3"], []),
        (["gfun", "--points", "3"], []),
        (["gfun", "--engine", "hight", "--points", "3"], []),
        (["measure", "--t1", "1"], []),
        (["trdist", "--t1", "1", "--points", "3"], []),
        (["gfun", "--engine", "time-quad", "--points", "3"], ["scipy.integrate"]),
    ],
    ids=["echo", "trd2t", "trd", "gfun", "hight", "measure", "trdist", "time-quad"],
)
def test_cli_commands_load_only_the_scipy_they_call(tmp_path, argv, loaded):
    # the analytic and hight engines load no scipy at all; a quadrature engine loads what it calls
    report = _loaded_modules(tmp_path, _MODULES_AFTER_CLI, argv)
    assert report["rc"] == 0
    assert (tmp_path / "out.txt").stat().st_size > 0
    scipy = [m for m in report["modules"] if m == "scipy" or m.startswith("scipy.")]
    if loaded:
        assert set(loaded) <= set(scipy)
    else:
        assert scipy == []
