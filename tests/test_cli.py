"""End-to-end checks of the command line interface via main(argv)."""

import json
import math

import numpy as np
import pytest

from dephaser.cli import SCHEMA_VERSION, main
from dephaser.dephasing import BrownianMatsubara, HighTemperatureBrownian
from dephaser.measures import Prepared, decay_exponent_rate
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
            rows.append((float(t1), float(t2), math.exp(-e)))
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
