"""Trace-distance growth and the non-Markovianity measure."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dephasing import _skip_off_the_pinned_kernel

import dephaser
from dephaser.dephasing import (
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
)
from dephaser.dynamics import (
    DensityMatrix2,
    SystemParams,
    coherence_flip,
    propagate_two_time,
    trace_distance,
    two_time_map,
)
from dephaser.errors import DephaserError
from dephaser.measures import (
    _N_SCAN,
    _REFINE_TOL,
    AnalyticPair,
    GridSearch,
    Prepared,
    SingleTime,
    StatePair,
    _root,
    _scan_runs,
    _total_gain,
    _weights,
    analytic_pair,
    decay_exponent,
    decay_exponent_grid,
    decay_exponent_rate,
    growth_intervals,
    non_markovianity,
    pair_distance,
    sigma,
)
from dephaser.response import echo_response, flip_exponent_grid
from dephaser.spectral import BathParams, OverdampedBrownian, TabulatedSpectralDensity, _exp_divided_difference

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)
SYS = SystemParams(epsilon=2.0)

# Growth endpoint and measure for the resummed 100-term series, scenario
# Prepared(1) on (0, 10); frozen from a bisection of the series engine and
# reproduced by an independent root find on the frequency-domain engine
# (agreement 1e-13 and 1e-14 respectively).
END_K100 = 0.62233387513238
N_K100 = 0.228155804256954


def hot_closed_form():
    """Exact endpoint and measure in the high-temperature limit at t1 = 1.

    The rate condition 2 Re gdot(t2) = Re gdot(t1 + t2) for the closed
    form reduces to e^{-gamma t2} (2 - e^{-gamma t1}) = 1.
    """
    ht = HighTemperatureBrownian(BATH)
    t2 = 2.0 * math.log(2.0 - math.exp(-0.5))
    e_star = decay_exponent(ht, Prepared(1.0), t2)
    n = math.exp(-e_star) - math.exp(-ht.g(1.0).real)
    return t2, n


def test_decay_exponent_forms():
    ev = HighTemperatureBrownian(BATH)
    t = 1.7
    assert decay_exponent(ev, SingleTime(), t) == ev.g(t).real
    e = decay_exponent(ev, Prepared(1.0), t)
    ref = 2.0 * ev.g(1.0).real + 2.0 * ev.g(t).real - ev.g(1.0 + t).real
    assert e == pytest.approx(ref, rel=1e-15)
    # t1 = 0 preparation collapses onto the single-interval form
    assert decay_exponent(ev, Prepared(0.0), t) == pytest.approx(ev.g(t).real, rel=1e-15)


def test_prepared_stores_its_checked_time_as_a_float():
    # a str or int t1 is stored as the float it checks as, so the exponent's t1 + t is a float sum
    ev = HighTemperatureBrownian(BATH)
    for t1 in ("1", 1, np.float32(1.0)):
        assert type(Prepared(t1).t1) is float and Prepared(t1) == Prepared(1.0)
        assert decay_exponent(ev, Prepared(t1), 0.5) == decay_exponent(ev, Prepared(1.0), 0.5)
    with pytest.raises(ValueError):
        Prepared(-1.0)


@pytest.mark.parametrize("scenario", [SingleTime(), Prepared(1.0), Prepared(0.37)], ids=repr)
def test_decay_exponent_grid_matches_pointwise_exactly(scenario):
    ev = BrownianMatsubara(BATH)
    # an odd grid holding t1 itself, so t1 and t1 + 0 share one g call
    ts = np.concatenate((np.linspace(0.0, 7.123, 41), [1.0, 0.37]))
    want = [decay_exponent(ev, scenario, float(t)) for t in ts]
    assert decay_exponent_grid(ev, scenario, ts).tolist() == want


def test_grid_entries_check_their_times_in_call_order():
    # g sees the distinct times sorted, and the sums t1 + t2: the first bad time passed must raise, as the rate's does
    ev = BrownianMatsubara(BATH)
    times = [math.nan, -1.0]
    with pytest.raises(ValueError) as rate_error:
        decay_exponent_rate(ev, SingleTime(), times)
    for grid in (lambda: decay_exponent_grid(ev, SingleTime(), times), lambda: flip_exponent_grid(ev, times)):
        with pytest.raises(ValueError) as grid_error:
            grid()
        assert str(grid_error.value) == str(rate_error.value) == "time must be finite and nonnegative, got nan"
    with pytest.raises(ValueError, match="-1.0"):  # not the sum -2.0, which the caller never passed
        flip_exponent_grid(ev, [0.5, -1.0])
    for scenario in (SingleTime(), Prepared(1.0)):
        with pytest.raises(ValueError, match=r"a scalar or a 1-d array, got shape \(2, 2\)"):
            decay_exponent_grid(ev, scenario, np.ones((2, 2)))


def test_rate_matches_exponent_derivative():
    ev = BrownianMatsubara(BATH)
    h = 1e-5
    for scen in (SingleTime(), Prepared(1.0)):
        for t in (0.4, 1.0, 3.0):
            fd = (decay_exponent(ev, scen, t + h) - decay_exponent(ev, scen, t - h)) / (2.0 * h)
            assert decay_exponent_rate(ev, scen, t) == pytest.approx(fd, rel=1e-6)


def test_pair_distance_matches_propagation():
    # the closed-form distance equals the distance of actually propagated states
    ev = BrownianMatsubara(BATH)
    pair = StatePair(DensityMatrix2(0.62, 0.31 * np.exp(0.5j)), DensityMatrix2(0.35, -0.2 + 0.1j))
    t1 = 1.0
    for t2 in (0.0, 0.5, 2.0):
        a = propagate_two_time(pair.a, SYS, ev, coherence_flip(), t1, t2)
        b = propagate_two_time(pair.b, SYS, ev, coherence_flip(), t1, t2)
        direct = trace_distance(a, b)
        assert pair_distance(pair, ev, Prepared(t1), t2) == pytest.approx(direct, rel=1e-13)


def test_sigma_zero_at_origin_for_single_interval():
    ev = BrownianMatsubara(BATH)
    assert sigma(analytic_pair(), ev, SingleTime(), 0.0) == 0.0


def test_sigma_initial_rate_after_preparation():
    # the flip turns accumulated dephasing into immediate regrowth
    ev = BrownianMatsubara(BATH)
    s0 = sigma(analytic_pair(), ev, Prepared(1.0), 0.0)
    ref = ev.gdot(1.0).real * math.exp(-ev.g(1.0).real)
    assert s0 == pytest.approx(ref, rel=1e-12)
    assert s0 > 0.0


def test_sigma_matches_distance_derivative():
    ev = HighTemperatureBrownian(BATH)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        p_a, p_b = rng.uniform(0.0, 1.0, 2)
        c_a = math.sqrt(p_a * (1 - p_a)) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        c_b = math.sqrt(p_b * (1 - p_b)) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        pair = StatePair(DensityMatrix2(p_a, c_a), DensityMatrix2(p_b, c_b))
        scen = Prepared(float(rng.uniform(0.0, 2.0)))
        t = float(rng.uniform(0.1, 3.0))
        fd = (pair_distance(pair, ev, scen, t + h) - pair_distance(pair, ev, scen, t - h)) / (2.0 * h)
        assert sigma(pair, ev, scen, t) == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_sigma_degenerate_pairs():
    ev = HighTemperatureBrownian(BATH)
    same = DensityMatrix2(0.5, 0.2 + 0j)
    assert sigma(StatePair(same, same), ev, Prepared(1.0), 0.5) == 0.0
    # population-only difference: distance is frozen, sigma vanishes
    pops = StatePair(DensityMatrix2(0.8, 0j), DensityMatrix2(0.2, 0j))
    assert sigma(pops, ev, Prepared(1.0), 0.5) == 0.0


def _count_work(monkeypatch):
    """Lists that gather, from now on, BrownianMatsubara's K-term tables (one entry per _explicit call) and the times
    of its row steps, each of which takes g's and gdot's halves at a g miss."""
    work = {"tables": [], "rows": []}
    explicit, row = BrownianMatsubara._explicit, BrownianMatsubara._row
    monkeypatch.setattr(BrownianMatsubara, "_explicit", lambda self, *a: work["tables"].append(1) or explicit(self, *a))
    monkeypatch.setattr(BrownianMatsubara, "_row", lambda self, t, *sums: work["rows"].append(t) or row(self, t, *sums))
    return work


@pytest.mark.parametrize("bath", [BATH, BathParams(1.3, 1.8, 933.0)], ids=["default", "beta-933"])
def test_distance_and_its_rate_at_a_new_time_take_one_table(monkeypatch, bath):
    # E at a new time fills gdot's memo at its times from the same K-term table and row step, so the rate there runs
    # no row; the beta 933 bath's t = 2 is below x = 0.2, where no table is built
    ev = BrownianMatsubara(bath)
    scenario = Prepared(1.0)
    work = _count_work(monkeypatch)
    e = decay_exponent(ev, scenario, 2.0)
    rate = decay_exponent_rate(ev, scenario, 2.0)
    reads_k = 3.0 >= ev._t_direct
    assert work == {"tables": [1] * reads_k, "rows": [1.0, 2.0, 3.0]}
    # sigma at a new time: one table for t and t1 + t, one row each
    s = sigma(analytic_pair(), ev, scenario, 4.0)
    assert work == {"tables": [1] * (2 * reads_k), "rows": [1.0, 2.0, 3.0, 4.0, 5.0]}
    # the rate, E and sigma at held times run no row and build no table
    for t in (2.0, 4.0):
        decay_exponent_rate(ev, scenario, t)
        decay_exponent(ev, scenario, t)
        sigma(analytic_pair(), ev, scenario, t)
    assert work == {"tables": [1] * (2 * reads_k), "rows": [1.0, 2.0, 3.0, 4.0, 5.0]}
    # the same bits as a fresh engine's array calls
    fresh = BrownianMatsubara(bath)
    g1, g2, g12 = fresh.g(np.array([1.0, 2.0, 3.0, 0.0])).tolist()[:3]
    assert e == (2.0 * g1 + 2.0 * g2 - g12).real
    a, b = fresh.gdot(np.array([2.0, 3.0, 0.0, 0.0])).real.tolist()[:2]
    assert rate == 2.0 * a - b
    assert s == sigma(analytic_pair(), BrownianMatsubara(bath), scenario, 4.0)


def test_distance_keeps_its_value_where_only_gdot_raises():
    # beta gamma / 2 pi = 1.6e6 is past half of K + _BLOCK_CAP, so gdot raises at t = 1; g's pointwise calls, which
    # also fill gdot's memo, still return g, E and the distance there, with the values of g's route alone
    bath = BathParams(1.0, 1.0, 1e7, 100)
    ev = BrownianMatsubara(bath)
    assert ev.g(1.0) == 0.33537250849097444 - 0.36787944117144233j
    assert decay_exponent(ev, Prepared(1.0), 1.0) == 0.6311587325867783
    assert decay_exponent(BrownianMatsubara(bath), SingleTime(), 1.0) == 0.33537250849097444
    assert pair_distance(analytic_pair(), BrownianMatsubara(bath), Prepared(1.0), 1.0) == 0.5319750269387351
    assert 1.0 not in ev._gdot_memo
    for t in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(DephaserError, match="more than 2000000 live Matsubara terms past K"):
            ev.gdot(t)
    with pytest.raises(DephaserError, match="more than 2000000 live Matsubara terms past K"):
        decay_exponent_rate(ev, Prepared(1.0), 1.0)
    assert ev.g(1.0) == 0.33537250849097444 - 0.36787944117144233j


def test_single_interval_is_markovian():
    for ev in (HighTemperatureBrownian(BATH), BrownianMatsubara(BATH)):
        res = non_markovianity(SYS, ev, SingleTime(), t_max=10.0)
        assert res.n_value == 0.0
        assert res.intervals == ()
        assert not res.truncated


def test_hot_prepared_measure_matches_closed_form():
    t2_star, n_exact = hot_closed_form()
    ht = HighTemperatureBrownian(BATH)
    res = non_markovianity(SYS, ht, Prepared(1.0), t_max=10.0)
    assert res.n_value == pytest.approx(n_exact, rel=1e-8)
    assert len(res.intervals) == 1
    iv = res.intervals[0]
    assert iv.t_start == 0.0
    assert iv.t_end == pytest.approx(t2_star, abs=1e-8)
    assert res.n_value == pytest.approx(sum(i.delta_d for i in res.intervals), rel=1e-12)


def test_k100_prepared_measure_frozen_values():
    ev = BrownianMatsubara(BATH)
    res = non_markovianity(SYS, ev, Prepared(1.0), t_max=10.0)
    assert res.n_value == pytest.approx(N_K100, rel=1e-8)
    assert len(res.intervals) == 1
    assert res.intervals[0].t_end == pytest.approx(END_K100, abs=1e-8)
    assert not res.truncated


@pytest.mark.parametrize("engine", [BrownianMatsubara, HighTemperatureBrownian])
@pytest.mark.parametrize("t_max", [None, 0.3])
def test_growth_intervals_hold_plain_floats(engine, t_max):
    # a bisected run end is a Python float like the scan edges 0.0 and t_max, not np.float64
    res = non_markovianity(SYS, engine(BATH), Prepared(1.0), t_max=t_max)
    assert res.intervals
    for iv in res.intervals:
        assert [type(v) for v in (iv.t_start, iv.t_end, iv.delta_d)] == [float, float, float]
    assert "np." not in repr(res.intervals)


def test_growth_intervals_standalone():
    ht = HighTemperatureBrownian(BATH)
    ivs = growth_intervals(ht, Prepared(1.0), t_max=10.0)
    t2_star, n_exact = hot_closed_form()
    assert len(ivs) == 1
    assert ivs[0].t_end == pytest.approx(t2_star, abs=1e-8)
    assert ivs[0].delta_d == pytest.approx(n_exact, rel=1e-8)
    # a pair with half the coherence difference gains half the distance
    half = StatePair(DensityMatrix2(0.5, 0.25 + 0j), DensityMatrix2(0.5, -0.25 + 0j))
    ivs_half = growth_intervals(ht, Prepared(1.0), t_max=10.0, pair=half)
    assert ivs_half[0].delta_d == pytest.approx(0.5 * n_exact, rel=1e-8)


@pytest.mark.parametrize("engine", [BrownianMatsubara, HighTemperatureBrownian])
def test_growth_intervals_without_a_run_are_empty(engine):
    # gdot(0) = 0, so one free interval has no growth run on the certified route
    assert growth_intervals(engine(BATH), SingleTime(), t_max=10.0) == []


def test_truncated_window_flagged():
    # window ends inside the growth region
    ht = HighTemperatureBrownian(BATH)
    res = non_markovianity(SYS, ht, Prepared(1.0), t_max=0.3)
    assert res.truncated
    assert res.intervals[0].t_end == 0.3
    d_end = math.exp(-decay_exponent(ht, Prepared(1.0), 0.3))
    d_start = math.exp(-decay_exponent(ht, Prepared(1.0), 0.0))
    assert res.n_value == pytest.approx(d_end - d_start, rel=1e-12)


def test_grid_search_brackets_analytic_value():
    ht = HighTemperatureBrownian(BATH)
    exact = non_markovianity(SYS, ht, Prepared(1.0), t_max=10.0)
    grid = non_markovianity(SYS, ht, Prepared(1.0), t_max=10.0, search=GridSearch(20, 20, 8))
    assert grid.n_value <= exact.n_value + 1e-9
    assert grid.n_value >= exact.n_value - 1e-3
    assert grid.search == "grid" and exact.search == "analytic"


def test_grid_search_finds_antipodal_structure():
    ht = HighTemperatureBrownian(BATH)
    res = non_markovianity(SYS, ht, Prepared(1.0), t_max=10.0, search=GridSearch(20, 20, 8))
    pair = res.pair
    assert abs(pair.a.p11 - pair.b.p11) <= 0.05
    assert abs(pair.a.c12 - pair.b.c12) >= 0.99
    assert res.n_value == pytest.approx(sum(iv.delta_d for iv in res.intervals), rel=1e-12)


def test_default_window_is_ten_memory_times():
    ht = HighTemperatureBrownian(BATH)
    res = non_markovianity(SYS, ht, Prepared(1.0))
    assert res.t_max == pytest.approx(10.0 / BATH.gamma)


def test_default_window_needs_bath_parameters():
    w = np.geomspace(1e-3, 100.0, 400)
    tab = TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w))
    ev = FrequencyQuadrature(tab, BATH.beta)
    with pytest.raises(ValueError):
        non_markovianity(SYS, ev, SingleTime())


def test_scan_validation():
    ht = HighTemperatureBrownian(BATH)
    with pytest.raises(ValueError):
        non_markovianity(SYS, ht, SingleTime(), t_max=-1.0)
    with pytest.raises(TypeError):
        non_markovianity(SYS, ht, SingleTime(), t_max=10.0, search="grid")
    with pytest.raises(TypeError):
        decay_exponent(ht, "later", 1.0)


def test_measure_continuous_in_preparation_time():
    ht = HighTemperatureBrownian(BATH)
    n1 = non_markovianity(SYS, ht, Prepared(1.0), t_max=10.0).n_value
    n2 = non_markovianity(SYS, ht, Prepared(1.0 + 1e-4), t_max=10.0).n_value
    assert abs(n1 - n2) < 1e-2


def test_preparation_dependence_saturates():
    # the memory profile M(t1, .) = E(t1, .) - E(t1, 0) stops changing once
    # t1 spans many bath memory times
    ev = BrownianMatsubara(BATH)
    t2 = np.linspace(0.0, 10.0, 200)

    def profile(t1):
        sc = Prepared(t1)
        base = decay_exponent(ev, sc, 0.0)
        return np.array([decay_exponent(ev, sc, float(t)) - base for t in t2])

    gap_late = np.max(np.abs(profile(18.0) - profile(20.0)))
    gap_early = np.max(np.abs(profile(8.0) - profile(12.0)))
    assert gap_late < 1e-3
    assert gap_late < gap_early


def _scalar_re_gdot(ev, t):
    """Re gdot(t) of BrownianMatsubara as its scalar-only form computes it: K terms, pole, then tail; below x = 0.2
    the pole, then the Matsubara sum on the nodes of g's (the engine's own)."""
    if t == 0.0:
        return 0.0
    p = ev.bath
    d = ev._table
    nu_k, _, b_k = d.explicit
    small_x = t < ev._t_direct
    re = 0.0 if small_x else float(np.sum(-b_k * np.expm1(-nu_k * t)))
    if d.m:
        # the pole's rest, then the pair: the m-th term's rest and P times the divided difference of e^{-lambda t}
        re += d.pole_rest * (-math.expm1(-p.gamma * t))
        rates = min(p.gamma, d.nu_m), max(p.gamma, d.nu_m)
        re += d.m_rest * -math.expm1(-d.nu_m * t) - d.pair_amp * _exp_divided_difference(*rates, t)
    else:
        re += d.pole_b * (-math.expm1(-p.gamma * t))
    if small_x:
        return re + ev._small_x(t, False, True)[1]
    k = p.matsubara_terms
    n_stop = math.ceil(45.0 * p.beta / (2.0 * math.pi * t))
    if n_stop <= k:
        return re + d.tail_sums(k)[1]
    # the at most 226 - K live terms
    nu = 2.0 * math.pi * np.arange(k + 1.0, n_stop + 1.0) / p.beta
    cnu = 4.0 * p.eta * p.gamma / (p.beta * (nu**2 - p.gamma**2))
    if k < d.m <= n_stop:
        cnu[d.m - k - 1] = 0.0  # the pair holds the m-th term
    block = float(np.sum(-cnu * np.expm1(-nu * t)))
    return re + (block + d.tail_sums(n_stop)[1])


def _scalar_rate(ev, scenario, t):
    if isinstance(scenario, SingleTime):
        return _scalar_re_gdot(ev, t)
    return 2.0 * _scalar_re_gdot(ev, t) - _scalar_re_gdot(ev, scenario.t1 + t)


def _scalar_growth_runs(ev, scenario, t_max):
    """The growth scan as one scalar rate evaluation per grid point, then _root on each crossing."""
    ts = np.linspace(0.0, t_max, _N_SCAN + 1)
    rate = np.array([_scalar_rate(ev, scenario, float(t)) for t in ts])
    neg = rate < 0.0
    f = lambda t: _scalar_rate(ev, scenario, t)  # noqa: E731
    runs = []
    i = 0
    while i <= _N_SCAN:
        if not neg[i]:
            i += 1
            continue
        j = i
        while j + 1 <= _N_SCAN and neg[j + 1]:
            j += 1
        start = 0.0 if i == 0 else _root(f, ts[i - 1], ts[i], rate[i - 1], rate[i], _REFINE_TOL)
        end = t_max if j == _N_SCAN else _root(f, ts[j], ts[j + 1], rate[j], rate[j + 1], _REFINE_TOL)
        runs.append((start, end))
        i = j + 1
    return rate, runs, bool(neg[-1])


@pytest.mark.parametrize(
    "bath, scenario, t_max",
    [
        (BATH, Prepared(1.0), 10.0),
        (BATH, Prepared(1.0), 0.5),  # ends inside the growth run: truncated
        (BATH, SingleTime(), 10.0),
        # cold: scan points below x = 0.2 (t < 29.7) take the small-x sum, and up to t = 45 beta / (2 pi K) = 67 the
        # live terms past K
        (BathParams(eta=1.3, gamma=1.8, beta=933.0, matsubara_terms=100), Prepared(0.097), 100.0),
        # beta gamma / 2 pi = 1: the resonant pole terms
        (BathParams(eta=1.0, gamma=1.0, beta=2.0 * math.pi, matsubara_terms=25), Prepared(1.0), 10.0),
    ],
    ids=["warm", "warm-truncated", "warm-single", "cold", "resonant"],
)
def test_growth_scan_matches_scalar_loop_bit_for_bit(bath, scenario, t_max):
    ev = BrownianMatsubara(bath)
    rate, runs, truncated = _scalar_growth_runs(ev, scenario, t_max)
    ts = np.linspace(0.0, t_max, _N_SCAN + 1)
    assert np.array_equal(decay_exponent_rate(ev, scenario, ts).view(np.uint64), rate.view(np.uint64))
    assert _scan_runs(ev, scenario, t_max, _N_SCAN) == (runs, truncated)


ENGINES = {"analytic": BrownianMatsubara, "hight": HighTemperatureBrownian}
BATHS = [BATH, BathParams(0.5, 1.2, 5.0), BathParams(2.0, 0.3, 0.3)]


def _sign_changes(ev, t1):
    """Sign changes of (C, -B_k (2 - e^{-lambda_k t1})) in order of lambda_k, from the bath's Dirichlet table.

    Re gdot = C - sum_k B_k e^{-lambda_k t}, C = 2 eta / (beta gamma), over the
    pole lambda = gamma (B = eta cot(beta gamma / 2)) and the nu_n (B_n = c_n nu_n);
    the Prepared(t1) rate 2 Re gdot(t) - Re gdot(t1 + t) has these coefficients.
    The n > K terms are listed up to the first nu_n above gamma: past it every c_n > 0.
    Also checks that C is the late-time rate.
    """
    p = ev.bath
    d = p.dirichlet()
    rate = d.rate
    if isinstance(ev, HighTemperatureBrownian):
        lam, b = np.array([p.gamma]), np.array([rate])
    else:
        k = p.matsubara_terms
        rest = max(0, math.ceil(p.pole_ratio) - k) + 1
        nu_k, _, b_k = d.explicit
        # B_n = 4 eta gamma / (beta (nu_n^2 - gamma^2)) of n = K + 1, ..., K + rest, with the pair's m-th 0
        nu_rest = p.matsubara_frequency(np.arange(k + 1.0, k + rest + 1.0))
        with np.errstate(divide="ignore"):  # nu_m = gamma exactly
            b_rest = 4.0 * p.eta * p.gamma / (p.beta * (nu_rest**2 - p.gamma**2))
        if k < d.m <= k + rest:
            b_rest[d.m - k - 1] = 0.0
        lam = np.concatenate(([p.gamma], nu_k, nu_rest))
        b = np.concatenate(([d.pole_b], b_k, b_rest))
    t_late = 60.0 / min(p.gamma, float(p.matsubara_frequency(1)))
    assert ev.gdot(t_late).real == pytest.approx(rate, rel=1e-9)
    seq = np.sign(np.concatenate(([rate], (-b * (2.0 - np.exp(-lam * t1)))[np.argsort(lam, kind="stable")])))
    seq = seq[seq != 0.0]
    return int(np.count_nonzero(seq[1:] != seq[:-1]))


# one growth interval [0, t*): each example also checks the premise, one sign change of the rate's coefficients
@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    eta=st.floats(0.1, 10.0),
    gamma=st.floats(0.1, 3.0),
    beta=st.floats(0.1, 100.0),
    terms=st.sampled_from([0, 1, 10, 100]),
    t1=st.floats(0.01, 5.0),
    window=st.floats(0.01, 1.0),
)
@example(engine="analytic", eta=1.0, gamma=1.0, beta=2.0 * math.pi, terms=1, t1=1.0, window=1.0)  # resonant, a = 1
@example(engine="analytic", eta=1.0, gamma=0.5, beta=8.0 * math.pi, terms=2, t1=1.0, window=1.0)  # resonant, a = 2
@example(engine="hight", eta=1.0, gamma=0.5, beta=1.0, terms=100, t1=1.0, window=1.0)
@example(engine="analytic", eta=1.0, gamma=0.5, beta=1.0, terms=100, t1=1.0, window=0.02)  # t_max inside the run
@example(engine="analytic", eta=1.0, gamma=0.5, beta=1.0, terms=100, t1=0.0, window=1.0)  # Prepared(0)
@example(engine="analytic", eta=1.3, gamma=1.3, beta=100.0, terms=100, t1=0.5, window=1.0)  # cold, a = 20.7
def test_certified_root_is_the_scan(engine, eta, gamma, beta, terms, t1, window):
    ev = ENGINES[engine](BathParams(eta, gamma, beta, terms))
    assert _sign_changes(ev, t1) == 1
    scenario, t_max = Prepared(t1), window * 10.0 / gamma
    assert ev.certified_bath is ev.bath
    runs, truncated = _scan_runs(ev, scenario, t_max, 1)
    scan_runs, scan_truncated = _scan_runs(ev, scenario, t_max, _N_SCAN)
    assert (len(runs), truncated) == (len(scan_runs), scan_truncated)
    for (start, end), (scan_start, scan_end) in zip(runs, scan_runs):
        assert start == scan_start == 0.0 and abs(end - scan_end) <= _REFINE_TOL


_ROOT_CASES = dict(
    eta=st.floats(0.1, 10.0), gamma=st.floats(0.1, 3.0), beta=st.floats(0.1, 100.0), t1=st.floats(0.01, 5.0)
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(**_ROOT_CASES)
def test_hight_growth_end_is_the_closed_form(eta, gamma, beta, t1):
    # hight's rate C (1 - e^{-gamma t} (2 - e^{-gamma t1})) is zero at t* = ln(2 - e^{-gamma t1}) / gamma < 10 / gamma
    res = non_markovianity(SYS, HighTemperatureBrownian(BathParams(eta, gamma, beta)), Prepared(t1))
    [interval] = res.intervals
    assert interval.t_start == 0.0
    assert abs(interval.t_end - math.log(2.0 - math.exp(-gamma * t1)) / gamma) <= _REFINE_TOL


@settings(max_examples=10, derandomize=True, deadline=None)
@given(**_ROOT_CASES)
def test_certified_measure_is_the_scan_measure(eta, gamma, beta, t1):
    ev = BrownianMatsubara(BathParams(eta, gamma, beta))
    scenario = Prepared(t1)
    res = non_markovianity(SYS, ev, scenario)
    runs, truncated = _scan_runs(ev, scenario, 10.0 / gamma, _N_SCAN)
    [interval] = res.intervals
    [(_, scan_end)] = runs
    assert (interval.t_start, res.truncated, truncated) == (0.0, False, False)
    assert abs(interval.t_end - scan_end) <= _REFINE_TOL
    # N = D(t_end) - D(0) is a difference of two distances, so its roundoff is on the scale of D(t_end):
    # relative to N itself the routes differ by up to 3e-11 on damped baths, where D(t_end) is about 1000 N
    w_end, w_start, unit = _weights(ev, scenario, runs)
    scan_n = unit * _total_gain(0.0, 1.0, w_end, w_start)
    assert abs(res.n_value - scan_n) <= 1e-12 * pair_distance(analytic_pair(), ev, scenario, scan_end)


@pytest.mark.parametrize("bath", BATHS, ids=["default", "cold", "hot"])
@pytest.mark.parametrize("engine", ENGINES)
def test_certified_single_interval_is_the_scan(engine, bath):
    ev = ENGINES[engine](bath)
    assert _scan_runs(ev, SingleTime(), 10.0, 1) == _scan_runs(ev, SingleTime(), 10.0, _N_SCAN) == ([], False)


# a growth end past 2^19, where adjacent floats lie more than _REFINE_TOL apart: the bisection looped forever there
_FAR_GROWTH_END = """
import json, sys
from dephaser import BathParams, BrownianMatsubara, HighTemperatureBrownian, Prepared, SystemParams, non_markovianity
bath = BathParams(1.0, 1e-7, 1.0)
engines = {"hight": HighTemperatureBrownian(bath), "analytic": BrownianMatsubara(bath),
           "strict": BrownianMatsubara(bath, include_tail=False)}
res = non_markovianity(SystemParams(), engines[sys.argv[1]], Prepared(1e7), t_max=1e8)
print(json.dumps([[i.t_start, i.t_end] for i in res.intervals]))
"""


@pytest.mark.parametrize("engine", ["hight", "analytic", "strict"], ids=["certified-hight", "certified", "scan"])
def test_growth_end_past_2_19_terminates(engine):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dephaser.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FAR_GROWTH_END, engine], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    [[t_start, t_end]] = json.loads(proc.stdout)
    # hight's closed form t* = ln(2 - e^{-gamma t1}) / gamma = 4.9e6, where floats are 9.3e-10 apart
    t_star = math.log(2.0 - math.exp(-1.0)) / 1e-7
    assert t_start == 0.0 and t_end == pytest.approx(t_star, rel=1e-12)


def _never_called(t):
    raise AssertionError(f"evaluated at {t!r}")


def test_bisection_stops_at_adjacent_floats():
    # a sign change between adjacent floats more than tol apart: no midpoint lies inside, so nothing is evaluated
    lo = 2.0**20
    hi = math.nextafter(lo, math.inf)
    assert hi - lo > _REFINE_TOL
    assert _root(_never_called, lo, hi, -1.0, 1.0, _REFINE_TOL) in (lo, hi)


class _Subnormal:
    """BrownianMatsubara's gdot on the default bath times 1e-320, as a certified evaluator: every rate is subnormal.

    The engine itself raises DephaserError on a bath whose rate C = 2 eta / (beta gamma) is subnormal.
    """

    def __init__(self):
        self._ev = BrownianMatsubara(BATH)
        self.bath = self.certified_bath = BATH

    def gdot(self, t):
        return self._ev.gdot(t) * 1e-320


def test_root_survives_a_subnormal_rate():
    # rates of 1e-320: an end's negative value halves to -0.0 while the other end's is 0.0
    ev = _Subnormal()
    [(start, end)], truncated = _scan_runs(ev, Prepared(1.0), 20.0, 1)
    [(_, scan_end)], _ = _scan_runs(ev, Prepared(1.0), 20.0, _N_SCAN)
    assert (start, truncated) == (0.0, False) and abs(end - scan_end) <= _REFINE_TOL


def test_only_an_exact_brownian_g_is_certified():
    w = np.geomspace(1e-3, 100.0, 400)
    tab = TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w))
    assert BrownianMatsubara(BATH, include_tail=False).certified_bath is None
    assert FrequencyQuadrature(tab, BATH.beta).certified_bath is None
    assert TimeDomainQuadrature(tab, BATH.beta).certified_bath is None
    for ev in (
        BrownianMatsubara(BATH),
        HighTemperatureBrownian(BATH),
        FrequencyQuadrature(OverdampedBrownian(BATH), BATH.beta),
        TimeDomainQuadrature(OverdampedBrownian(BATH), BATH.beta),
    ):
        assert ev.certified_bath == BATH


_LOG_GRID = np.geomspace(1e-9, 1e3, 37)
# the param_sweep pool's cold corner, beta gamma / (2 pi) = 267
BETA_933 = BathParams(1.3, 1.8, 933.0)


@pytest.mark.parametrize("bath", [*BATHS, BETA_933], ids=["default", "cold", "hot", "beta-933"])
@pytest.mark.parametrize("engine", ENGINES)
def test_re_gdot_is_positive(engine, bath):
    # the theorem's Re gdot > 0 on (0, inf), which makes N(SingleTime) = 0
    assert np.all(ENGINES[engine](bath).gdot(_LOG_GRID).real > 0.0)


def _re_g_cases():
    """(engine, grid points, bath) cases; analytic Re g was <= 0 below edge until its exact sum took L's window and
    Euler-Maclaurin tails below x = 2 pi t / beta = 0.2 (ROADMAP item 3), so the grid is split there."""
    for name, bath, edge, tag in (
        ("default", BATH, 1e-7, "1e-7"),
        ("cold", BATHS[1], 1e-7, "1e-7"),
        ("hot", BATHS[2], 1e-7, "1e-7"),
        # every grid point up to t = 1e-5; the next, 2.15e-5, was positive
        ("beta-933", BETA_933, 2e-5, "2e-5"),
    ):
        below = _LOG_GRID < edge
        yield pytest.param("hight", np.ones_like(below), bath, id=f"hight-{name}")
        yield pytest.param("analytic", ~below, bath, id=f"analytic-from-{tag}-{name}")
        yield pytest.param("analytic", below, bath, id=f"analytic-below-{tag}-{name}")


@pytest.mark.parametrize("engine, points, bath", _re_g_cases())
def test_re_g_is_positive(engine, points, bath):
    assert np.all(ENGINES[engine](bath).g(_LOG_GRID[points]).real > 0.0)


def test_time_quad_measure_takes_about_a_hundred_integrals(monkeypatch):
    # the scan asked for 40 004 integrals, 112 s through `measure --engine time-quad --tmax 8`
    calls = []
    integral = TimeDomainQuadrature._integral

    def counted(self, t, derivative):
        calls.append(t)
        return integral(self, t, derivative)

    monkeypatch.setattr(TimeDomainQuadrature, "_integral", counted)
    ev = TimeDomainQuadrature(OverdampedBrownian(BATH), BATH.beta)
    res = non_markovianity(SYS, ev, Prepared(1.0), t_max=8.0)
    # 26 are made: the rate at 0 and at t_max, the root's steps and N; the bound leaves about a quarter more
    assert len(calls) <= 32
    assert res.n_value == pytest.approx(N_K100, rel=1e-8)


# The library's own outputs on a warm bath (a = 0.08), the cold beta 933 bath (a = 267, past K) and a = 1.001 (on nu_1,
# inside K): the decay exponents, their rates, echo_response, flip_exponent_grid, two_time_map and non_markovianity.
_LIBRARY_BATHS = {
    "default": BATH,
    "beta 933": BETA_933,
    "a = 1.001": BathParams(1.0, 6.2894, 1.0),
}
# SHA-256 of _library_bytes of each bath, recorded with numpy 2.4.6 on x86-64; a change that moves a bit on purpose
# records it again and says so (all three when Re g below x = 0.2 took L's window and Euler-Maclaurin tails and h its
# Taylor series at small arguments; the default bath, when S0 of the tail sums lost its 1 / a^2 cancellation; last:
# beta 933 and a = 1.001, when Re gdot below x = 0.2 moved onto g's nodes: 82 and 2 of 363 values, by at most 1e-13
# relative but for one growth end of beta 933, a root refined to 1e-10, which moved by 1.3e-12)
_LIBRARY_DIGESTS = {
    "default": "99a8c4c6d5d6aaba71617f64a862779c83da513906cb34dd36944e5218b4d1d8",
    "beta 933": "796fc387c65439f7476256170498345622aae4f6148abde244425a270f5a2234",
    "a = 1.001": "b73dac4def3b3c6702441cd7d05cfff31ee979528d27c98b1d0b64dc8a522961",
}


def _library_bytes(bath):
    """The raw bytes of every library output the digest covers, in a fixed order of calls on one engine."""
    ev = BrownianMatsubara(bath)
    ts = np.linspace(0.0, 6.0, 25)
    out = []
    for scenario in (SingleTime(), Prepared(0.5), Prepared(2.0)):
        out.append(np.array([decay_exponent(ev, scenario, t) for t in (0.3, 1.0, 4.0)]))
        out.append(decay_exponent_grid(ev, scenario, ts))
        out.append(np.asarray(decay_exponent_rate(ev, scenario, ts)))
        out.append(np.array([decay_exponent_rate(ev, scenario, 0.7)]))
    out.append(np.array([echo_response(ev, t1, t2) for t1 in (0.2, 1.0, 3.0) for t2 in (0.0, 0.5, 2.5)]))
    out.append(flip_exponent_grid(ev, ts[::4]))
    for t1, t2 in ((0.4, 1.3), (2.0, 0.6)):
        out.append(two_time_map(SystemParams(1.3), ev, coherence_flip(), t1, t2).matrix)
    for scenario in (SingleTime(), Prepared(0.1), Prepared(1.0), Prepared(3.0)):
        res = non_markovianity(SYS, ev, scenario)
        fields = [res.n_value, res.t_max, float(res.truncated)]
        fields += [v for iv in res.intervals for v in (iv.t_start, iv.t_end, iv.delta_d)]
        out.append(np.array(fields))
    return b"".join(a.tobytes() for a in out)


@pytest.mark.parametrize("name", list(_LIBRARY_BATHS))
def test_library_bits_match_the_pinned_digests(name):
    _skip_off_the_pinned_kernel()
    assert hashlib.sha256(_library_bytes(_LIBRARY_BATHS[name])).hexdigest() == _LIBRARY_DIGESTS[name]


def test_distances_keep_a_coherence_whose_square_underflows():
    # E(t_end) = 406.5 on this hot bath: e^{-2E} is below the floats, e^{-E} = 2.8e-177 is a normal float, and N of the
    # analytic pair is e^{-E(t_end)} - e^{-E(0)}; the grid's best pair has |dc| = 1 - 1e-12 and dp = 0.  The analytic
    # pair's distance is e^{-E} and its sigma -dE/dt e^{-E}
    ev = BrownianMatsubara(BathParams(6.0, 1.0, 0.109375))
    scenario = Prepared(5.0)
    res = non_markovianity(SYS, ev, scenario)
    (interval,) = res.intervals
    want = math.exp(-decay_exponent(ev, scenario, interval.t_end)) - math.exp(-decay_exponent(ev, scenario, 0.0))
    assert want > 1e-177 and res.n_value == interval.delta_d
    assert math.isclose(res.n_value, want, rel_tol=1e-12)
    grid = non_markovianity(SYS, ev, scenario, search=GridSearch(5, 5, 4))
    assert math.isclose(grid.n_value, want, rel_tol=1e-11)
    pair = analytic_pair()
    for t in (0.3, interval.t_end):
        coherence = math.exp(-decay_exponent(ev, scenario, t))
        assert coherence * coherence < sys.float_info.min < coherence
        assert math.isclose(pair_distance(pair, ev, scenario, t), coherence, rel_tol=1e-12)
        rate = decay_exponent_rate(ev, scenario, t)
        assert math.isclose(sigma(pair, ev, scenario, t), -rate * coherence, rel_tol=1e-12)
    # the populations in that unit do not overflow: the pair of the two basis states is at distance 1
    basis = StatePair(DensityMatrix2(1.0, 0j), DensityMatrix2(0.0, 0j))
    assert pair_distance(basis, ev, scenario, 0.3) == 1.0


class _Negative:
    """An evaluator with g = -400 t, whose E(1) = -400 is below the -354.9 where e^{-2E} overflows."""

    def g(self, t):
        return -400.0 * np.asarray(t, dtype=float) + 0j

    def gdot(self, t):
        return -400.0 + 0.0 * np.asarray(t, dtype=float) + 0j


def test_overflowing_weight_raises_dephaser_error_at_every_site():
    # pair_distance, sigma and the measure's run weights share one e^{-2E}; math.exp raised an untyped OverflowError
    pair = analytic_pair()
    for call in (
        lambda: pair_distance(pair, _Negative(), SingleTime(), 1.0),
        lambda: sigma(pair, _Negative(), SingleTime(), 1.0),
        lambda: _weights(_Negative(), SingleTime(), [(0.5, 1.0)]),
    ):
        with pytest.raises(DephaserError, match=r"the decay exponent E = -400\.0 is so negative"):
            call()
    assert math.isclose(pair_distance(pair, _Negative(), SingleTime(), 0.8), math.exp(320.0), rel_tol=1e-15)
