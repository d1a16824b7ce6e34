"""Spectral densities and the bath correlation function."""

import hashlib
import json
import math
from bisect import bisect_left
import os
import re
import subprocess
import sys

import _expint_fit
import mpmath
import numpy as np
import pytest
from _oracle import correlation, tail_sums
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dephasing import _skip_off_the_pinned_kernel

# scipy stays a dependency of the quadrature engines, so its digamma can pin the operations _digamma shares with it
from scipy.special import digamma as scipy_digamma

import dephaser
from dephaser import _expint_fits, spectral
from dephaser.dephasing import BrownianMatsubara
from dephaser.errors import DephaserError, ExtrapolationError, IntegrationError
from dephaser.spectral import (
    _A_MAX,
    _ASYMPTOTIC,
    _DIRECT_X,
    _EXP_DEAD,
    _H_SERIES_TOP,
    _H_TAYLOR,
    _LIVE_STOP,
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    _SmallXSums,
    _asymptotic_rest,
    _cot_rest,
    _digamma,
    _e1_scaled,
    _exp_divided_difference,
    _h_divided_difference,
    correlation_function,
    coth,
)

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0)


def test_brownian_value_at_cutoff():
    # J(gamma) = eta exactly: 2 eta gamma^2 / (2 gamma^2)
    sd = OverdampedBrownian(BATH)
    assert sd.j(0.5) == pytest.approx(1.0, rel=1e-15)


def test_brownian_peaks_at_cutoff():
    sd = OverdampedBrownian(BATH)
    w = np.linspace(0.01, 5.0, 2000)
    jw = sd.j(w)
    assert w[np.argmax(jw)] == pytest.approx(BATH.gamma, abs=0.01)


def test_brownian_low_frequency_slope():
    sd = OverdampedBrownian(BATH)
    assert sd.j(1e-8) / 1e-8 == pytest.approx(2.0 * BATH.eta / BATH.gamma, rel=1e-6)


def test_spectral_density_rejects_nonpositive_frequency():
    sd = OverdampedBrownian(BATH)
    with pytest.raises(ValueError):
        sd.j(0.0)
    with pytest.raises(ValueError):
        sd.j(-1.0)
    with pytest.raises(ValueError):
        sd.j(np.array([1.0, -0.5]))


def test_bath_params_validation():
    with pytest.raises(ValueError):
        BathParams(eta=-1.0, gamma=0.5, beta=1.0)
    with pytest.raises(ValueError):
        BathParams(eta=1.0, gamma=0.0, beta=1.0)
    with pytest.raises(ValueError):
        BathParams(eta=1.0, gamma=0.5, beta=math.inf)
    with pytest.raises(ValueError):
        BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=-1)


@pytest.mark.parametrize("terms", [2.5, 3.0, True, "3"], ids=repr)
def test_bath_params_rejects_a_term_count_that_is_not_an_integer(terms):
    # a float K used to be accepted and then broke the Dirichlet table's slices in the first g call
    with pytest.raises(ValueError, match="matsubara_terms"):
        BathParams(1.0, 0.5, 1.0, terms)


def test_bath_params_accepts_numpy_integer_term_counts():
    bath = BathParams(1.0, 0.5, 1.0, np.int64(3))
    assert BrownianMatsubara(bath).g(1.0) == BrownianMatsubara(BathParams(1.0, 0.5, 1.0, 3)).g(1.0)


def test_matsubara_frequencies():
    p = BathParams(eta=1.0, gamma=0.5, beta=2.0)
    assert p.matsubara_frequency(1) == pytest.approx(math.pi, rel=1e-15)
    assert np.allclose(p.matsubara_frequency([1, 2, 3]), math.pi * np.array([1, 2, 3]))


def test_tabulated_interpolation_and_extrapolation():
    w = np.linspace(0.1, 10.0, 500)
    sd_ref = OverdampedBrownian(BATH)
    tab = TabulatedSpectralDensity(w, sd_ref.j(w))
    assert tab.j(w[10]) == sd_ref.j(w[10])  # exact at the nodes
    mid = 0.5 * (w[10] + w[11])
    # linear midpoint error is h^2 |J''| / 8, about 5e-4 here
    assert tab.j(mid) == pytest.approx(sd_ref.j(mid), rel=2e-3)
    with pytest.raises(ExtrapolationError):
        tab.j(0.05)
    with pytest.raises(ExtrapolationError):
        tab.j(11.0)


def test_tabulated_grid_validation():
    with pytest.raises(ValueError):
        TabulatedSpectralDensity([1.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        TabulatedSpectralDensity([-1.0, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        TabulatedSpectralDensity([1.0, 2.0], [0.1, math.nan])


def test_coth_branches_agree():
    assert coth(2.0) == pytest.approx(1.0 / math.tanh(2.0), rel=1e-15)
    # Laurent branch against the hyperbolic one just above the switch
    assert coth(5e-5) == pytest.approx(1.0 / math.tanh(5e-5), rel=1e-12)
    assert coth(1.2e-4) == pytest.approx(1.0 / math.tanh(1.2e-4), rel=1e-12)
    arr = coth(np.array([1e-5, 0.1, 3.0]))
    assert arr.shape == (3,)


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.floats(-2e-4, 2e-4))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(1e-300)
@example(1e-4)  # the Laurent switch, and the float on either side of it
@example(-1e-4)
@example(9.999999999999999e-05)
@example(0.00010000000000000002)
@example(-9.999999999999999e-05)
@example(-0.00010000000000000002)
def test_coth_float_path_matches_the_array_path_bit_for_bit(x):
    got = coth(x)
    with np.errstate(over="ignore"):  # 1/x overflows below about 5.6e-309 in the array path
        want = coth(np.array([x]))[0]
    assert type(got) is float
    assert np.float64(got).view(np.uint64) == want.view(np.uint64), (x, got, want)


def test_scaled_exponential_integrals_match_mpmath():
    # e^z E1(z) within 8 ulp (its series cancels by up to a factor 4 just below 1) from 1e-300 to 1e6, either side of
    # each switch; from _ASYMPTOTIC on, its asymptotic series within 4 ulp; at every edge of the fits on [1,
    # _ASYMPTOTIC) and the float below it, and densely on [1, 2], where the fits replaced a continued fraction of up to
    # 110 levels
    edges = [math.ldexp(k, e - 3) for e in range(1, 7) for k in range(4, 8) if math.ldexp(k, e - 3) < _ASYMPTOTIC]
    zs = np.concatenate([np.geomspace(1e-300, 1e6, 300), np.linspace(0.05, 60.0, 150), [5e-324]])
    zs = np.concatenate([zs, np.linspace(1.0, 2.0, 401)])
    zs = np.concatenate([zs, [s for z in (*edges, _ASYMPTOTIC) for s in (z, np.nextafter(z, 0.0))]])
    with mpmath.workdps(40):
        for z in zs.tolist():
            e1 = mpmath.exp(z) * mpmath.e1(z)
            assert abs(_e1_scaled(z) - e1) <= 8.0 * _ULP * e1, z
            if z >= _ASYMPTOTIC:
                assert abs(1.0 / z + _asymptotic_rest(z) - e1) <= 4.0 * _ULP * e1, z


@pytest.mark.parametrize("name", ["_E1_FIT"])
def test_fit_tables_are_the_mpmath_fits(name):
    # one piece of [1, 56) per row, in the order _e1_scaled indexes them, and three rows are the floats of
    # tests/_expint_fit.py (mpmath's chebyfit at 50 digits) at their degree: refitting all 23 takes about 1 s
    table = getattr(_expint_fits, name)
    pieces = _expint_fit.pieces()
    assert len(table) == len(pieces) == 23
    for i in (0, 11, 22):
        e, k = pieces[i]
        assert _expint_fit.fit(_expint_fit.e1_scaled, e, k, len(table[i]) - 1) == table[i], (e, k)


def test_cot_rest_matches_mpmath():
    # cot(z) - 1/z on [-pi/2, pi/2]: the series below |z| = 1/4 within 4 ulp of the value, and the direct difference
    # above it within 4 ulp of 1/|z|, what cot and 1/z cancel: 2e-15 absolute at the switch, where the value is -0.084
    zs = np.concatenate([np.linspace(-math.pi / 2.0, math.pi / 2.0, 801), 10.0 ** np.linspace(-30.0, 0.19, 200)])
    zs = np.concatenate([zs, [0.0, 0.25, np.nextafter(0.25, 0.0), -0.25, np.nextafter(-0.25, 0.0)]])
    with mpmath.workdps(100):  # cot(z) and 1/z cancel down to z^2 / 3 in the reference too
        for z in zs.tolist():
            want = float(mpmath.cot(z) - 1 / mpmath.mpf(z)) if z else 0.0
            assert abs(_cot_rest(z) - want) <= 4.0 * _ULP * (abs(want) + (1.0 / abs(z) if abs(z) >= 0.25 else 0.0)), z
    assert _cot_rest(0.0) == 0.0 and _cot_rest(-1e-300) == 1e-300 / 3.0


def _h_over_lambda(lam, t):
    return (mpmath.exp(-lam * t) + lam * t - 1) / lam


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    lo=st.floats(1e-2, 10.0),
    gap=st.one_of(st.just(0.0), st.floats(1e-16, 1e-1), st.floats(1e-1, 1.0)),
    t_scale=st.one_of(st.floats(1e-3, 30.0), st.sampled_from([1e-3, 1.0])),
)
def test_divided_differences_match_mpmath(lo, gap, t_scale):
    # the pair's divided differences over [lo, lo (1 + gap)] at t = t_scale / hi: no cancellation at any gap, E within
    # 8 ulp, H within 8 ulp where it is its series (hi t < 1/2) and 8 ulp (1 + 1 / (lo t)) above, the cancellation of
    # h(lo t) itself there, and the limits at gap = 0
    hi = lo * (1.0 + gap)
    t = t_scale / hi
    with mpmath.workdps(60):
        lo_, hi_, t_ = (mpmath.mpf(v) for v in (lo, hi, t))
        if lo == hi:
            e = -t_ * mpmath.exp(-lo_ * t_)
            h = mpmath.diff(lambda lam: _h_over_lambda(lam, t_), lo_)
        else:
            e = (mpmath.exp(-lo_ * t_) - mpmath.exp(-hi_ * t_)) / (lo_ - hi_)
            h = (_h_over_lambda(hi_, t_) - _h_over_lambda(lo_, t_)) / (hi_ - lo_)
    assert _exp_divided_difference(lo, hi, t) == pytest.approx(float(e), rel=8.0 * _ULP)
    h_rel = 8.0 * _ULP * (1.0 + 1.0 / (lo * t) if hi * t >= 0.5 else 1.0)
    assert _h_divided_difference(lo, hi, t) == pytest.approx(float(h), rel=h_rel)


_RNG = np.random.default_rng(20261018)
# the asymptotic series, the recurrence up to 10 and the integers: the tail sums take digamma at x >= 1/2 only
_DIGAMMA_SETS = {
    "log-uniform 1e-6..1e7": 10.0 ** _RNG.uniform(-6.0, 7.0, 20000),
    "from 1e17": np.concatenate([[np.nextafter(1e17, 0.0), 1e17], 10.0 ** _RNG.uniform(17.0, 308.0, 2000)]),
    "integers 1..12": np.arange(1.0, 13.0),
    "[1, 2]": np.concatenate([[1.0, np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0), 2.0], _RNG.uniform(1.0, 2.0, 10000)]),
}
_ULP = 2.0**-52


def _digamma_reference(x: float) -> tuple[float, float]:
    """(40-digit psi(x) rounded to a float, the error _digamma may make at x > 0: 8 ulp of max(|psi(x)|, 1))."""
    with mpmath.workdps(40):
        psi = mpmath.digamma(x)
        return float(psi), 8.0 * max(abs(float(psi)), 1.0) * _ULP


@pytest.mark.parametrize("xs", _DIGAMMA_SETS.values(), ids=_DIGAMMA_SETS.keys())
def test_digamma_port_matches_scipy_bit_for_bit(xs):
    """scipy's bits where _digamma runs scipy's operations, 40-digit mpmath within _digamma_reference's bound elsewhere.

    Above 10 both run the same asymptotic series; below it _digamma recurs upward instead.
    """
    xs = np.ravel(xs)
    got = np.array([_digamma(x) for x in xs.tolist()])
    shared = xs > 10.0
    differ = xs[shared & (got.view(np.uint64) != scipy_digamma(xs).view(np.uint64))]
    assert differ.size == 0, f"{differ.size} of {xs.size} differ from scipy, the first at x = {differ[0]!r}"
    off = []
    for x, v in zip(xs[~shared].tolist(), got[~shared].tolist()):
        want, bound = _digamma_reference(x)
        if not abs(v - want) <= bound:
            off.append(x)
    assert not off, f"{len(off)} of {xs.size} are off mpmath, the first at x = {off[0]!r}"


def _below(bath, last):
    """The argument of tail_sums' second digamma: a - last where it reflects (m past last), else last + 1 - a."""
    a = bath.pole_ratio
    return a - last if round(a) > last else last + 1.0 - a


def _pair_constants(bath, last):
    """What tail_sums subtracts from (S0, S1) where it reflects, in its float operations, else (0, 0)."""
    d = bath.dirichlet()
    if not d.m > last:
        return 0.0, 0.0
    return d.pole_rest / bath.gamma + d.m_rest / d.nu_m - d.pair_amp / bath.gamma / d.nu_m, d.pole_rest + d.m_rest


def _scipy_tail_sums(bath, m):
    """(S0, S1) of DirichletTable.tail_sums, written with scipy's digamma."""
    eta, gamma, beta, a = bath.eta, bath.gamma, bath.beta, bath.pole_ratio
    above, below = scipy_digamma(m + 1 + a), scipy_digamma(_below(bath, m))
    s1 = (eta * gamma * beta / math.pi**2) * (above - below) / (2.0 * a)
    s0 = (eta * gamma * beta**2 / (2.0 * math.pi**3)) / a**2 * (scipy_digamma(m + 1.0) - 0.5 * (below + above))
    c0, c1 = _pair_constants(bath, m)
    return float(s0) - c0, float(s1) - c1


def _tail_sums_error_bound(bath, m):
    """Absolute errors of (S0, S1) propagated from _digamma_reference's bound at each digamma they take.

    Each float operation on the digamma values adds an ulp of what it
    rounds.  S0 is a second difference that cancels, so its bound is
    absolute: the digamma errors and roundings do not shrink with S0.
    Where tail_sums reflects, the pair's constants add 8 ulp of their
    moduli, and pole_rest the error of a - m rounded, at most eta pi ulp(a).
    """
    eta, gamma, beta, a = bath.eta, bath.gamma, bath.beta, bath.pole_ratio
    n = m + 1.0
    psi, err = zip(*(_digamma_reference(x) for x in (n, _below(bath, m), n + a)))
    psi = [abs(v) for v in psi]
    s0_amp = (eta * gamma * beta**2 / (2.0 * math.pi**3)) / a**2
    s1_amp = eta * gamma * beta / math.pi**2 / (2.0 * a)
    s0 = s0_amp * (err[0] + 0.5 * (err[1] + err[2]) + 4.0 * _ULP * (psi[0] + psi[1] + psi[2]))
    s1 = s1_amp * (err[1] + err[2] + 4.0 * _ULP * (psi[1] + psi[2]))
    d = bath.dirichlet()
    if d.m > m:
        rest = eta * math.pi * math.ulp(a)
        s0 += 8.0 * _ULP * (abs(d.pole_rest / gamma) + abs(d.m_rest / d.nu_m) + d.pair_amp / gamma / d.nu_m)
        s0 += rest / gamma
        s1 += 8.0 * _ULP * (abs(d.pole_rest) + abs(d.m_rest)) + rest
    return s0, s1


@pytest.mark.parametrize(
    "bath, in_path, m",
    [
        (BathParams(1.0, 0.5, 1.0), lambda x: x > 10.0, 0),
        # a = 267 > _LIVE_STOP + 1: the pair's m is past the live terms, and the reflection gives the argument a - 226
        (BathParams(1.0, 1.8, 933.0), lambda x: x > 10.0, 267),
        # a = 227.5, so 227 - a = -0.5: the reflection gives a - 226 = 1.5, below 10
        (BathParams(1.0, 1.0, 2.0 * math.pi * 227.5), lambda x: x == 1.5, 228),
        (BathParams(1.0, 1.0, 4.0 * math.pi), lambda x: x > 10.0, 2),
    ],
    ids=["warm", "cold a > 227", "reflected a = 227.5", "resonant"],
)
def test_tail_sums_match_scipy_digamma_bit_for_bit(bath, in_path, m):
    """(S0, S1) past the live terms against 40-digit mpmath on the same float inputs, and scipy's bits where every
    digamma runs scipy's operations.

    Where m = 0, neither sum is a digamma difference (DirichletTable.tail_sums): each is within 4 ulp of the oracle
    instead.
    """
    last = _LIVE_STOP
    assert in_path(_below(bath, last))
    assert bath.dirichlet().m == m
    got = bath.dirichlet().tail_sums()
    assert [type(v) for v in got] == [float, float]
    want = tail_sums(bath.eta, bath.gamma, bath.beta, bath.pole_ratio, last)
    bound = _tail_sums_error_bound(bath, last)
    assert all(abs(g - w) <= b for g, w, b in zip(got, want, bound)), (got, want, bound)
    if all(x > 10.0 for x in (last + 1.0, _below(bath, last), last + 1.0 + bath.pole_ratio)):
        scipy_sums = _scipy_tail_sums(bath, last)
        assert (got[1] == scipy_sums[1] and got[0] == scipy_sums[0]) or not m
    if not m:
        assert all(abs(g - w) <= 4.0 * _ULP * abs(w) for g, w in zip(got, want)), (got, want)


# The m = 0 sums of tail_sums against the oracle's exact sums at a = 1e-3 and 1e-5: S1 was a first difference of
# digammas, 2.8e-11 off at a = 1e-3 and up to 8.3e-9 off at a = 1e-5, before it took its own series in 1 / n^2.
# Measured since: S1 within 2.5e-16 relative (1.1 ulp), S0 unchanged; pinned at 4 ulp, as S0 is above
@pytest.mark.parametrize("a", [1e-3, 1e-5])
def test_unpaired_s1_is_its_series_in_inverse_squares(a):
    bath = BathParams(1.0, 2.0 * math.pi * a, 1.0)
    table = bath.dirichlet()
    assert table.m == 0
    got = table.tail_sums()[1]
    want = tail_sums(bath.eta, bath.gamma, bath.beta, bath.pole_ratio, _LIVE_STOP)[1]
    assert abs(got - want) <= 4.0 * _ULP * abs(want), (got, want)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    eta=st.floats(0.1, 10.0),
    gamma=st.floats(0.2, 2.0),
    beta=st.one_of(st.floats(0.1, 30.0), st.floats(900.0, 1000.0)),
)
@example(eta=1.3, gamma=1.8, beta=933.0)
@example(eta=1.0, gamma=1.0, beta=4.0 * math.pi)  # the pole on nu_2
@example(eta=1.3, gamma=1.0, beta=2.0 * math.pi)  # the pole on nu_1
@example(eta=1.0, gamma=1.0, beta=2.0 * math.pi * 227.5)  # the pole past the live terms: S1 reflects
def test_dirichlet_rate_is_the_sum_of_its_coefficients(eta, gamma, beta):
    """C = B_gamma + sum_{n<=226} B_n + S1 to roundoff: S1's digamma bound, 8 ulp of sum |terms|, the pole's argument.

    The B_n are the live terms' and S1 the tail_sums past them.  With m >= 1 the pole and the m-th term are the pair:
    B_gamma + B_m = pole_rest + m_rest, and B_m leaves the live terms and S1.  pole_rest takes a - m rounded, which
    moves it by at most eta pi ulp(a).  With m = 0, B_gamma is eta cot of beta gamma / 2 rounded, which moves it by eta
    (1 + cot^2) ulp(beta gamma / 2).
    """
    bath = BathParams(eta, gamma, beta)
    d = bath.dirichlet()
    terms = [d.pole_rest, d.m_rest] if d.m else [d.pole_b]
    b = d.live_terms[2]
    terms += [*b.tolist(), d.tail_sums()[1]]
    if 1 <= d.m <= _LIVE_STOP:
        assert b[d.m - 1] == 0.0
    bound = _tail_sums_error_bound(bath, _LIVE_STOP)[1] + 8.0 * _ULP * math.fsum(map(abs, terms + [d.rate]))
    if d.m:
        bound += eta * math.pi * math.ulp(bath.pole_ratio)
    else:
        bound += eta * (1.0 + d.cot**2) * math.ulp(0.5 * beta * gamma)
    assert abs(math.fsum(terms) - d.rate) <= bound
    assert d.rate == 2.0 * eta / (beta * gamma)


@pytest.mark.parametrize(
    "bath",
    [BATH, BathParams(1.0, 1.0, 4.0 * math.pi, 300), BathParams(1.3, 1.8, 933.0, 25)],
    ids=["warm", "resonant, K = 300", "beta 933"],
)
def test_every_coefficient_reads_the_one_row_of_d_n(bath):
    # L's weights n / d_n, the live B_n = s1 / d_n and c_n = B_n / nu_n and the K terms' are formed from the one row
    # d_n = (n - a)(n + a), d_m = inf for the pair's term; and a one-shot L builds no coefficient and no sum past them
    ev = BrownianCorrelation(bath)
    for x in (0.05, 0.2, 3.0):
        assert math.isfinite(ev(x * bath.beta / (2.0 * math.pi)).real)
    table = ev.table
    assert not {"live_terms", "g1", "g0"} & vars(table).keys()
    n, d = table.live
    a, m = bath.pole_ratio, table.m
    want = (n - a) * (n + a)
    if 1 <= m <= _LIVE_STOP:
        want[m - 1] = math.inf
    assert n.tolist() == list(range(1, _LIVE_STOP + 1)) and d.tobytes() == want.tobytes()
    assert ev._weights[0] is n and ev._weights[1].tobytes() == (n / d).tobytes()
    s1 = table.amplitudes[1]
    neg_nu, c, b = table.live_terms
    assert b.tobytes() == (s1 / d).tobytes() and c.tobytes() == (b / -neg_nu).tobytes()
    k = min(bath.matsubara_terms, _LIVE_STOP)
    nu_k, c_k, b_k = table.explicit
    assert c_k[:k].tobytes() == c[:k].tobytes() and b_k[:k].tobytes() == b[:k].tobytes()
    if 1 <= m <= _LIVE_STOP:
        assert ev._weights[1][m - 1] == b[m - 1] == c[m - 1] == 0.0


@pytest.mark.parametrize("bath", [BATH, BathParams(1.0, 1.0, 4.0 * math.pi)], ids=["warm", "resonant"])
def test_correlation_reads_its_amplitudes_from_the_table(bath):
    # L's pole term is eta gamma (cot - i) e^{-gamma t} with eta gamma = amp / 4; with m >= 1 its pair is the table's
    ev = BrownianCorrelation(bath)
    d = ev.table
    names = ("amp", "cot", "pole_b", "m", "nu_m", "pair_amp", "pole_rest", "m_rest")
    assert np.array_equal([getattr(BrownianMatsubara(bath)._table, n) for n in names], [getattr(d, n) for n in names], True)
    assert (d.amp, d.m, d.pair_amp) == (4.0 * bath.eta * bath.gamma, round(bath.pole_ratio), 2.0 * bath.eta / bath.beta)
    t = 0.7
    got = ev(t)
    assert got.imag == -0.25 * d.amp * math.exp(-bath.gamma * t)
    pieces = _correlation_pieces(ev, t)
    assert abs(got.real - math.fsum(pieces)) <= 4.0 * _ULP * math.fsum(map(abs, pieces))
    # moving an amplitude of the table moves L
    # pole_rest is 0 at exact resonance (a = m): it moves L at every other detuning
    assert (d.pole_rest == 0.0) == (d.m == bath.pole_ratio)
    for name in ("amp", "pair_amp", "nu_m", "m_rest") if d.m else ("cot", "amp"):
        saved = getattr(d, name)
        setattr(d, name, saved * (1.0 + 1e-6))
        assert ev(t) != got, name
        setattr(d, name, saved)
    assert ev(t) == got


# BrownianCorrelation's two branches are pinned on the default bath, crosscheck's coldest route bath,
# a cold param_sweep pool bath, beta 1e3 and LOW_T_PROBE's beta 2e5, and three near-resonant baths.
_CUT_BATHS = {
    "default": BATH,
    "beta 104.7": BathParams(1.049504713002099, 1.3000536414833517, 104.74638659365587),
    "beta 939.8": BathParams(7.69, 1.86, 939.84),
    "beta 1e3": BathParams(1.0, 0.5, 1e3),
    "beta 2e5": BathParams(1.0, 0.5, 2e5),
    "gamma 1 + 1e-5, beta 4 pi": BathParams(1.0, 1.0 + 1e-5, 4.0 * math.pi),
    "gamma 1 + 1e-9, beta 4 pi": BathParams(1.0, 1.0 + 1e-9, 4.0 * math.pi),  # 1e-9 from nu_2
    "a = 37 (1 + 1e-5), beta 232": BathParams(1.0, 2.0 * math.pi * 37.0 / 232.0 * (1.0 + 1e-5), 232.0),
}


def _cut_times(bath):
    """40 times from 1e-7 to past 60 / gamma and to x = 2 pi t / beta = 2, so that both branches run on every bath."""
    return np.geomspace(1e-7, max(60.0 / bath.gamma, bath.beta / math.pi), 40).tolist()


def _small_x_pieces(ev, x):
    """Every float that BrownianCorrelation sums into S(x) below x = _DIRECT_X: the terms of its points, each end
    term, each term of the polynomial at u = 0 and E1(top x)."""
    sums = _SmallXSums(ev.table.a, ev.table.m)
    sums.correlation(x)  # builds L's weights and ends
    u, (w, ends, zero_end), top = sums._nodes, sums._correlation, sums._top
    pieces = (w * np.exp(-u * x)).tolist()
    for v, b0, b1, b in ends:
        pieces.append(math.exp(-v * x) * (b0 - x * b1 + x * x * sum(bi * x**i for i, bi in enumerate(b))))
    pieces += [d * x ** (2 * p) for p, d in enumerate(zero_end)]
    return pieces + [math.exp(-top * x) * _e1_scaled(top * x)]


def _direct_terms(ev, x):
    """The terms w_n e^{-n x} of S(x), n <= ceil(_EXP_DEAD / x), with the pair's m-th left out."""
    a, m = ev.bath.pole_ratio, ev.table.m
    n = np.arange(1.0, math.ceil(_EXP_DEAD / x) + 1.0)
    with np.errstate(divide="ignore"):  # n = a = m exactly
        w = np.where(n == m, 0.0, n / ((n - a) * (n + a)))
    return w * np.exp(-n * x)


def _correlation_pieces(ev, t):
    """Every float that BrownianCorrelation sums into Re L(t), with all 226 live terms from x = _DIRECT_X."""
    p, d = ev.bath, ev.table
    x = 2.0 * math.pi * t / p.beta
    if x >= _DIRECT_X:
        n, w = ev._weights
        pieces = (ev.c_log * w * np.exp(-n * x)).tolist()
    else:
        pieces = [ev.c_log * v for v in _small_x_pieces(ev, x)]
    if d.m:
        decay, decay_m = math.exp(-p.gamma * t), math.exp(-d.nu_m * t)
        rates = min(p.gamma, d.nu_m), max(p.gamma, d.nu_m)
        pair = [d.pole_rest * decay, -d.m_rest * decay_m, d.pair_amp * _exp_divided_difference(*rates, t)]
        pieces += [p.gamma * v for v in pair]
    else:
        pieces.append(0.25 * d.amp * d.cot * math.exp(-p.gamma * t))
    return pieces


@pytest.mark.parametrize("bath", _CUT_BATHS.values(), ids=_CUT_BATHS.keys())
def test_correlation_series_stops_at_its_live_terms(bath):
    """Re L within 4 ulp of sum |pieces| of its small-x sum, or of all 226 live terms, reading no dead one.

    From x = _DIRECT_X the terms past n = ceil(_EXP_DEAD / x) are set to nan, so a sum that reads them returns nan.
    """
    ev = BrownianCorrelation(bath)
    n, w = ev._weights
    cut = window = 0
    for t in _cut_times(bath):
        pieces = _correlation_pieces(ev, t)
        x = 2.0 * math.pi * t / bath.beta
        live = math.ceil(_EXP_DEAD / x)
        cut += x >= _DIRECT_X and live < n.size
        window += x < _DIRECT_X
        ev._weights = n, np.where(n <= live, w, math.nan)
        got = ev(t).real
        ev._weights = n, w
        assert abs(got - math.fsum(pieces)) <= 4.0 * _ULP * math.fsum(map(abs, pieces)), t
    assert cut >= 3 and window >= 3  # times where the cut drops terms, and times of the small-x sum


@pytest.mark.parametrize("name", ["beta 104.7", "beta 939.8", "gamma 1 + 1e-5, beta 4 pi"])
def test_correlation_branches_agree_at_the_switch(name):
    # the small-x sum, which serves x < _DIRECT_X, against all live terms at x = 0.2 and the float below it, where its
    # Euler-Maclaurin tails start nearest their dead terms; and both branches against the oracle either side of 0.2
    bath = _CUT_BATHS[name]
    ev = BrownianCorrelation(bath)
    sums = _SmallXSums(ev.table.a, ev.table.m)
    for x in (_DIRECT_X, np.nextafter(_DIRECT_X, 0.0)):
        direct = _direct_terms(ev, x)
        assert abs(sums.correlation(x) - math.fsum(direct)) <= 8.0 * _ULP * math.fsum(np.abs(direct)), x
    sides = set()
    for x in (0.19, 0.2 * (1.0 - 1e-15), 0.2 * (1.0 + 1e-15), 0.21):
        t = x * bath.beta / (2.0 * math.pi)
        sides.add(2.0 * math.pi * t / bath.beta >= _DIRECT_X)
        _assert_matches_the_oracle(bath.eta, bath.gamma, bath.beta, t)
    assert sides == {False, True}


def _assert_matches_the_oracle(eta, gamma, beta, t):
    """Re L within 1e-13 of the oracle, or, where it is tiny against its terms, within 8 ulp of the sum of their |.|."""
    got = BrownianCorrelation(BathParams(eta, gamma, beta))(t).real
    want, scale = correlation(eta, gamma, beta, t)
    assert abs(got - want) <= max(1e-13 * abs(want), 8.0 * _ULP * scale), (eta, gamma, beta, t, got, want)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    log_eta=st.floats(-1.0, 1.0),
    gamma=st.floats(0.1, 3.0),
    log_beta=st.floats(-1.0, 4.0),
    log_t=st.floats(-9.0, math.log10(20.0)),
)
# hot baths below the drawn domain (a from 1.6e-3 up): a = 1e-3 and 1e-5 on beta 1, at t = 1e-9 and at x = 0.19
@example(log_eta=0.0, gamma=2.0 * math.pi * 1e-3, log_beta=0.0, log_t=-9.0)
@example(log_eta=0.0, gamma=2.0 * math.pi * 1e-3, log_beta=0.0, log_t=math.log10(0.19 / (2.0 * math.pi)))
@example(log_eta=0.0, gamma=2.0 * math.pi * 1e-5, log_beta=0.0, log_t=-9.0)
@example(log_eta=0.0, gamma=2.0 * math.pi * 1e-5, log_beta=0.0, log_t=math.log10(0.19 / (2.0 * math.pi)))
def test_correlation_matches_the_oracle(log_eta, gamma, log_beta, log_t):
    # up to gamma t = 60: from there the rounding of x = 2 pi t / beta and of gamma t, which moves e^-x and
    # e^{-gamma t} by x ulp and gamma t ulp, comes near 1e-13
    _assert_matches_the_oracle(10.0**log_eta, gamma, 10.0**log_beta, 10.0**log_t)


# the cold baths where the old n^-5 series was off (beta 933 by up to 9e-10, 2e5 by 1.3e-3 and 1e6 by 8.8 relative),
# the pole on nu_1 and 1e-3 from it, t = 26 on (0.5, 1.2, 5), where the quadrature route of L is 1.4e-3 off, and two
# points whose tail ends once took e^z E1(z) or e^-z Ei(z) at z in [1, 2] (a = 31.8 and 267; the first takes E1(top x)
# at top x = 1.02)
_ORACLE_POINTS = {
    "beta 933, t 1e-3": (1.3, 1.8, 933.0, 1e-3),
    "beta 933, t 1": (1.3, 1.8, 933.0, 1.0),
    "beta 933, t 3.5": (1.3, 1.8, 933.0, 3.5),
    "beta 200, t 0.5": (2.0, 1.0, 200.0, 0.5),
    "beta 2e5": (1.0, 0.5, 2e5, 2.0),
    "beta 1e6": (1.0, 0.5, 1e6, 2.0),
    "a = 1": (1.0, 1.0, 2.0 * math.pi, 0.5),
    "a = 1.001": (1.0, 1.001, 2.0 * math.pi, 0.5),
    "t = 26": (0.5, 1.2, 5.0, 26.0),
}


@pytest.mark.parametrize("point", _ORACLE_POINTS.values(), ids=_ORACLE_POINTS.keys())
def test_correlation_matches_the_oracle_at_pinned_points(point):
    _assert_matches_the_oracle(*point)


def test_correlation_is_its_lower_tail_to_8_ulp_where_the_window_is_dead():
    # at gamma t = 500 the window and the tails' ends are dead, so Re L is the lower tail's Gauss-Legendre sum and its
    # corrections at u = 0: with panels of 3 it was 1619 and 136 ulp off here, and 6.8 ulp at the second point without
    # the fifth correction
    for eta, gamma, beta, t in ((1.0, 0.5, 2e5, 1000.0), (1.0, 2.0, 1e4, 250.0)):
        got = BrownianCorrelation(BathParams(eta, gamma, beta))(t).real
        want = correlation(eta, gamma, beta, t)[0]
        assert abs(got - want) <= 8.0 * _ULP * abs(want), (beta, t, got, want)


def _vdot_taylor(sums, x: float) -> tuple:
    """(k, S's Taylor part at x) in the form before one Horner polynomial per group count: the k groups' powers (top
    x)^i, i = 2, ..., 15, as a table reduced against their moments."""
    k = bisect_left(sums._top_list, _H_SERIES_TOP / x)
    z = sums._tops[:k] * x
    powers = np.empty((len(_H_TAYLOR), k))
    powers[:] = z
    powers[0] *= z
    np.multiply.accumulate(powers, axis=0, out=powers)
    return k, float(np.vdot(powers, sums._moments[:, :k]))


@pytest.mark.parametrize("a", [1e-3, 0.0796, 1.001, 267.3, 3183.0, 1.6e6, 1.6e11, 4e15, 0.99 * _A_MAX])
def test_taylor_rows_are_finite_and_keep_the_sum(a):
    # each group count's coefficients scale the groups by the largest one's top, so none overflows up to _A_MAX, and S
    # with its one Horner polynomial stays within a few ulp of S with the table form in its place
    sums = _SmallXSums(a, round(a))
    sums(0.1, True, False)
    for k in range(1, len(sums._top_list) + 1):
        assert all(math.isfinite(c) for c in sums._taylor(k))
    compared = 0
    for x in np.geomspace(1e-12, _DIRECT_X, 100, endpoint=False).tolist():
        k, want = _vdot_taylor(sums, x)
        if not k:
            continue
        # the call's Horner's rule on its coefficients of the k groups
        z = sums._top_list[k - 1] * x
        taylor = 0.0
        for c in sums._taylor(k):
            taylor = taylor * z + c
        taylor *= z * z
        s = sums(x, True, False)[0]
        assert abs(taylor - want) <= 4 * _ULP * abs(s), (x, taylor, want, s)
        compared += 1
    assert compared >= 50


def test_correlation_builds_its_small_x_tables_once(monkeypatch):
    # the points and weights of the sum below x = 0.2 are built at the first call there and kept: not by the
    # constructor, not at x >= 0.2, and once for any number of calls below it
    calls = []
    build = spectral._matsubara_nodes

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(spectral, "_matsubara_nodes", counted)
    for bath in (BATH, BathParams(1.3, 1.8, 933.0), BathParams(1.0, 0.5, 2e5)):
        ev = BrownianCorrelation(bath)
        for x in (0.21, 1.0, 30.0):
            ev(x * bath.beta / (2.0 * math.pi))
        assert calls == []
        for x in np.geomspace(1e-9, 0.19, 25).tolist():
            ev(x * bath.beta / (2.0 * math.pi))
        assert len(calls) == 1
        calls.clear()


def test_correlation_reads_the_node_set_of_g_and_gdot(monkeypatch):
    # one node set per bath: L's small-x weights are u^2 w of the points and weights that Re g and Re gdot read, bit for
    # bit, and its ends of power 2 come from the same lists of q's derivatives, formed at L's first call there; an
    # engine that evaluates only g and gdot forms no end of power 2, and one that evaluates only L none of power 0
    powers = []
    end_coefficients = spectral._end_coefficients
    monkeypatch.setattr(spectral, "_end_coefficients", lambda *args: powers.append(args[-1]) or end_coefficients(*args))
    bath = BathParams(1.3, 1.8, 933.0)
    ev = BrownianMatsubara(bath)
    for t in (1e-9, 1e-5, 1e-3, 0.5):
        ev.g(t)
        ev.gdot(2.0 * t)
    sums = ev._table.small_x
    assert powers == [0, 0] and sums._correlation is None
    corr = BrownianCorrelation(bath)
    x = 2.0 * math.pi * 1e-3 / bath.beta
    corr(1e-3)
    assert powers == [0, 0, 2, 2]
    own = corr.table.small_x
    for got, want in ((own._nodes, sums._nodes), (own._weights, sums._weights)):
        assert got.tobytes() == want.tobytes()
    assert own._correlation[0].tobytes() == (sums._nodes**2 * sums._weights).tobytes()
    assert sums.correlation(x) == own.correlation(x)
    assert [end[2] for end in own._q_ends] == [end[2] for end in sums._q_ends]


def test_correlation_raises_past_its_domain():
    # past _A_MAX the window's n - a are no longer exact; 2 eta gamma / pi and Re L raise where they overflow
    below = BrownianCorrelation(BathParams(1.0, 1.0, 2.0 * math.pi * (_A_MAX - 64.0)))
    assert below.table.m == _A_MAX - 64.0 and math.isfinite(below(1e-9).real)
    with pytest.raises(DephaserError, match=r"beta gamma / 2 pi = 4503599627370496\.0 is past 2\^52"):
        BrownianCorrelation(BathParams(1.0, 1.0, 2.0 * math.pi * _A_MAX))
    with pytest.raises(DephaserError, match=re.escape("2 eta gamma / pi = inf overflows")):
        BrownianCorrelation(BathParams(1e308, 10.0, 1.0))
    with pytest.raises(DephaserError, match=re.escape("Re L(t) = inf overflows")):
        BrownianCorrelation(BathParams(2e307, 1.0, 1.0))(1e-10)


# SHA-256 of the raw bytes of L on every _CUT_BATHS bath at its _cut_times, recorded with numpy 2.4.6 on x86-64 when
# the Matsubara sum became the window and Euler-Maclaurin tails, and again when the tails' exponential integrals became
# fixed-degree fits (24 of 320 values moved, Re L by at most 9.3e-15 relative), and when the sum below x = 0.2 moved
# onto Re g's points and weights (Re L of 175 of 320 values moved, by at most 7.2e-15 relative); a change that moves
# a bit of L on purpose records it again and says so
_L_PINNED_DIGEST = "430b73ab7fc4ba6b9ae81014778fa53035dd0a592df7382a1673763438e98661"


def test_correlation_bits_match_the_pinned_digest():
    _skip_off_the_pinned_kernel()
    digest = hashlib.sha256()
    for bath in _CUT_BATHS.values():
        ev = BrownianCorrelation(bath)
        for t in _cut_times(bath):
            digest.update(np.complex128(ev(t)).tobytes())
    assert digest.hexdigest() == _L_PINNED_DIGEST


def test_correlation_analytic_matches_quadrature():
    sd = OverdampedBrownian(BATH)
    for t in (0.1, 1.0, 5.0):
        a = correlation_function(sd, BATH.beta, t, route="analytic")
        q = correlation_function(sd, BATH.beta, t, route="quadrature")
        assert abs(a - q) / abs(q) < 1e-9


# (gamma, beta, t) of the quadrature route of L at eta = 1 and other couplings: warm, cold and near the large-t miss;
# on the hot bath at t = 1 the integral fails to converge at eta = 1
_L_COUPLING_POINTS = [(0.5, 1.0, 1.0), (0.5, 1.0, 0.01), (1.2, 5.0, 26.0), (1.8, 933.0, 0.5), (0.5, 1e-3, 1.0)]


def test_quadrature_l_is_eta_times_its_unit_coupling_value():
    # L is linear in eta, and the route integrates at eta = 1 and scales last: a small eta cannot pass the integrator's
    # absolute test on an integral that fails at eta = 1 (at eta 1e-100 on the hot bath it returned -3.05e-99)
    raised = 0
    for gamma, beta, t in _L_COUPLING_POINTS:
        try:
            unit = correlation_function(OverdampedBrownian(BathParams(1.0, gamma, beta)), beta, t, route="quadrature")
        except IntegrationError:
            unit = None
        for eta in (1e-100, 1e-3, 7.5, 1e100):
            sd = OverdampedBrownian(BathParams(eta, gamma, beta))
            if unit is None:
                with pytest.raises(IntegrationError):
                    correlation_function(sd, beta, t, route="quadrature")
            else:
                assert correlation_function(sd, beta, t, route="quadrature") == complex(eta * unit.real, eta * unit.imag)
        raised += unit is None
    assert raised == 1


# in a child process, so that a crash of the Fourier-tail integrator is an exit code
_QUADRATURE_L_DOMAIN = """
import json, math
from dephaser import BathParams, DephaserError, OverdampedBrownian, correlation_function
from dephaser.spectral import _FOURIER_MIN_TW, _split_frequency
rows = []
for eta, gamma, beta in [(1.0, 0.5, 1.0), (0.5, 1.2, 5.0), (1.3, 1.8, 933.0)]:
    bath = BathParams(eta, gamma, beta)
    sd = OverdampedBrownian(bath)
    t_min = _FOURIER_MIN_TW / _split_frequency(bath)
    below = (5e-324, 1e-307, 1e-250, 1e-100, 1e-5 * t_min, math.nextafter(t_min, 0.0))
    for t in below + (t_min, 3.0 * t_min, 10.0 * t_min):
        try:
            q = correlation_function(sd, beta, t, route="quadrature")
        except DephaserError as exc:
            rows.append([t, t_min, str(exc)])
        else:
            a = correlation_function(sd, beta, t)
            rows.append([t, t_min, abs(q - a) / abs(a)])
print(json.dumps(rows))
"""


def test_quadrature_l_raises_below_its_domain():
    # below t w_split = 3e-4 the route fails to converge, returns Re L 90 % off (1e-152 .. 1e-305) or segfaults
    src = os.path.dirname(os.path.dirname(os.path.abspath(dephaser.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _QUADRATURE_L_DOMAIN], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    rows = json.loads(proc.stdout)
    assert len(rows) == 27
    for t, t_min, got in rows:
        if t < t_min:
            assert got.startswith(f"time {t!r} is below the validated domain of the quadrature route of L")
        else:
            assert got <= 1e-9, (t, t_min, got)


# beta = 4 pi puts nu_2 at gamma = 1: exactly, 1e-9 and 1e-5 from it, one bound on the analytic-quadrature gap
_RESONANT_GAMMAS = {"resonant": 1.0, "inside-window": 1.0 + 1e-9, "outside-window": 1.0 + 1e-5}


@pytest.mark.parametrize("gamma", _RESONANT_GAMMAS.values(), ids=_RESONANT_GAMMAS.keys())
def test_resonant_correlation_matches_quadrature(gamma):
    # the pair holds the pole and nu_2 at every detuning; the gap is at most 6e-15 on these
    beta = 4.0 * math.pi
    p = BathParams(eta=1.0, gamma=gamma, beta=beta)
    assert BrownianCorrelation(p).table.m == BrownianMatsubara(p)._table.m == 2
    sd = OverdampedBrownian(p)
    for t in (0.05, 0.3, 1.0, 3.0):
        a = correlation_function(sd, beta, t, route="analytic")
        q = correlation_function(sd, beta, t, route="quadrature")
        assert abs(a - q) / abs(q) < 1e-12


@pytest.mark.parametrize("route", ["analytic", "quadrature"])
@pytest.mark.parametrize("gamma", [0.5, 1.0], ids=["warm", "resonant"])
def test_brownian_correlation_at_zero_raises(route, gamma):
    # Re L diverges logarithmically at t = 0; no truncated sum stands in for it
    beta = 4.0 * math.pi if gamma == 1.0 else BATH.beta
    sd = OverdampedBrownian(BathParams(eta=1.0, gamma=gamma, beta=beta))
    with pytest.raises(DephaserError, match="diverges"):
        correlation_function(sd, beta, 0.0, route=route)
    with pytest.raises(DephaserError, match="diverges"):
        BrownianCorrelation(BathParams(1.0, gamma, beta))(0.0)


@pytest.mark.parametrize("gamma", [0.5, 2.0 * math.pi * 3 / 1e5], ids=["warm", "resonant"])
def test_brownian_correlation_raises_where_its_argument_underflows(gamma):
    # x = 2 pi t / beta is 0 at t = 1e-320, beta = 1e5: a DephaserError naming t and beta, not math.log's ValueError
    bath = BathParams(1.0, gamma, 1e5)
    with pytest.raises(DephaserError, match=r"time 1e-320 .* beta = 100000\.0"):
        BrownianCorrelation(bath)(1e-320)
    with pytest.raises(DephaserError, match="underflows"):
        correlation_function(OverdampedBrownian(bath), bath.beta, 1e-320)


def test_correlation_imag_jump_at_origin():
    # Im L(0) = 0 by oddness, but Im L(0+) = -eta gamma
    sd = OverdampedBrownian(BATH)
    v = correlation_function(sd, BATH.beta, 1e-9)
    assert v.imag == pytest.approx(-BATH.eta * BATH.gamma, rel=1e-8)


def test_detailed_balance_ordering_near_origin():
    sd = OverdampedBrownian(BATH)
    hot = correlation_function(sd, 0.5, 1e-9).real
    cold = correlation_function(sd, 1.0, 1e-9).real
    assert hot == pytest.approx(9.7705, abs=1e-4)
    assert cold == pytest.approx(7.9720, abs=1e-4)
    assert hot > cold


def test_correlation_high_temperature_amplitude():
    # beta gamma = 0.01: Re L -> (2 eta / beta) e^{-gamma t} within 1 percent
    beta = 0.02
    sd = OverdampedBrownian(BathParams(eta=1.0, gamma=0.5, beta=beta))
    for t in (0.5, 2.0, 5.0):
        classical = 2.0 / beta * math.exp(-0.5 * t)
        assert correlation_function(sd, beta, t).real == pytest.approx(classical, rel=0.01)


def test_correlation_imag_temperature_independent():
    sd = OverdampedBrownian(BATH)
    v1 = correlation_function(sd, 1.0, 1.3)
    v2 = correlation_function(sd, 2.0, 1.3)
    assert v1.imag == v2.imag
    assert v1.imag == pytest.approx(-BATH.eta * BATH.gamma * math.exp(-BATH.gamma * 1.3), rel=1e-12)


def test_correlation_negative_time_rejected():
    sd = OverdampedBrownian(BATH)
    with pytest.raises(ValueError):
        correlation_function(sd, BATH.beta, -0.1)
    with pytest.raises(ValueError):
        BrownianCorrelation(BathParams(1.0, 0.5, 1.0))(-1.0)


@pytest.mark.parametrize(
    "bath", [BATH, BathParams(1.3, 1.8, 933.0), BathParams(1.3, 1.0, 2.0 * math.pi)], ids=["default", "beta 933", "a = 1"]
)
def test_brownian_correlation_rejects_non_finite_times(bath):
    # unchecked, nan gives nan + nan j, and inf gives nan - 0j on the beta 933 bath (inf * 0 in its divided difference)
    ev = BrownianCorrelation(bath)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite t >= 0"):
            ev(t)


@pytest.mark.parametrize("route", ["analytic", "quadrature", "tabulated"])
@pytest.mark.parametrize(
    "beta, t",
    [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0)],
)
def test_correlation_rejects_non_finite_time_and_beta(route, beta, t):
    # ValueError, not NaN, an accidental integer conversion or OverflowError
    if route == "tabulated":
        w = np.geomspace(1e-3, 100.0, 50)
        sd, route = TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w)), None
    else:
        sd = OverdampedBrownian(BATH)
    with pytest.raises(ValueError):
        correlation_function(sd, beta, t, route=route)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["eta", "gamma", "beta"])
def test_brownian_correlation_rejects_bad_parameters(which, bad):
    # ValueError naming the parameter, not "cannot convert float NaN to integer" or OverflowError
    args = [1.0, 0.5, 1.0]
    args[which] = bad
    with pytest.raises(ValueError, match=("eta", "gamma", "beta")[which]):
        BrownianCorrelation(BathParams(*args))


def test_correlation_unknown_route_rejected():
    sd = OverdampedBrownian(BATH)
    with pytest.raises(ValueError):
        correlation_function(sd, BATH.beta, 1.0, route="magic")


def test_tabulated_correlation_near_brownian():
    # dense, wide grid reproduces the closed form to grid accuracy
    w = np.geomspace(1e-4, 400.0, 6000)
    sd_ref = OverdampedBrownian(BATH)
    tab = TabulatedSpectralDensity(w, sd_ref.j(w))
    for t in (0.5, 1.0):
        ref = correlation_function(sd_ref, BATH.beta, t)
        got = correlation_function(tab, BATH.beta, t)
        assert abs(got - ref) / abs(ref) < 5e-3
    # a finite grid has a finite trapezoid sum at t = 0, and Im L(0) = 0 by oddness
    v = correlation_function(tab, BATH.beta, 0.0)
    assert math.isfinite(v.real) and v.real > 0.0
    assert v.imag == 0.0
