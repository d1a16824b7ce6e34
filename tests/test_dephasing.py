"""Lineshape function engines: agreement, limits, truncation, resonance."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from _oracle import reference, reference_with_bounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dephaser
from dephaser import dephasing, spectral
from dephaser.dephasing import (
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    _BLOCK_CAP,
    _MEMO_CALL,
    _MEMO_TIMES,
    _check_times,
    make_evaluator,
)
from dephaser.errors import DephaserError
from dephaser.measures import Prepared, SingleTime, decay_exponent_rate
from dephaser.spectral import (
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    _H_SERIES_TOP,
    _H_TAYLOR,
    _h,
)

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)

# Reference values of g(t) for the bath above, frozen from an independent
# 50-digit evaluation of the thermal series (two other routes agree to 1e-14).
G_REF = {
    0.2: 4.72799661787034e-02 - 9.67483607191915e-03j,
    1.0: 9.08368219513579e-01 - 2.13061319425267e-01j,
    5.0: 1.28005617643908e+01 - 3.16416999724780e+00j,
    20.0: 7.21579755544819e+01 - 1.80000907998595e+01j,
}


def brownian_engines():
    sd = OverdampedBrownian(BATH)
    return (
        BrownianMatsubara(BATH),
        HighTemperatureBrownian(BATH),
        FrequencyQuadrature(sd, BATH.beta),
        TimeDomainQuadrature(sd, BATH.beta),
    )


def test_g_and_gdot_vanish_at_zero():
    for ev in brownian_engines():
        assert ev.g(0.0) == 0j
        assert ev.gdot(0.0) == 0j


def test_frozen_reference_values():
    ev = BrownianMatsubara(BATH)
    for t, ref in G_REF.items():
        assert abs(ev.g(t) - ref) / abs(ref) < 1e-12


def test_engine_agreement_spot_checks():
    ana, _, frq, tdq = brownian_engines()
    for t in (0.05, 0.5, 2.0, 8.0, 20.0):
        ga, gf, gd = ana.g(t), frq.g(t), tdq.g(t)
        scale = abs(ga)
        assert abs(ga - gf) / scale < 1e-6
        assert abs(ga - gd) / scale < 1e-6
        assert abs(gf - gd) / scale < 1e-6


def test_gdot_matches_finite_difference():
    h = 1e-4
    for ev in (BrownianMatsubara(BATH), HighTemperatureBrownian(BATH)):
        for t in (0.5, 2.0):
            fd = (ev.g(t + h) - ev.g(t - h)) / (2.0 * h)
            assert abs(ev.gdot(t) - fd) / abs(fd) < 1e-7
    frq = FrequencyQuadrature(OverdampedBrownian(BATH), BATH.beta)
    fd = (frq.g(1.0 + h) - frq.g(1.0 - h)) / (2.0 * h)
    assert abs(frq.gdot(1.0) - fd) / abs(fd) < 1e-5


def test_high_temperature_limit():
    # beta gamma = 0.01: closed form within 1 percent of the full series
    p = BathParams(eta=1.0, gamma=0.5, beta=0.02, matsubara_terms=100)
    ht = HighTemperatureBrownian(p)
    full = BrownianMatsubara(p)
    for t in (0.5, 2.0, 10.0):
        assert abs(ht.g(t) - full.g(t)) / abs(full.g(t)) < 0.01
    # and the closed form itself, written out independently
    t = 3.0
    h = math.expm1(-p.gamma * t) + p.gamma * t
    ref = complex(2.0 * p.eta / (p.beta * p.gamma**2) * h, -p.eta / p.gamma * h)
    assert ht.g(t) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("bath", [BATH, BathParams(eta=1.742, gamma=0.376, beta=1.735), BathParams(1.0, 1.8, 933.0)])
def test_high_temperature_engine_within_a_few_ulps_of_mpmath(bath):
    # 4 roundings of 2^-53 each on the terms before they cancel: the amplitude, expm1, the sum, the product
    ht = HighTemperatureBrownian(bath)
    ts = np.geomspace(1e-6, 100.0, 400)
    g, gdot = ht.g(ts), ht.gdot(ts)
    eta, gamma, beta = (mpmath.mpf(v) for v in (bath.eta, bath.gamma, bath.beta))
    with mpmath.workdps(40):
        for t, gt, gdt in zip(ts.tolist(), g.tolist(), gdot.tolist()):
            em = mpmath.expm1(-gamma * t)
            for value, amp, exact, size in (
                (gt.real, 2 * eta / (beta * gamma**2), em + gamma * t, -em + gamma * t),
                (gt.imag, -eta / gamma, em + gamma * t, -em + gamma * t),
                (gdt.real, -2 * eta / (beta * gamma), em, -em),
                (gdt.imag, eta, em, -em),
            ):
                assert abs(value - amp * exact) <= 4 * 2.0**-53 * abs(amp) * size, (t, value)


def test_h_is_within_two_ulp_of_mpmath():
    # h(y) = e^-y + y - 1: its Taylor series below 1/2, where expm1(-y) + y cancels to 2 ulp / y, for floats and arrays
    ys = np.geomspace(1e-12, 60.0, 2001)
    with mpmath.workdps(40):
        exact = [float(mpmath.expm1(-mpmath.mpf(y)) + y) for y in ys.tolist()]
    for got in (_h(ys).tolist(), [_h(y) for y in ys.tolist()], _h(ys.reshape(3, -1)).ravel().tolist()):
        assert all(abs(v - want) <= 2.0 * math.ulp(want) for v, want in zip(got, exact))


def test_hight_pointwise_g_has_the_bits_of_a_large_array():
    # up to len(_H_TAYLOR) times h runs on Python floats, past it on the array: a time gets the same bits either way,
    # on either side of _H_SERIES_TOP, and the exponential is numpy's expm1 for both
    ev = HighTemperatureBrownian(BATH)
    top = _H_SERIES_TOP / BATH.gamma
    grid = np.concatenate((np.geomspace(1e-9, 60.0, 997), [0.0, top, np.nextafter(top, 0.0)]))
    whole = ev.g(grid)
    for size in (1, 2, 3, len(_H_TAYLOR)):
        for i in range(0, grid.size - size + 1, size):
            assert _bits(ev.g(grid[i : i + size])).tobytes() == _bits(whole[i : i + size]).tobytes()
    for i in range(0, grid.size, 7):
        assert _bits(np.complex128(ev.g(float(grid[i])))).tobytes() == _bits(whole[i : i + 1]).tobytes()


def test_hight_re_g_keeps_its_digits_at_small_gamma_t():
    # the cli_session bath at t = 0.01, gamma t = 3.1e-3: expm1(-gamma t) + gamma t left Re g 205 ulp off
    eta, gamma, beta, t = 0.635, 0.308, 0.983, 0.01
    with mpmath.workdps(40):
        e, g, b = (mpmath.mpf(v) for v in (eta, gamma, beta))
        exact = float(2 * e / (b * g * g) * (mpmath.expm1(-g * t) + g * t))
    assert abs(HighTemperatureBrownian(BathParams(eta, gamma, beta)).g(t).real - exact) <= 2.0 * math.ulp(exact)


def test_imag_g_is_temperature_independent():
    p2 = BathParams(eta=1.0, gamma=0.5, beta=2.0, matsubara_terms=100)
    a1, a2 = BrownianMatsubara(BATH), BrownianMatsubara(p2)
    assert a1.g(1.7).imag == a2.g(1.7).imag
    frq2 = FrequencyQuadrature(OverdampedBrownian(p2), 2.0)
    assert abs(frq2.g(1.7).imag - a1.g(1.7).imag) < 1e-10


def test_real_part_monotone_nonnegative():
    for ev in (BrownianMatsubara(BATH), HighTemperatureBrownian(BATH)):
        ts = np.linspace(0.0, 20.0, 200)
        re = np.array([ev.g(float(t)).real for t in ts])
        assert np.all(re >= 0.0)
        assert np.all(np.diff(re) > 0.0)
        rates = np.array([ev.gdot(float(t)).real for t in ts])
        assert np.all(rates >= 0.0)


def test_asymptotic_decay_rate():
    # sum rule: Re gdot(inf) = 2 eta / (beta gamma), exact for the resummed series
    ev = BrownianMatsubara(BATH)
    assert ev.gdot(60.0).real == pytest.approx(2.0 * BATH.eta / (BATH.beta * BATH.gamma), rel=1e-12)


def test_strict_truncation_is_cauchy():
    gs = []
    for k in (50, 100, 200):
        p = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=k)
        gs.append(BrownianMatsubara(p, include_tail=False).g(1.0))
    assert abs(gs[2] - gs[1]) < abs(gs[1] - gs[0])


def test_matsubara_remainder_consistency():
    full = BrownianMatsubara(BATH, include_tail=True)
    strict = BrownianMatsubara(BATH, include_tail=False)
    for t in (0.3, 1.0, 5.0):
        rem = strict.matsubara_remainder(t)
        assert rem.imag == 0.0
        assert rem.real > 0.0
        assert full.g(t) - strict.g(t) == pytest.approx(rem, rel=1e-12)
    # remainder shrinks as more terms are kept explicitly
    p400 = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=400)
    assert BrownianMatsubara(p400).matsubara_remainder(1.0).real < strict.matsubara_remainder(1.0).real


def test_matsubara_remainder_on_a_cold_bath():
    # K = 100 < m = 267 at t = 1e-5: the remainder holds the m-th term and every term past K; strict truncation's own
    # sum is the bare pole and the K explicit terms, here in mpmath
    eta, gamma, beta, t = 1.3, 1.8, 933.0, 1e-5
    with mpmath.workdps(40):
        e, g, b, tt = (mpmath.mpf(v) for v in (eta, gamma, beta, t))
        strict = (e / g) * mpmath.cot(b * g / 2) * (mpmath.expm1(-g * tt) + g * tt)
        for n in range(1, 101):
            nu = 2 * mpmath.pi * n / b
            strict += 4 * e * g / (b * nu * (nu**2 - g**2)) * (mpmath.expm1(-nu * tt) + nu * tt)
        want = float(mpmath.mpf(reference(eta, gamma, beta, t)[0]) - strict)
    rem = BrownianMatsubara(BathParams(eta, gamma, beta), include_tail=False).matsubara_remainder(t)
    # measured: 5.9e-14
    assert rem.imag == 0.0 and rem.real == pytest.approx(want, rel=SMALL_T_RTOL)


# Re g of the exact engine below x = 2 pi t / beta = 0.2, where it is _MatsubaraG's window and Euler-Maclaurin tails,
# against the oracle: 6.6e-14 is the largest error on item 3's six baths from t = 1e-9 and on 80 random baths
SMALL_T_RTOL = 1e-12
# item 3's six baths: default, (0.5, 1.2, 5) with a = 0.95, a = 1.001, and three of param_sweep's pool, a = 5.37 at
# K = 25 and the cold beta 933 and 939.84; t = 1e-9 on each
_ITEM_3_BATHS = [
    (1.0, 0.5, 1.0, 100),
    (0.5, 1.2, 5.0, 100),
    (1.0, 6.2894, 1.0, 100),
    (2.8963995638897915, 1.4583538735456871, 23.11696065800115, 25),
    (1.3, 1.8, 933.0, 100),
    (7.691864553127739, 1.859754142020128, 939.8364007894908, 100),
]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    eta=st.floats(-1.0, 1.0).map(lambda v: 10.0**v),
    gamma=st.floats(0.2, 2.0),
    beta=st.floats(-1.0, 3.0).map(lambda v: 10.0**v),
    k=st.sampled_from([0, 25, 100]),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
@example(*_ITEM_3_BATHS[0], 0.0)
@example(*_ITEM_3_BATHS[1], 0.0)
@example(*_ITEM_3_BATHS[2], 0.0)
@example(*_ITEM_3_BATHS[3], 0.0)
@example(*_ITEM_3_BATHS[4], 0.0)
@example(*_ITEM_3_BATHS[5], 0.0)
def test_exact_re_g_below_x_0_2_matches_the_oracle(eta, gamma, beta, k, frac):
    # t log-uniform from 1e-9 up to x = 0.2; the exact sum reads no K there, so every K gives the same bits
    t = 1e-9 * (0.2 * beta / (2.0 * math.pi) / 1e-9) ** frac
    g = BrownianMatsubara(BathParams(eta, gamma, beta, k)).g(t)
    assert 2.0 * math.pi * t / beta < 0.2 and g.real > 0.0
    assert g.real == pytest.approx(reference(eta, gamma, beta, t)[0], rel=SMALL_T_RTOL)
    assert g == BrownianMatsubara(BathParams(eta, gamma, beta, 0 if k else 100)).g(t)


# Baths with no pair (a = beta gamma / 2 pi < 1/2), where S0 of DirichletTable.tail_sums was a digamma difference that
# cancels as a -> 0: Re g was off by 5.7e-13 (default), 1.1e-11, 5.3e-10, 7.9e-9 and 2.0e-10 (hot, a = 5e-4) at x = 0.2
_UNPAIRED_BATHS = {
    "default": (1.0, 0.5, 1.0),
    "a 0.01": (1.0, 2.0 * math.pi * 0.01, 1.0),
    "a 1e-4": (1.0, 2.0 * math.pi * 1e-4, 1.0),
    "a 1e-5": (1.0, 2.0 * math.pi * 1e-5, 1.0),
    "hot": (1.0, 0.01, 0.314),
}


@pytest.mark.parametrize("bath", _UNPAIRED_BATHS.values(), ids=_UNPAIRED_BATHS.keys())
def test_re_g_from_x_0_2_without_a_pair_matches_the_oracle(bath):
    # the digamma rest of g from x = 0.2 on, whose S0 is the tail's sum with no 1 / a^2; measured: 7.1e-15
    eta, gamma, beta = bath
    ev = BrownianMatsubara(BathParams(eta, gamma, beta))
    for x in np.geomspace(0.2, 50.0, 5).tolist():
        t = x * beta / (2.0 * math.pi)
        assert ev.g(t).real == pytest.approx(reference(eta, gamma, beta, t)[0], rel=SMALL_T_RTOL), x


@pytest.mark.parametrize("bath", [BATH, BathParams(1.3, 1.8, 933.0)], ids=["default", "beta-933"])
def test_exact_g_below_x_0_2_reads_no_tail_column(monkeypatch, bath):
    # below x = 0.2 the exact g and gdot read no K term and no live term past K: neither the K-term table nor the live
    # columns, which they read from x = 0.2 on
    def refuse(*args):
        raise AssertionError("read a K term or a tail column")

    monkeypatch.setattr(BrownianMatsubara, "_explicit", refuse)
    monkeypatch.setattr(BrownianMatsubara, "_live", refuse)
    times = (1e-9, 1e-5, 1e-3)
    ev = BrownianMatsubara(bath)
    for t in times:
        assert ev.g(t).real > 0.0 and ev.gdot(t).real > 0.0
    array = np.array(times + (2e-3, 4e-3))
    assert np.all(BrownianMatsubara(bath).g(array).real > 0.0)
    assert np.all(BrownianMatsubara(bath).gdot(array).real > 0.0)
    x_direct = 0.2 * bath.beta / (2.0 * math.pi)
    for fn in (ev.g, ev.gdot):
        with pytest.raises(AssertionError, match="tail column"):
            fn(x_direct)


def _dead_weight_60(eta, gamma, beta, k, t):
    """The weight C = (eta gamma beta / pi^2) sum_{n > N} e^{-nx} / (n^2 - a^2), N = K + _BLOCK_CAP, x = 2 pi t / beta,
    to 60 digits: (1 / 2a) q^(N+1) (Phi(q, 1, N + 1 - a) - Phi(q, 1, N + 1 + a)), q = e^-x, by mpmath.lerchphi."""
    with mpmath.workdps(60):
        eta, gamma, beta, t = (mpmath.mpf(v) for v in (eta, gamma, beta, t))
        a = beta * gamma / (2 * mpmath.pi)
        q = mpmath.exp(-2 * mpmath.pi * t / beta)
        n = k + _BLOCK_CAP + 1
        rest = q**n * (mpmath.lerchphi(q, 1, n - a) - mpmath.lerchphi(q, 1, n + a)) / (2 * a)
        return float(eta * gamma * beta / mpmath.pi**2 * rest)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(bath=st.sampled_from(_ITEM_3_BATHS), frac=st.floats(0.0, 1.0, exclude_max=True))
@example(bath=_ITEM_3_BATHS[0], frac=0.0)
@example(bath=_ITEM_3_BATHS[4], frac=0.0)
@example(bath=_ITEM_3_BATHS[5], frac=0.0)
def test_exact_re_gdot_below_x_0_2_matches_the_oracle(bath, frac):
    # Re gdot less the dead weight C of its capped times is the x-derivative of Re g's small-x sum; measured: 6.6e-14
    # on these baths from t = 1e-9 to x = 0.2 (the live block it replaces was up to 3.6e3 off at t = 1e-9, beta 933)
    eta, gamma, beta, k = bath
    t = 1e-9 * (0.2 * beta / (2.0 * math.pi) / 1e-9) ** frac
    with mock.patch.object(dephasing, "_dead_weight", lambda n, a2, x: 0.0):
        gdot = BrownianMatsubara(BathParams(eta, gamma, beta, k)).gdot(t)
    assert 2.0 * math.pi * t / beta < 0.2 and gdot.real > 0.0
    assert gdot.real == pytest.approx(reference(eta, gamma, beta, t)[1], rel=SMALL_T_RTOL)


# (bath, t) where more than _BLOCK_CAP terms past K are live: gdot keeps the value of that block summed to K +
# _BLOCK_CAP, which counted the rest as dead, as the exact sum plus their weight C
_CAPPED_TIMES = [
    (_ITEM_3_BATHS[0], 1e-9),
    (_ITEM_3_BATHS[0], 1e-7),
    (_ITEM_3_BATHS[4], 1e-5),
    (_ITEM_3_BATHS[4], 1e-3),
    (_ITEM_3_BATHS[5], 1e-3),
    (_ITEM_3_BATHS[3], 1e-5),
]


@pytest.mark.parametrize("bath, t", _CAPPED_TIMES, ids=[f"beta {b[2]:.5g}, t {t:g}" for b, t in _CAPPED_TIMES])
def test_capped_gdot_is_the_oracle_plus_its_dead_weight(bath, t):
    # measured: within 6.6e-14; C is 2.9 times Re gdot at t = 1e-9 on the default bath and 1.1e-9 of it at t = 1e-3 on
    # beta 939.84
    eta, gamma, beta, k = bath
    assert math.ceil(45.0 * beta / (2.0 * math.pi * t)) > k + _BLOCK_CAP
    want = reference(eta, gamma, beta, t)[1] + _dead_weight_60(eta, gamma, beta, k, t)
    assert BrownianMatsubara(BathParams(eta, gamma, beta, k)).gdot(t).real == pytest.approx(want, rel=SMALL_T_RTOL)


def test_capped_gdot_raises_where_its_dead_weight_series_would_not_converge():
    # N = K + _BLOCK_CAP below 2a: C's series in (a / N)^2 is not summed there, so a capped time raises
    bath = BathParams(1.0, 1.0, 2.0 * math.pi * (_BLOCK_CAP + 100.0))
    ev = BrownianMatsubara(bath)
    with pytest.raises(DephaserError, match="dead weight"):
        ev.gdot(1e-3)
    # a time with fewer live terms sums no dead weight
    t = 50.0 * bath.beta / (2.0 * math.pi * (_BLOCK_CAP + 100.0))
    assert math.isfinite(ev.gdot(t).real)


@pytest.mark.parametrize("first", ["g", "gdot"])
def test_g_and_gdot_share_one_small_x_table(monkeypatch, first):
    # a fresh engine builds the node table once below x = 0.2, for whichever of g and gdot comes first
    calls = []
    build = dephasing._matsubara_nodes
    monkeypatch.setattr(dephasing, "_matsubara_nodes", lambda *args: calls.append(args) or build(*args))
    ev = BrownianMatsubara(BathParams(1.3, 1.8, 933.0))
    second = "gdot" if first == "g" else "g"
    for name in (first, second, first):
        for t in (1e-9, 1e-5, 1e-3):
            assert getattr(ev, name)(t).real > 0.0
    assert len(calls) == 1


def test_gdot_builds_no_group_moments_of_g(monkeypatch):
    # S's groups and their Taylor moments serve g alone: a fresh engine's gdot below x = 0.2 does not build them, and
    # g builds them once, at its first call there
    groups = []
    group = dephasing._MatsubaraG._group
    monkeypatch.setattr(dephasing._MatsubaraG, "_group", lambda self: groups.append(1) or group(self))
    ev = BrownianMatsubara(BathParams(1.3, 1.8, 933.0))
    for t in (1e-9, 1e-5, 1e-3, 2.0):
        ev.gdot(t)
    ev.gdot(np.geomspace(1e-6, 1.0, 5))
    assert groups == []
    for t in (1e-5, 1e-3, 3.0):
        ev.g(t)
    assert groups == [1]


def test_capped_gdot_builds_no_large_block():
    # the live block of up to _BLOCK_CAP terms and its kept columns peaked at 6.0 MiB at t = 1e-9; a fresh engine's
    # node table and sum take 0.04 MiB
    ev = BrownianMatsubara(BATH)
    ev.gdot(1e-9)
    tracemalloc.start()
    try:
        BrownianMatsubara(BATH).gdot(1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gdot_never_builds_the_unpaired_s0(monkeypatch):
    # S0(K) serves only g from x = 0.2 on, so a default-bath engine and its gdot never build its cubic tail
    def refuse(a2):
        raise AssertionError("built the cubic tail of S0")

    monkeypatch.setattr(spectral, "_cubic_tail_coefficients", refuse)
    ev = BrownianMatsubara(BATH)
    assert ev._table.m == 0
    ev.gdot(np.geomspace(1e-9, 1e3, 25))
    for t in (1e-9, 0.1, 1.0, 100.0):
        ev.gdot(t)
    ev.g(1e-3)
    with pytest.raises(AssertionError, match="cubic tail"):
        ev.g(10.0)


def test_resonant_pole_matches_quadrature():
    # gamma sits exactly on the second thermal frequency: a = beta gamma / 2 pi = 2
    beta = 4.0 * math.pi
    p = BathParams(eta=1.0, gamma=1.0, beta=beta, matsubara_terms=50)
    ana = BrownianMatsubara(p)
    frq = FrequencyQuadrature(OverdampedBrownian(p), beta)
    tdq = TimeDomainQuadrature(OverdampedBrownian(p), beta)
    assert (p.dirichlet().m, p.dirichlet().nu_m) == (2, 1.0)
    for t in (0.3, 1.0, 3.0):
        assert abs(ana.g(t) - frq.g(t)) / abs(frq.g(t)) < 1e-10
        assert abs(tdq.g(t) - frq.g(t)) / abs(frq.g(t)) < 1e-10
        assert abs(ana.gdot(t) - frq.gdot(t)) / abs(frq.gdot(t)) < 1e-9


def test_resonant_pole_past_k_matches_the_oracle():
    # the pole on nu_2 with one explicit term: the tail holds the m-th term, and the pair takes it from there
    beta = 4.0 * math.pi
    ev = BrownianMatsubara(BathParams(eta=1.0, gamma=1.0, beta=beta, matsubara_terms=1))
    for t in (0.3, 1.0, 3.0, 30.0):
        re_g, re_gdot = reference(1.0, 1.0, beta, t)
        assert ev.g(t).real == pytest.approx(re_g, rel=1e-13)
        assert ev.gdot(t).real == pytest.approx(re_gdot, rel=1e-13)


# The one relative tolerance of Re g and Re gdot at every detuning of the pole from its nearest thermal frequency,
# for t >= 1e-2 (item 3 of the roadmap owns smaller t): 6.3e-12 is the largest error of 150 random draws
RESONANCE_TOL = 1e-10


def test_near_resonant_detunings():
    beta = 4.0 * math.pi
    # 1e-9 and 1e-5 from nu_2: the pole and the second term cancel in the algebra of the pair at either distance
    for gamma in (1.0 + 1e-9, 1.0 + 1e-5):
        p = BathParams(eta=1.0, gamma=gamma, beta=beta, matsubara_terms=50)
        ana = BrownianMatsubara(p)
        frq = FrequencyQuadrature(OverdampedBrownian(p), beta)
        assert abs(ana.g(1.0) - frq.g(1.0)) / abs(frq.g(1.0)) < RESONANCE_TOL


@settings(max_examples=7, derandomize=True, deadline=None)
@given(
    m=st.integers(1, 300),
    sign=st.sampled_from([-1.0, 1.0]),
    log_delta=st.floats(-12.0, math.log10(0.5)),
    k=st.sampled_from([0, 1, 100]),
    gamma=st.floats(0.3, 3.0),
    log_t=st.floats(-2.0, 1.0),
)
# exact float resonance: beta = 4 pi, so beta gamma / 2 pi = 2 and nu_2 = gamma = 1 exactly
@example(m=2, sign=1.0, log_delta=-math.inf, k=0, gamma=1.0, log_t=0.0)
# the m-th term past K and past the live block (nu_40 t = 48 > 45): the digamma rest held it, by the reflection
@example(m=40, sign=-1.0, log_delta=-9.0, k=1, gamma=3.0, log_t=math.log10(16.0))
def test_one_formula_through_resonance_matches_the_oracle(m, sign, log_delta, k, gamma, log_t):
    beta = 2.0 * math.pi * (m + sign * 10.0**log_delta) / gamma
    t = 10.0**log_t
    ev = BrownianMatsubara(BathParams(1.0, gamma, beta, k))
    re_g, re_gdot = reference(1.0, gamma, beta, t)
    assert ev.g(t).real == pytest.approx(re_g, rel=RESONANCE_TOL)
    assert ev.gdot(t).real == pytest.approx(re_gdot, rel=RESONANCE_TOL)


def test_tabulated_engines_cross_check():
    w = np.geomspace(1e-4, 400.0, 6000)
    tab = TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w))
    frq = FrequencyQuadrature(tab, BATH.beta)
    tdq = TimeDomainQuadrature(tab, BATH.beta)
    ana = BrownianMatsubara(BATH)
    for t in (1.0, 3.0):
        assert abs(frq.g(t) - tdq.g(t)) / abs(frq.g(t)) < 1e-4
        assert abs(frq.g(t) - ana.g(t)) / abs(ana.g(t)) < 5e-3


def test_negative_time_rejected():
    for ev in brownian_engines():
        with pytest.raises(ValueError):
            ev.g(-0.5)
        with pytest.raises(ValueError):
            ev.gdot(-0.5)
        with pytest.raises(ValueError):
            ev.g(math.nan)


@pytest.mark.parametrize("engine", [FrequencyQuadrature, TimeDomainQuadrature])
@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_quadrature_engines_reject_bad_beta(engine, beta):
    # a NaN beta used to give g = nan - 0.2099j on a tabulated density
    w = np.geomspace(1e-3, 100.0, 50)
    for sd in (OverdampedBrownian(BATH), TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w))):
        with pytest.raises(ValueError):
            engine(sd, beta)


def test_quadrature_engines_reject_unknown_density():
    # a density that is neither Brownian nor tabulated has no integrand
    for engine in (FrequencyQuadrature, TimeDomainQuadrature):
        with pytest.raises(TypeError):
            engine(object(), BATH.beta)


def test_make_evaluator_dispatch():
    assert isinstance(make_evaluator("analytic", BATH), BrownianMatsubara)
    assert isinstance(make_evaluator("hight", BATH), HighTemperatureBrownian)
    assert isinstance(make_evaluator("freq-quad", BATH), FrequencyQuadrature)
    assert isinstance(make_evaluator("time-quad", BATH), TimeDomainQuadrature)
    with pytest.raises(ValueError):
        make_evaluator("exact", BATH)
    for name in ("analytic", "hight", "freq-quad", "time-quad"):
        ev = make_evaluator(name, BATH)
        assert ev.beta == BATH.beta
        assert ev.bath is not None and ev.bath.gamma == BATH.gamma


def _bits(values):
    """Bit patterns of a float or complex array, so that -0.0, 0.0 and every last bit compare exactly."""
    return np.ascontiguousarray(values).view(np.uint64)


def _assert_array_is_scalar_loop(fn, ts, scalar=None):
    """fn on the array ts equals scalar (default fn) on each of its times as a float, bit for bit.

    Or it raises as one of those scalar calls does.
    """
    try:
        want = [(scalar or fn)(float(t)) for t in ts]
    except DephaserError:
        # a subnormal time overflows the tail's live term count, alone and in an array
        with pytest.raises(DephaserError):
            fn(ts)
        return
    got = fn(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    assert np.array_equal(_bits(got), _bits(np.array(want, dtype=got.dtype)))


@st.composite
def _bath_and_times(draw):
    """A bath over the Matsubara regimes, and times at 0, 1e-9 and on both sides of 45 beta / (2 pi K).

    Below that time some e^{-nu_n t} with n > K is still live and the tail sums
    its own block; above it only the closed form is left.
    """
    k = draw(st.sampled_from([0, 25, 100, 400]))
    beta = 10.0 ** draw(st.floats(-1.0, 3.0))
    bath = BathParams(draw(st.floats(0.1, 10.0)), draw(st.floats(0.2, 2.0)), beta, k)
    split = 45.0 * beta / (2.0 * math.pi * max(k, 1))
    times = [0.0, 1e-9, split * (1.0 - 1e-12), split, split * (1.0 + 1e-12), 0.5 * split, 2.0 * split]
    times += draw(st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=4))
    return bath, np.array(times), draw(st.floats(0.0, 3.0))


# beta gamma / 2 pi = 1: the pole sits on nu_1 and the resonant limit formulas run
_RESONANT = BathParams(eta=1.3, gamma=1.0, beta=2.0 * math.pi, matsubara_terms=25)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(_bath_and_times())
@example((_RESONANT, np.array([0.0, 1e-9, 0.3, 45.0 / 25.0, 7.0]), 1.0))
def test_array_times_match_scalar_times_bit_for_bit(case):
    bath, ts, t1 = case
    engines = [BrownianMatsubara(bath), BrownianMatsubara(bath, include_tail=False), HighTemperatureBrownian(bath)]
    for ev in engines:
        _assert_array_is_scalar_loop(ev.g, ts)
        _assert_array_is_scalar_loop(ev.gdot, ts)
    # the rate of a float time is Python float arithmetic on one gdot call, of an array numpy's on one call
    for ev in engines:
        for scenario in (SingleTime(), Prepared(t1)):
            _assert_array_is_scalar_loop(lambda t: decay_exponent_rate(ev, scenario, t), ts)
            rates = [decay_exponent_rate(ev, scenario, t) for t in (float(ts[-1]), ts[-1])]
            assert [type(r) for r in rates] == [float, float] and rates[0] == rates[1]
    ana = engines[0]
    # and the formula of its definition, one scalar gdot call per time
    _assert_array_is_scalar_loop(
        lambda t: decay_exponent_rate(ana, Prepared(t1), t),
        ts,
        scalar=lambda t: 2.0 * ana.gdot(t).real - ana.gdot(t1 + t).real,
    )


def test_quadrature_engines_take_arrays():
    ts = np.array([0.0, 0.3, 1.7])
    for ev in brownian_engines()[2:]:
        _assert_array_is_scalar_loop(ev.g, ts)
        _assert_array_is_scalar_loop(ev.gdot, ts)


def test_scalar_and_array_return_types():
    for ev in brownian_engines():
        assert type(ev.g(1.0)) is complex and type(ev.gdot(np.float64(1.0))) is complex
        assert ev.g(np.array([])).shape == (0,)
    # t = 0 is exactly 0j inside an array too
    g = BrownianMatsubara(BATH).g(np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(_bits(g[[0, 2]]), _bits(np.zeros(2, complex)))


# a warm bath, the beta 933 bath whose tail is live at every t < 67, the resonant one, and strict truncation
_MEMO_ENGINES = [
    lambda: BrownianMatsubara(BATH),
    lambda: BrownianMatsubara(BathParams(1.3, 1.8, 933.0)),
    lambda: BrownianMatsubara(_RESONANT),
    lambda: BrownianMatsubara(BATH, include_tail=False),
]
# repeats of these times, -0.0 against 0.0, two times 1e-9 apart, and either side of the warm tail's split 45 / 200 pi
_MEMO_POOL = st.sampled_from([0.0, -0.0, 0.05, 45.0 / (200.0 * math.pi), 0.3, 1.0, 1.0 + 1e-9, 2.5])
_POINTWISE_CALL = st.tuples(
    st.booleans(),
    st.lists(st.one_of(_MEMO_POOL, _MEMO_POOL, st.floats(0.05, 20.0)), min_size=1, max_size=_MEMO_CALL),
    st.booleans(),
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(_POINTWISE_CALL, min_size=1, max_size=20))
# a time the memo holds ahead of, between and behind times it does not
@example([(False, [1.0], True), (False, [1.0, 2.5, 1.0 + 1e-9], False), (False, [0.3, 1.0, 0.05], False)])
@example([(True, [2.5], True), (True, [-0.0, 0.3, 2.5], False), (True, [0.0], True)])
# gdot read where g filled its memo, at a time of its own, and g where gdot's memo already held a time
@example([(False, [1.0, 2.5], False), (True, [2.5], True), (True, [1.0, 0.3], False), (False, [0.3, 0.05], False)])
def test_memo_never_changes_a_bit(calls):
    # each value read through one long-lived evaluator, g and gdot interleaved in the order of the calls, against one
    # array call of a fresh evaluator past the memos
    for make in _MEMO_ENGINES:
        ev = make()
        want = {}
        for name in ("g", "gdot"):
            times = [t for derivative, ts, _ in calls if derivative == (name == "gdot") for t in ts]
            padded = np.array(times + [0.7] * (_MEMO_CALL + 1))
            want[name] = iter(getattr(make(), name)(padded)[: len(times)].tolist())
        for derivative, ts, as_float in calls:
            name = "gdot" if derivative else "g"
            if as_float and len(ts) == 1:
                got = [getattr(ev, name)(ts[0])]
            else:
                got = getattr(ev, name)(np.array(ts)).tolist()
            assert np.array(got).tobytes() == np.array([next(want[name]) for _ in ts]).tobytes()
        # and g's memo was in use whenever g was called, so its repeats were read from it, and it filled gdot's memo
        # at its times, from which gdot then read them
        assert len(ev._g_memo) > 0 or all(derivative for derivative, _, _ in calls)
        assert ev._g_memo.keys() <= ev._gdot_memo.keys()
        assert len(ev._gdot_memo) > 0


def test_memo_is_bounded_and_skips_array_calls():
    ev = BrownianMatsubara(BATH)
    ts = np.linspace(0.1, 10.0, 2 * _MEMO_TIMES + 7)
    for i in range(0, ts.size, _MEMO_CALL):
        ev.g(ts[i : i + _MEMO_CALL])
        ev.gdot(float(ts[i]))
        # and a gdot time of its own, which g's memo lacks, so gdot's memo fills faster
        ev.gdot(float(ts[i]) + 1e-3)
        assert 0 < len(ev._g_memo) <= _MEMO_TIMES and 0 < len(ev._gdot_memo) <= _MEMO_TIMES
        # cleared together: every time g's memo holds, gdot's holds too
        assert ev._g_memo.keys() <= ev._gdot_memo.keys()
    # g's and gdot's memos are the engine's only dicts
    assert [name for name, value in vars(ev).items() if isinstance(value, dict)] == ["_g_memo", "_gdot_memo"]
    # an array call larger than a pointwise one neither reads the memos nor fills them
    fresh = BrownianMatsubara(BATH)
    grid = np.linspace(0.0, 10.0, 1000)
    for name in ("g", "gdot"):
        memo = getattr(fresh, f"_{name}_memo")
        memo[float(grid[1])] = 1234j
        assert 1234j not in getattr(fresh, name)(grid)
        assert list(memo) == [float(grid[1])]
    assert list(fresh._g_memo) == list(fresh._gdot_memo) == [float(grid[1])]


_HELD = [0.3, 1.0, 2.5]


def test_memo_hits_give_a_fresh_engines_bits():
    # a held float and held arrays of 1, 2 and 3 times, each against a fresh engine's call of the same form
    for make in _MEMO_ENGINES:
        ev = make()
        ev.g(np.array(_HELD))
        ev.gdot(np.array(_HELD))
        for name in ("g", "gdot"):
            held = getattr(ev, name)
            for s in _HELD:
                assert np.array_equal(_bits(np.complex128(held(s))), _bits(np.complex128(getattr(make(), name)(s))))
            for size in (1, 2, 3):
                ts = np.array(_HELD[-size:])
                assert np.array_equal(_bits(held(ts)), _bits(getattr(make(), name)(ts)))


def test_memo_hits_skip_the_time_check(monkeypatch):
    # a held time was checked when it was stored, so a g call of held times is converted but reaches no check
    ev = BrownianMatsubara(BATH)
    ev.g(np.array(_HELD))

    def refuse(*args):
        raise AssertionError("a call of held times checked them")

    for name in ("_check_times", "_check_list"):
        monkeypatch.setattr(dephasing, name, refuse)
    for s in _HELD:
        ev.g(s)
    for size in (1, 2, 3):
        ev.g(np.array(_HELD[:size]))
    ev.g([1.0, 0.3])
    with pytest.raises(AssertionError):  # a time the memo lacks is checked
        ev.g(np.array([1.0, 0.7]))


def _count_rows(monkeypatch) -> list:
    """A list that gathers, from now on, (t, g's half asked for, gdot's half asked for) of every BrownianMatsubara row
    step."""
    rows = []
    row = BrownianMatsubara._row

    def counted(self, t, g, gdot):
        rows.append((t, g is not None, gdot is not None))
        return row(self, t, g, gdot)

    monkeypatch.setattr(BrownianMatsubara, "_row", counted)
    return rows


def test_mixed_memo_call_computes_and_stores_only_its_new_times(monkeypatch):
    want_g = BrownianMatsubara(BATH).g(np.array([0.3, 1.0, 2.5]))
    want_gdot = BrownianMatsubara(BATH).gdot(np.array([2.5, 0.7]))
    ev = BrownianMatsubara(BATH)
    ev.g(1.0)
    held, held_gdot = ev._g_memo[1.0], ev._gdot_memo[1.0]
    rows = _count_rows(monkeypatch)
    g = ev.g(np.array([0.3, 1.0, 2.5]))
    # each new time runs one row step, whose g and gdot the memos hold
    assert rows == [(0.3, True, True), (2.5, True, True)]
    assert list(ev._g_memo) == list(ev._gdot_memo) == [1.0, 0.3, 2.5]
    assert ev._g_memo[1.0] is held and ev._gdot_memo[1.0] is held_gdot
    assert np.array_equal(_bits(g), _bits(want_g))
    # gdot's new time takes one row of gdot's half alone, and g's new time where gdot's memo holds it one row of g's
    # half alone, which leaves the held gdot in place
    gdot = ev.gdot(np.array([2.5, 0.7]))
    assert rows[2:] == [(0.7, False, True)]
    assert list(ev._gdot_memo) == [1.0, 0.3, 2.5, 0.7] and list(ev._g_memo) == [1.0, 0.3, 2.5]
    held_gdot = ev._gdot_memo[0.7]
    ev.g(0.7)
    assert rows[3:] == [(0.7, True, False)] and ev._gdot_memo[0.7] is held_gdot
    assert np.array_equal(_bits(gdot), _bits(want_gdot))


def test_g_miss_where_gdot_is_held_builds_and_runs_g_half_alone(monkeypatch):
    # a g call whose new times gdot's memo all holds takes neither gdot's explicit sums nor gdot's half of the row
    ev = BrownianMatsubara(BATH)
    ev.gdot(np.array([0.7, 2.5]))
    held = dict(ev._gdot_memo)
    tables = []
    explicit = BrownianMatsubara._explicit

    def counted(self, ts, g, gdot):
        tables.append((ts.size, g, gdot))
        return explicit(self, ts, g, gdot)

    monkeypatch.setattr(BrownianMatsubara, "_explicit", counted)
    rows = _count_rows(monkeypatch)
    g = ev.g(np.array([0.7, 2.5]))
    assert tables == [(2, True, False)] and rows == [(0.7, True, False), (2.5, True, False)]
    assert all(ev._gdot_memo[s] is v for s, v in held.items())
    assert np.array_equal(_bits(g), _bits(BrownianMatsubara(BATH).g(np.array([0.7, 2.5]))))


def test_repeated_pointwise_gdot_runs_its_row_once(monkeypatch):
    # a gdot time asked for twice, as crosscheck asks for half of its pointwise analytic gdot times, is read from the
    # memo the second time, as a float and inside an array
    rows = _count_rows(monkeypatch)
    for bath in (BATH, BathParams(1.3, 1.8, 933.0)):
        ev = BrownianMatsubara(bath)
        first = ev.gdot(1.0)
        assert ev.gdot(1.0) is first and ev.gdot(np.array([1.0]))[0] == first
        ev.gdot(np.array([2.0, 1e-3]))
        ev.gdot(2.0)
        ev.gdot(1e-3)
        assert [t for t, _, _ in rows] == [1.0, 2.0, 1e-3]
        rows.clear()


class _CountingNumpy:
    """numpy as dephasing reads it, with the sizes of the arrays that its expm1 calls take gathered in expm1_sizes."""

    def __init__(self):
        self.expm1_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def expm1(self, x, *args, **kwargs):
        self.expm1_sizes.append(np.size(x))
        return np.expm1(x, *args, **kwargs)


def test_new_pointwise_time_shares_its_exponentials_between_g_and_gdot(monkeypatch):
    # a g miss runs one row step for g and gdot, which share its exponentials: below x = 0.2 one expm1 over the nodes,
    # from there one K-term table for the call and, with live terms past K, one tail_sums
    rows = _count_rows(monkeypatch)
    counting = _CountingNumpy()
    monkeypatch.setattr(dephasing, "np", counting)
    ev = BrownianMatsubara(BathParams(1.3, 1.8, 933.0))
    ev.g(1.0)
    assert counting.expm1_sizes == [ev._small_x_sum._nodes.size]
    assert ev.gdot(1.0) is ev._gdot_memo[1.0] and rows == [(1.0, True, True)]
    # K = 25 on a = 5.5: every time here has live terms past K
    bath = BathParams(5.4, 1.55, 22.3, 25)
    ev = BrownianMatsubara(bath)
    times = [1.0, 2.0, 5.0]
    assert all(ev._live_stop(t) for t in times)
    tables, tails = [], []
    explicit, tail_sums = BrownianMatsubara._explicit, type(ev._table).tail_sums
    monkeypatch.setattr(BrownianMatsubara, "_explicit", lambda self, *a: tables.append(len(a[0])) or explicit(self, *a))
    monkeypatch.setattr(type(ev._table), "tail_sums", lambda self, *a: tails.append(a) or tail_sums(self, *a))
    counting.expm1_sizes.clear()
    ev.g(np.array(times))
    assert tables == [3] and len(tails) == 3
    # the K-term table of the three times, and one live block per time
    assert counting.expm1_sizes == [3 * 25] + [ev._live_stop(t) - 25 for t in times]
    gdot = [ev.gdot(t) for t in times]
    assert tables == [3] and len(tails) == 3 and rows[1:] == [(t, True, True) for t in times]
    assert np.array(gdot).tobytes() == BrownianMatsubara(bath).gdot(np.array(times + [0.0])).tobytes()[: 3 * 16]


def test_memo_first_calls_convert_and_raise_as_the_time_check_does():
    ev = BrownianMatsubara(BATH)
    ev.g(np.array(_HELD))
    ev.gdot(np.array(_HELD))
    past = 2.0 * ev._t_max
    for name in ("g", "gdot"):
        f, fresh = getattr(ev, name), getattr(BrownianMatsubara(BATH), name)
        # other forms of held and new times convert to float64 first: float32 and int arrays, lists, numpy and
        # Python scalars
        for ts in (np.array([1, 2], dtype=int), np.array([0.3, 1.0, 0.7], dtype=np.float32), [2.5, 0.7]):
            assert np.array_equal(_bits(f(ts)), _bits(fresh(np.asarray(ts, dtype=float))))
        for s in (np.float64(1.0), 1, np.float32(0.3)):
            assert np.array_equal(_bits(np.complex128(f(s))), _bits(np.complex128(fresh(float(s)))))
        # a bad time raises as a float, alone in an array, beside held times and in a float32 array, and is not stored
        for bad, error, message in (
            (math.nan, ValueError, "finite and nonnegative"),
            (-1.0, ValueError, "finite and nonnegative"),
            (-math.inf, ValueError, "finite and nonnegative"),
            (math.inf, ValueError, "finite and nonnegative"),
            (past, DephaserError, f"time {past!r} is past "),
        ):
            calls = [bad, np.array([bad]), np.array([1.0, bad]), np.array([bad, 1.0, 2.5])]
            if bad != past:  # a float32 overflows there
                calls.append(np.float32([1.0, bad]))
            for call in calls:
                sizes = len(ev._g_memo), len(ev._gdot_memo)
                with pytest.raises(error, match=re.escape(message)):
                    f(call)
                assert (len(ev._g_memo), len(ev._gdot_memo)) == sizes
        with pytest.raises(ValueError, match="1-d array"):
            f(np.array([[1.0]]))


# The baths, term counts and times of the pinned digest: the default bath, the cold beta 933 and 939.84 baths, and the
# pole on nu_1 and on nu_2; every K, with the tail and strictly truncated.
_PINNED_BATHS = {
    "default": (1.0, 0.5, 1.0),
    "beta 933": (1.3, 1.8, 933.0),
    "beta 939.84": (7.69, 1.86, 939.84),
    "a = 1": (1.3, 1.0, 2.0 * math.pi),
    "a = 2": (1.0, 1.0, 4.0 * math.pi),
}
_PINNED_TIMES = np.geomspace(1e-9, 1e3, 25)
# recorded with numpy 2.4.6 on x86-64; a change that moves a bit of g or gdot on purpose records it again and says so
# (Re g below x = 0.2 by the window and Euler-Maclaurin tails of L, h by its Taylor series at small arguments, and g at
# every pinned time; Re g from x = 0.2 on the default bath, when S0 of the tail sums lost its 1 / a^2 cancellation;
# last: Re gdot below x = 0.2 on g's nodes, and gdot at every pinned time, which its 2-million-term block kept out)
_PINNED_DIGEST = "6b281b9b32e7bf2a02c42ffb8724f81e62eb58eb71ffe4e0a5b0cfaf7396c028"
# numpy picks its expm1 and exp kernels by CPU, and the digests hold only where expm1, row sums and exp (the analytic
# L's n^-5 series) give these bits
_PINNED_KERNEL = "ab18a038cefce15e5d6b6324fbe363f4e0123f06e3e7fcc36a8273a77e622c05"
_PINNED_EXP = "3540e25f77aa1f4a993f2938cdb4dc45def29cc4db2b45a714edd46316d26de8"


def _pinned_cases():
    """(bath, include_tail) of every engine the digest covers."""
    for eta, gamma, beta in _PINNED_BATHS.values():
        for k in (0, 1, 25, 100):
            for tail in (True, False):
                yield BathParams(eta, gamma, beta, k), tail


def _skip_off_the_pinned_kernel():
    em = np.expm1(-np.geomspace(1e-12, 50.0, 4097))
    if hashlib.sha256(em.tobytes() + np.add.reduce(em.reshape(17, 241), axis=1).tobytes()).hexdigest() != _PINNED_KERNEL:
        pytest.skip("numpy's expm1 or row sums give other bits on this machine than where the digest was recorded")
    if hashlib.sha256(np.exp(-np.geomspace(1e-12, 700.0, 4097)).tobytes()).hexdigest() != _PINNED_EXP:
        pytest.skip("numpy's exp gives other bits on this machine than where the digest was recorded")


def test_analytic_bits_match_the_pinned_digest():
    # SHA-256 of the raw bytes of g and gdot by one array call, a float call per time and 3-time calls through the memo
    _skip_off_the_pinned_kernel()
    digest = hashlib.sha256()
    cases = 0
    ts = _PINNED_TIMES
    for bath, tail in _pinned_cases():
        whole, single, triple = (BrownianMatsubara(bath, tail) for _ in range(3))
        for name in ("g", "gdot"):
            digest.update(getattr(whole, name)(ts).tobytes())
            for s in ts.tolist():
                digest.update(np.complex128(getattr(single, name)(s)).tobytes())
            for i in range(0, ts.size, 2):  # consecutive calls share a time, which the memo returns
                digest.update(getattr(triple, name)(ts[i : i + 3]).tobytes())
            cases += 3 * ts.size
    assert cases >= 1000
    assert digest.hexdigest() == _PINNED_DIGEST


# time-quad's digest on the default bath, a cold one and a tabulated density, recorded with numpy 2.4.6 and scipy
# 1.17.1 on x86-64 from the engine without its node memo: the memo must not move a bit, whatever the order of calls;
# recorded again when the analytic L of the beta 100 bath (a = 20.7) took the pole and nu_21 as one pair, when L's
# Matsubara sum became a window and Euler-Maclaurin tails (gdot(8) on the beta 100 bath moved by 4.7e-12 relative),
# when the tails' exponential integrals became fixed-degree fits (4 of 72 values moved, by at most 2.9e-15), and when
# L's sum below x = 0.2 moved onto Re g's points and weights (6 real parts of the 18 times moved, by at most 1.7e-15)
_TQ_GRID = np.geomspace(1e-3, 100.0, 200)
_TQ_PINNED_DIGEST = "830baf977f9f02f4acd28ceeb08e5e9c7232e77b66f2b31839b8e9f0eac45c33"


def test_time_quad_bits_match_the_pinned_digest():
    # g and gdot by 3-time array calls and by float calls, in either order on one engine: each first on a fresh one
    _skip_off_the_pinned_kernel()
    sds = (
        (OverdampedBrownian(BATH), BATH.beta, (0.05, 0.9, 8.0)),
        (OverdampedBrownian(BathParams(1.0, 1.3, 100.0)), 100.0, (0.4, 4.0, 8.0)),
        (TabulatedSpectralDensity(_TQ_GRID, OverdampedBrownian(BATH).j(_TQ_GRID)), BATH.beta, (0.05, 0.3, 1.1)),
    )
    digest = hashlib.sha256()
    for sd, beta, ts in sds:
        array = np.array(ts)
        for order in (("g", "gdot"), ("gdot", "g")):
            on_array, on_floats = TimeDomainQuadrature(sd, beta), TimeDomainQuadrature(sd, beta)
            for name in order:
                digest.update(getattr(on_array, name)(array).tobytes())
                for s in ts:
                    digest.update(np.complex128(getattr(on_floats, name)(s)).tobytes())
    assert digest.hexdigest() == _TQ_PINNED_DIGEST


def _count_correlation_calls(ev) -> list:
    """A one-element list that counts the L evaluations ev makes from now on."""
    calls = [0]
    corr = ev._corr

    def counted(u):
        calls[0] += 1
        return corr(u)

    ev._corr = counted
    return calls


def test_time_quad_evaluates_each_node_once(monkeypatch):
    # QUADPACK starts Re and Im of g and gdot at one t with one 21-point rule and bisects Re toward u = 0
    integrate = dephasing.integrate_finite
    nodes = {}

    def recorded(f, a, b, *, tag, **options):
        asked = nodes.setdefault(tag, [])
        return integrate(lambda u: asked.append(u) or f(u), a, b, tag=tag, **options)

    monkeypatch.setattr(dephasing, "integrate_finite", recorded)
    for bath, t in ((BATH, 2.0), (BATH, 8.0), (BathParams(1.0, 1.3, 100.0), 8.0)):
        sd = OverdampedBrownian(bath)
        nodes.clear()
        ev = TimeDomainQuadrature(sd, bath.beta)
        calls = _count_correlation_calls(ev)
        ev.g(t)
        # every node of the Im integral is one of the Re integral's, so g evaluates no more than Re g asks for
        assert set(nodes["Im g"]) <= set(nodes["Re g"])
        assert calls[0] <= len(nodes["Re g"])
        ev.gdot(t)
        fresh = []
        for name in ("g", "gdot"):
            alone = TimeDomainQuadrature(sd, bath.beta)
            fresh.append(_count_correlation_calls(alone))
            getattr(alone, name)(t)
        # measured: 315 against 315 + 231 on the default bath at t = 2
        assert calls[0] <= 0.6 * (fresh[0][0] + fresh[1][0])


def test_time_quad_memo_stays_within_its_bound(monkeypatch):
    # a memo that would overfill is cleared, and a cleared memo gives the same bits as one that never was
    times = (0.3, 2.0, 0.3, 5.0)
    whole = TimeDomainQuadrature(OverdampedBrownian(BATH), BATH.beta)
    expected = [(whole.g(t), whole.gdot(t)) for t in times]
    monkeypatch.setattr(dephasing, "_MEMO_NODES", 100)
    small = TimeDomainQuadrature(OverdampedBrownian(BATH), BATH.beta)
    calls = _count_correlation_calls(small)
    for t, values in zip(times, expected):
        assert (small.g(t), small.gdot(t)) == values
        assert 0 < len(small._nodes) <= 100
    assert calls[0] > 3 * 100


def test_bad_time_in_array_rejected_like_a_scalar():
    # every engine checks a call of up to three times on Python floats, and a larger one by numpy reductions
    for ev in brownian_engines():
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as scalar_error:
                ev.gdot(bad)
            # the bad time first, in the middle or last of three or of five, and ahead of another bad time
            three = ([bad, 0.1, 2.0], [0.1, bad, 2.0], [0.1, 2.0, bad], [0.1, bad, -1.0], [0.1, bad, math.nan])
            five = ([bad, 0.1, 2.0, 0.3, 0.4], [0.1, 2.0, 0.3, 0.4, bad], [0.1, bad, 2.0, -1.0, math.nan])
            for times in three + five:
                with pytest.raises(ValueError) as array_error:
                    ev.gdot(np.array(times))
                assert str(array_error.value) == str(scalar_error.value)
        with pytest.raises(ValueError, match="1-d"):
            ev.g(np.ones((2, 2)))
    # valid times whose sum overflows pass the list check
    ts, scalar, times = _check_times(np.array([1e308, 1e308, 0.0]))
    assert ts.tolist() == times == [1e308, 1e308, 0.0] and not scalar


@pytest.mark.parametrize(
    "bath, what",
    [
        (BathParams(1e300, 1e-8, 1e-20, 5), "(eta / gamma) cot(beta gamma / 2)"),
        (BathParams(1e300, 1e-9, 1.0), "eta / gamma"),
        (BathParams(1e300, 1e10, 1e-22), "eta cot(beta gamma / 2)"),
        (BathParams(1e300, 1e10, 2.0 * math.pi * 1e-10), "2 eta / beta"),  # the pole on nu_1
        (BathParams(1e307, 1.0, 100.0), "eta gamma beta / pi^2"),  # the tail's S1: Re g was nan, Re gdot inf
    ],
    ids=["re-g", "im-g", "re-gdot", "resonant", "tail"],
)
def test_overflowing_amplitude_raises(bath, what):
    # an amplitude of the pole term or of the tail overflows: g and gdot were inf or nan at every t > 0, with no warning
    with pytest.raises(DephaserError, match=re.escape(f"{what} = inf overflows")):
        BrownianMatsubara(bath)
    if what.startswith("eta gamma beta"):
        # strict truncation sums no tail, but the remainder it drops is that tail: it was nan
        strict = BrownianMatsubara(bath, include_tail=False)
        assert np.isfinite(strict.g(1.0))
        with pytest.raises(DephaserError, match=re.escape(f"{what} = inf overflows")):
            strict.matsubara_remainder(1.0)


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: BrownianMatsubara(BathParams(1e300, 0.5, 1.0)), 1e10),  # Re g and Im g overflow
        (lambda: HighTemperatureBrownian(BathParams(1e300, 0.5, 1.0)), 1e10),
        (lambda: BrownianMatsubara(BathParams(1e300, 0.5, 1.0), include_tail=False), 1e10),
        (lambda: BrownianMatsubara(BATH), 1e306),  # nu_K t overflows, and Re g with it
        (lambda: HighTemperatureBrownian(BATH), 1e308),  # Re g overflows
        (lambda: HighTemperatureBrownian(BathParams(1e8, 0.001, 1e8)), 1e300),  # 2 Im g overflows
    ],
    ids=["analytic", "hight", "strict", "analytic-nu-K-t", "hight-default", "hight-flip"],
)
def test_huge_time_raises_dephaser_error(make, t):
    # each returned inf (or a g whose flip exponent overflows) behind at most a RuntimeWarning
    ev = make()
    for fn in (ev.g, ev.gdot):
        for times in (t, np.array([t]), np.array([0.0, 1.0, t]), np.array([t] + [1.0] * 5)):
            with pytest.raises(DephaserError, match=re.escape(f"time {t!r} is past ")):
                fn(times)


def test_hight_overflowing_eta_over_gamma_raises():
    # every other amplitude passes; g(1.0) was 6.67e287 - inf j, and g at t = 0 nan behind a RuntimeWarning
    bath = BathParams(2e298, 1e-10, 3e10)
    for times in (1.0, np.array([0.0, 1.0])):
        with pytest.raises(DephaserError, match=re.escape("eta / gamma = inf overflows")):
            HighTemperatureBrownian(bath).g(times)


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: HighTemperatureBrownian(BathParams(1.0, 1e160, 1.0)), "beta gamma^2 = inf leaves"),
        (lambda: BrownianCorrelation(BathParams(1.0, 1e80, 1e81)), "beta gamma / 2 pi = 1.5915494309189532e+160 is past 2^52"),
        (lambda: BrownianMatsubara(BathParams(1.0, 1e200, 1e200)), "(beta gamma / 2 pi)^2 = inf leaves"),
        (lambda: BrownianCorrelation(BathParams(1.0, 1e200, 1e200)), "beta gamma / 2 pi = inf overflows"),
        (lambda: BrownianMatsubara(BathParams(1.0, 1e80, 1e81, 0)), "(beta gamma / 2 pi)^2 = inf leaves"),
        (lambda: BrownianMatsubara(BathParams(1.0, 7e263, 1e-217, 0)), "gamma^2 = inf overflows"),
        (lambda: BrownianMatsubara(BathParams(0.18, 1.6e-153, 1.8e156)), "eta gamma beta^2 / (2 pi^3 a^2) = inf"),
    ],
    ids=["hight-gamma^2", "L-a_max", "analytic-a", "L-a", "analytic-a^2", "analytic-gamma^2", "analytic-beta^2"],
)
def test_overflowing_bath_powers_raise_dephaser_error(make, what):
    # Python's float ** raises OverflowError where * gives inf, and round(a) raised it at a = inf: untyped errors
    with pytest.raises(DephaserError, match=re.escape(what)):
        make()


def test_subnormal_coupling_raises_dephaser_error():
    # C = 2 eta / (beta gamma) = 4e-318: the growth end was 0.623652913284209, 1.3e-3 off, and N was 0.0
    for tail in (True, False):
        with pytest.raises(DephaserError, match=re.escape("2 eta / (beta gamma) = 3.999995e-318 leaves the normal")):
            BrownianMatsubara(BathParams(1e-318, 0.5, 1.0), include_tail=tail)


def test_largest_times_keep_their_bits():
    # g(1e305) on the default bath is below the largest time, with the bits it had before the bound
    ev = BrownianMatsubara(BATH)
    assert ev.g(np.array([0.0, 1e305])).tobytes().hex() == (
        "00000000000000000000000000000000bad9826e513a627fbad9826e513a42ff"
    )
    assert ev.g(1e305) == 4e305 - 1e305j and ev.gdot(1e305) == 4.0 - 1.0j


@pytest.mark.parametrize("t", [1e-308, 5e-324])
def test_subnormal_time_raises_dephaser_error(t):
    # 45 beta / (2 pi t), the tail's last live n, overflows: DephaserError naming the time, not OverflowError
    ev = BrownianMatsubara(BATH)
    for fn in (ev.g, ev.gdot):
        for times in (t, np.array([0.0, 1.0, t])):
            with pytest.raises(DephaserError, match=repr(t)):
                fn(times)


def test_time_quad_at_subnormal_time_raises_dephaser_error():
    # on [0, 5e-324] the rule's nodes round onto u = 0, where Re L diverges: an error, not 0j behind warnings
    tq = TimeDomainQuadrature(OverdampedBrownian(BATH), BATH.beta)
    for fn in (tq.g, tq.gdot):
        with pytest.raises(DephaserError, match="diverges"):
            fn(5e-324)
    # the node where L raised is not remembered, before or after a call that fills the memo
    assert not tq._nodes
    tq.g(1.0)
    kept = dict(tq._nodes)
    with pytest.raises(DephaserError, match="diverges"):
        tq.gdot(5e-324)
    assert tq._nodes == kept


def test_freq_quad_raises_below_its_domain():
    # below t w_split = 3e-4 (t = 3e-5 here) its Re g is off by 4e-6 and worse; the tabulated path has no bound
    ev = FrequencyQuadrature(OverdampedBrownian(BATH), BATH.beta)
    t_min = 3e-4 / ev.w_split
    for fn in (ev.g, ev.gdot):
        for bad in (math.nextafter(t_min, 0.0), 1e-10, 5e-324):
            for times in (bad, np.array([1.0, bad, 0.0])):
                with pytest.raises(DephaserError, match=re.escape(f"time {bad!r} is below the validated domain")):
                    fn(times)
        assert fn(0.0) == 0j
        assert np.all(np.isfinite(fn(np.array([0.0, t_min]))))
    w = np.geomspace(1e-3, 100.0, 50)
    tab = FrequencyQuadrature(TabulatedSpectralDensity(w, OverdampedBrownian(BATH).j(w)), BATH.beta)
    assert math.isfinite(tab.g(1e-10).real) and math.isfinite(tab.gdot(1e-10).real)


@pytest.mark.parametrize("beta, gamma", [(1.0, 0.5), (100.0, 1.3), (0.2, 1.2), (30.0, 0.3)])
def test_freq_quad_matches_the_series_at_its_domain_edge(beta, gamma):
    # measured: Re g within 4.3e-8 at t w_split = 3e-4 and 6.6e-9 at 1e-3; Re gdot within 4e-13
    ev = FrequencyQuadrature(OverdampedBrownian(BathParams(1.0, gamma, beta)), beta)
    for tw, rtol in ((3e-4, 1e-7), (1e-3, 1e-8)):
        t = tw / ev.w_split
        re_g, re_gdot = reference(1.0, gamma, beta, t)
        assert abs(ev.g(t).real - re_g) <= rtol * abs(re_g)
        assert abs(ev.gdot(t).real - re_gdot) <= 1e-11 * abs(re_gdot)


def test_oracle_grows_its_remainder_on_a_cold_bath():
    # beta gamma / (2 pi) = 267: a fixed 1 000-term remainder raised here at every t tried
    re_g, re_gdot, (bound_g, bound_gdot, n) = reference_with_bounds(1.3, 1.8, 933.0, 0.04)
    assert n > 1000
    want_g, want_gdot, (far_g, far_gdot, _) = reference_with_bounds(1.3, 1.8, 933.0, 0.04, min_terms=40000)
    # each side within its bound of the exact value, plus half an ulp for its rounding to a float
    assert abs(re_g - want_g) <= bound_g + far_g + math.ulp(want_g)
    assert abs(re_gdot - want_gdot) <= bound_gdot + far_gdot + math.ulp(want_gdot)


def _child(*args):
    """python *args in a child process with dephaser importable, so that a crash is an exit code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dephaser.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_freq_quad_at_subnormal_time_raises_instead_of_crashing():
    # QAWF segfaulted here (exit 139); now the domain check raises before any integral
    proc = _child(
        "-c",
        "from dephaser import *\n"
        "ev = FrequencyQuadrature(OverdampedBrownian(BathParams(1.0, 0.5, 1.0)), 1.0)\n"
        "try:\n    ev.gdot(2.2250738585072014e-308)\nexcept DephaserError as exc:\n    print(exc)",
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "2.2250738585072014e-308 is below the validated domain" in proc.stdout
    proc = _child("-m", "dephaser.cli", "gfun", "--engine", "freq-quad", "--tmax", "1e-323", "--points", "3")
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    record = json.loads(proc.stderr)["error"]
    assert record["type"] == "DephaserError"
    assert "validated domain" in record["message"]
