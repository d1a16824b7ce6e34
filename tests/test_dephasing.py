"""Lineshape function engines: agreement, limits, truncation, resonance."""

import cmath
import collections
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from _oracle import reference, reference_with_bounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dephaser
from dephaser import dephasing, measures, spectral
from dephaser.dephasing import (
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    TruncatedMatsubara,
    _BLOCK_CAP,
    _MEMO_TIMES,
    _check_times,
    _g_two_interval,
    flip_exponent,
    make_evaluator,
)
from dephaser.errors import DephaserError, IntegrationError
from dephaser.measures import Prepared, SingleTime, decay_exponent, decay_exponent_rate
from dephaser.spectral import (
    BathParams,
    BrownianCorrelation,
    DirichletTable,
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


def test_h_on_a_float_has_the_bits_of_h_on_an_array():
    # a float runs Horner's rule and numpy's expm1 on Python floats, an array elementwise with the same roundings:
    # math.expm1 differed from the array's expm1 by an ulp at about 0.5 % of y in [0.5, 40]
    ys = np.concatenate((np.linspace(0.0, 50.0, 5001), np.random.default_rng(44).uniform(0.0, 50.0, 20_000)))
    top = _H_SERIES_TOP
    ys = np.concatenate((ys, [top, np.nextafter(top, 0.0), np.nextafter(top, 1.0)]))
    got = np.array([_h(y) for y in ys.tolist()])
    assert all(type(_h(y)) is float for y in (0.0, 0.3, top, 7.5))
    assert _bits(got).tolist() == _bits(_h(ys)).tolist()


def test_hight_float_g_and_gdot_have_the_bits_of_their_array_calls():
    # h and gdot's expm1 run on Python floats for a scalar (a float, an int, a numpy float or a 0-d array) and on the
    # array for an array of any size: a time gets the same bits either way, on either side of _H_SERIES_TOP, and the
    # exponential is numpy's expm1 for both
    for bath in (BATH, BathParams(1.3, 1.8, 933.0), BathParams(0.3, 7.0, 1e-3)):
        ev = HighTemperatureBrownian(bath)
        top = _H_SERIES_TOP / bath.gamma
        grid = np.concatenate((np.geomspace(1e-9, 60.0, 997), [0.0, 1.0, 3.0, top, np.nextafter(top, 0.0)]))
        for name in ("g", "gdot"):
            f = getattr(ev, name)
            whole = f(grid)
            assert _bits(np.array([f(t) for t in grid.tolist()])).tolist() == _bits(whole).tolist()
            for size in (1, 2, 3, len(_H_TAYLOR)):
                for i in range(0, grid.size - size + 1, size):
                    assert _bits(f(grid[i : i + size])).tolist() == _bits(whole[i : i + size]).tolist()
            for scalar in (1, np.float64(1.0), np.array(1.0), np.int64(3)):
                value = f(scalar)
                assert type(value) is complex
                assert _bits(np.complex128(value)).tolist() == _bits(np.complex128(f(float(scalar)))).tolist()


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
        gs.append(TruncatedMatsubara(p).g(1.0))
    assert abs(gs[2] - gs[1]) < abs(gs[1] - gs[0])


def test_matsubara_remainder_consistency():
    full = BrownianMatsubara(BATH)
    strict = TruncatedMatsubara(BATH)
    for t in (0.3, 1.0, 5.0):
        rem = strict.matsubara_remainder(t)
        assert rem.imag == 0.0
        assert rem.real > 0.0
        assert full.g(t) - strict.g(t) == pytest.approx(rem, rel=1e-12)
    # remainder shrinks as more terms are kept explicitly
    p400 = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=400)
    assert TruncatedMatsubara(p400).matsubara_remainder(1.0).real < strict.matsubara_remainder(1.0).real


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
    rem = TruncatedMatsubara(BathParams(eta, gamma, beta)).matsubara_remainder(t)
    # measured: 5.9e-14
    assert rem.imag == 0.0 and rem.real == pytest.approx(want, rel=SMALL_T_RTOL)


# Re g of the exact engine below x = 2 pi t / beta = 0.2, where it is _SmallXSums' window and Euler-Maclaurin tails,
# against the oracle: the largest error is 6.3e-14 on item 3's six baths (72 times from t = 1e-9) and 6.0e-14 on 80
# random baths (320 times)
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


# Re g and Re gdot of the exact engine from x = 0.2 on, where it sums its L <= 226 live terms and the sums past them
# (G1, G0), against the oracle at x = 0.2, 0.25, 0.3, 0.5, 1, 2, 45/8, 45/7, 10, 30 and 60.  Measured worst relative
# (g, gdot) on item 3's six baths, then before the live terms took G1 and G0: default (1.4e-16, 1.3e-16), was (5.1e-15,
# 2.6e-15); a = 0.95 (8.1e-16, 3.3e-16), was (1.5e-14, 6.3e-16); a = 1.001 (6.0e-15, 3.6e-16), was (1.4e-14, 1.4e-15);
# a = 5.37 (2.6e-15, 1.8e-15), was (6.4e-15, 3.6e-15); beta 933 (2.4e-14, 3.1e-14), was (1.0e-13, 1.2e-13); beta 939.84
# (3.4e-14, 1.7e-14), was (1.0e-13, 1.8e-13).  Each pinned at about twice its measure
_FROM_X_0_2 = (0.2, 0.25, 0.3, 0.5, 1.0, 2.0, 45.0 / 8.0, 45.0 / 7.0, 10.0, 30.0, 60.0)
_FROM_X_0_2_BOUNDS = [(3e-16, 3e-16), (2e-15, 7e-16), (1.3e-14, 8e-16), (6e-15, 4e-15), (5e-14, 7e-14), (7e-14, 4e-14)]


@pytest.mark.parametrize(
    "bath, bounds", zip(_ITEM_3_BATHS, _FROM_X_0_2_BOUNDS), ids=[str(b[:3]) for b in _ITEM_3_BATHS]
)
def test_exact_g_and_gdot_from_x_0_2_match_the_oracle(bath, bounds):
    eta, gamma, beta, k = bath
    ev = BrownianMatsubara(BathParams(eta, gamma, beta, k))
    for x in _FROM_X_0_2:
        t = x * beta / (2.0 * math.pi)
        for got, want, bound in zip((ev.g(t).real, ev.gdot(t).real), reference(eta, gamma, beta, t), bounds):
            assert abs(got - want) <= bound * abs(want), (x, got, want)


# The cold baths a = 3183 (1, 2, 1e4) and a = 15915 (1, 0.5, 2e5): the oracle's (Re g, Re gdot) at x = 0.2, 1, 45/7
# and 60, recorded here because a point of a = 15915 takes it 14-40 s; 20 more digits moved none of them (at x = 0.2
# and 60).  Measured worst relative (g, gdot) on the 11 x above: a = 3183 (6.3e-14, 6.4e-14), was (2.3e-12, 3.2e-12),
# and on 33 x to 60 (1.2e-13, 1.1e-13), was (2.5e-12, 3.2e-12); a = 15915 (5.1e-12, 3.3e-12), was (5.1e-12, 5.2e-12),
# and on 33 x (5.1e-12, 5.2e-12), was (5.8e-12, 5.2e-12): with the pair, G1 is the closed form rate - pole_rest -
# m_rest less the live B_n, where S1(226) of the digamma sums left a = 3183 thirty times further off.  Pinned at about
# twice the measure on the 11 x
_COLD_ORACLE = {
    (1.0, 2.0, 1e4): (
        (1.3e-13, 1.3e-13),
        {
            0.2: (2.2393265640486595, 0.0010033360481409295),
            1.0: (2.764251086666686, 0.00021639538070023444),
            45.0 / 7.0: (3.7737215174211634, 0.00010032347355925772),
            60.0: (12.30039359133584, 0.0001),
        },
    ),
    (1.0, 0.5, 2e5): (
        (1.1e-11, 7e-12),
        {
            0.2: (11.0065092670972, 0.00020066626212328177),
            1.0: (13.106204462694464, 4.327906858938365e-05),
            45.0 / 7.0: (17.144086074840285, 2.006469470569206e-05),
            60.0: (51.25077437030356, 2e-05),
        },
    ),
}


@pytest.mark.parametrize("bath", list(_COLD_ORACLE), ids=["a 3183", "a 15915"])
def test_cold_baths_from_x_0_2_match_the_recorded_oracle(bath):
    bounds, values = _COLD_ORACLE[bath]
    eta, gamma, beta = bath
    ev = BrownianMatsubara(BathParams(eta, gamma, beta))
    for x, want in values.items():
        t = x * beta / (2.0 * math.pi)
        for got, w, bound in zip((ev.g(t).real, ev.gdot(t).real), want, bounds):
            assert abs(got - w) <= bound * abs(w), (x, got, w)


# The same cold baths below x = 0.2, where g and gdot are s0 S and s1 S' of the small-x sums: the oracle's (Re g, Re
# gdot) at x = 1e-3, 0.01, 0.1 and 0.19, recorded here as _COLD_ORACLE's are (a point of a = 15915 takes the oracle
# 3-7 s here); 20 more digits moved none of them.  C, the dead weight of gdot's capped sums, starts below x = 45 / (K
# + _BLOCK_CAP) = 2.2e-5 at K = 100 and is not added at these x.  Measured worst relative (g, gdot): a = 3183 (5.8e-14,
# 1.2e-13), a = 15915 (7.5e-14, 7.2e-13), both at x = 0.19.  Pinned at about twice the measure
_COLD_SMALL_X_ORACLE = {
    (1.0, 2.0, 1e4): (
        (1.2e-13, 2.5e-13),
        {
            1e-3: (0.5178744691115238, 0.22777827949756896),
            0.01: (1.2849110789625175, 0.020040127335778618),
            0.1: (2.0182908858492192, 0.0020017058720331994),
            0.19: (2.222947623915195, 0.00105580209784049),
        },
    ),
    (1.0, 0.5, 2e5): (
        (1.5e-13, 1.5e-12),
        {
            1e-3: (4.253203515602505, 0.04033322225448116),
            0.01: (7.190058265394196, 0.00400034931041656),
            0.1: (10.122375602767903, 0.00040033359361970754),
            0.19: (10.940993832392545, 0.00021115931443997673),
        },
    ),
}


@pytest.mark.parametrize("bath", list(_COLD_SMALL_X_ORACLE), ids=["a 3183", "a 15915"])
def test_cold_baths_below_x_0_2_match_the_recorded_oracle(bath):
    bounds, values = _COLD_SMALL_X_ORACLE[bath]
    eta, gamma, beta = bath
    ev = BrownianMatsubara(BathParams(eta, gamma, beta))
    for x, want in values.items():
        t = x * beta / (2.0 * math.pi)
        assert 45.0 / x < ev._k + _BLOCK_CAP  # no dead weight C
        for got, w, bound in zip((ev.g(t).real, ev.gdot(t).real), want, bounds):
            assert abs(got - w) <= bound * abs(w), (x, got, w)


def test_default_bath_at_x_0_25_is_within_an_ulp_or_so():
    # t = 0.04, x = 0.25: the K-term table's and the live tail's expm1 + y left Re g 27 ulp and Re gdot 21 ulp off the
    # oracle; the live terms with G1 and G0 leave 1 ulp and 0 (measured), pinned at 4 ulp
    want = reference(1.0, 0.5, 1.0, 0.04)
    ev = BrownianMatsubara(BATH)
    for got, w in zip((ev.g(0.04).real, ev.gdot(0.04).real), want):
        assert abs(got - w) <= 4.0 * math.ulp(w), (got, w)


@pytest.mark.parametrize("bath", [BATH, BathParams(1.3, 1.8, 933.0)], ids=["default", "beta-933"])
def test_exact_g_below_x_0_2_reads_no_tail_column(monkeypatch, bath):
    # below x = 0.2 the exact g and gdot read no live term: not the live terms' table, which they read from x = 0.2 on
    # (the exact engine has no K-term table to read)
    def refuse(*args):
        raise AssertionError("read a tail column")

    monkeypatch.setattr(DirichletTable, "live_terms", property(refuse))
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
    build = spectral._matsubara_nodes
    monkeypatch.setattr(spectral, "_matsubara_nodes", lambda *args: calls.append(args) or build(*args))
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
    group = spectral._SmallXSums._group
    monkeypatch.setattr(spectral._SmallXSums, "_group", lambda self: groups.append(1) or group(self))
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
    # S0 serves only g from x = 0.2 on, so a default-bath engine and its gdot never build its cubic tail; S1's own
    # series in 1 / n^2 they do build
    coefficients = spectral._zeta_tail_coefficients

    def refuse(a2, p):
        if p == 3:
            raise AssertionError("built the cubic tail of S0")
        return coefficients(a2, p)

    monkeypatch.setattr(spectral, "_zeta_tail_coefficients", refuse)
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
    engines = [BrownianMatsubara(bath), TruncatedMatsubara(bath), HighTemperatureBrownian(bath)]
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
    lambda: TruncatedMatsubara(BATH),
]
# repeats of these times, -0.0 against 0.0, two times 1e-9 apart, and either side of the warm tail's split 45 / 200 pi
_MEMO_POOL = st.sampled_from([0.0, -0.0, 0.05, 45.0 / (200.0 * math.pi), 0.3, 1.0, 1.0 + 1e-9, 2.5])
_POINTWISE_CALL = st.tuples(
    st.booleans(),
    st.lists(st.one_of(_MEMO_POOL, _MEMO_POOL, st.floats(0.05, 20.0)), min_size=1, max_size=3),
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
    # each value read through one long-lived evaluator by the routes that read its memos, g and gdot interleaved in the
    # order of the calls, against one array call of a fresh evaluator, which reads no memo
    for make in _MEMO_ENGINES:
        ev = make()
        got = {"g": ([], []), "gdot": ([], [])}
        for derivative, ts, as_float in calls:
            times, values = _memo_route(ev, derivative, ts, as_float)
            got_times, got_values = got["gdot" if derivative else "g"]
            got_times += times
            got_values += values
        for name, (times, values) in got.items():
            want = getattr(make(), name)(np.array(times))
            assert np.array(values, dtype=complex).tobytes() == want.tobytes()
        # and g's memo was in use whenever g was called, so its repeats were read from it, and it filled gdot's memo
        # at its times, from which gdot then read them
        assert len(ev._g_memo) > 0 or all(derivative for derivative, _, _ in calls)
        assert ev._g_memo.keys() <= ev._gdot_memo.keys()
        assert len(ev._gdot_memo) > 0


def _memo_route(ev, derivative, ts, as_float):
    """(times, values) of one call of the memo test on ev by a route that reads the memos: float calls where as_float or
    of one time, else, at its first two times t1 and t2, the two-interval route of g (_g_two_interval), which reads t1,
    t2 and t1 + t2, or gdot's through the pointwise rate of Prepared(t1) at t2, which reads t2 and t1 + t2."""
    if as_float or len(ts) == 1:
        return ts, [getattr(ev, "gdot" if derivative else "g")(s) for s in ts]
    t1, t2 = ts[:2]
    if not derivative:
        return [t1, t2, t1 + t2], _g_two_interval(ev, t1, t2)
    rate = decay_exponent_rate(ev, Prepared(t1), t2)
    values = [ev._gdot_memo[t2], ev._gdot_memo[t1 + t2]]
    assert rate == 2.0 * values[0].real - values[1].real
    return [t2, t1 + t2], values


def test_memo_is_bounded_and_skips_array_calls():
    ev = BrownianMatsubara(BATH)
    ts = np.linspace(0.1, 10.0, 2 * _MEMO_TIMES + 7).tolist()
    for i in range(0, len(ts) - 1, 2):
        # g at three new times, two of the grid's and their sum, as a two-interval kernel asks for them
        _g_two_interval(ev, ts[i], ts[i + 1])
        ev.gdot(ts[i])
        # and a gdot time of its own, which g's memo lacks, so gdot's memo fills faster
        ev.gdot(ts[i] + 1e-3)
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
    # a held float, and arrays of 1, 2 and 3 held times, which take the grid route past the memo, each against a fresh
    # engine's call of the same form
    for make in _MEMO_ENGINES:
        ev = make()
        for s in _HELD:
            ev.g(s)
            ev.gdot(s)
        for name in ("g", "gdot"):
            held = getattr(ev, name)
            for s in _HELD:
                assert np.array_equal(_bits(np.complex128(held(s))), _bits(np.complex128(getattr(make(), name)(s))))
            for size in (1, 2, 3):
                ts = np.array(_HELD[-size:])
                assert np.array_equal(_bits(held(ts)), _bits(getattr(make(), name)(ts)))


def test_memo_hits_skip_the_time_check(monkeypatch):
    # a held time was checked when it was stored, so a float call, a two-interval call or a pointwise rate of held times
    # reaches no check
    ev = BrownianMatsubara(BATH)
    for s in (*_HELD, 1.5):
        ev.g(s)

    def refuse(*args):
        raise AssertionError("a call of held times checked them")

    for name in ("_check_times", "_check_list"):
        monkeypatch.setattr(dephasing, name, refuse)
    monkeypatch.setattr(measures, "_check_times", refuse)
    for s in _HELD:
        ev.g(s)
        ev.gdot(s)
    _g_two_interval(ev, 1.0, 1.5)
    decay_exponent_rate(ev, Prepared(1.0), 1.5)
    with pytest.raises(AssertionError):  # a time the memo lacks is checked
        ev.g(0.7)
    with pytest.raises(AssertionError):  # and so is an array, held times or not: it takes the grid route
        ev.g(np.array([1.0]))


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
    # a two-interval call at t1 = 0.3 and t2 = 1.0, where g's memo holds 1.0, then the rate of Prepared(1.2) at t12
    t12, t_new = 0.3 + 1.0, 1.2 + (0.3 + 1.0)
    want_g = BrownianMatsubara(BATH).g(np.array([0.3, 1.0, t12]))
    want_gdot = BrownianMatsubara(BATH).gdot(np.array([t12, t_new]))
    ev = BrownianMatsubara(BATH)
    ev.g(1.0)
    held, held_gdot = ev._g_memo[1.0], ev._gdot_memo[1.0]
    rows = _count_rows(monkeypatch)
    g = _g_two_interval(ev, 0.3, 1.0)
    # each new time runs one row step, whose g and gdot the memos hold
    assert rows == [(0.3, True, True), (t12, True, True)]
    assert list(ev._g_memo) == list(ev._gdot_memo) == [1.0, 0.3, t12]
    assert ev._g_memo[1.0] is held and ev._gdot_memo[1.0] is held_gdot
    assert np.array_equal(_bits(np.array(g)), _bits(want_g))
    # the rate of Prepared(1.2) at t12 reads gdot's memo at t12 and takes one row of gdot's half alone at its new
    # 1.2 + t12; g's new time where gdot's memo holds it takes one row of g's half alone, which leaves the held gdot in
    # place
    decay_exponent_rate(ev, Prepared(1.2), t12)
    assert rows[2:] == [(t_new, False, True)]
    assert list(ev._gdot_memo) == [1.0, 0.3, t12, t_new] and list(ev._g_memo) == [1.0, 0.3, t12]
    held_gdot = ev._gdot_memo[t_new]
    ev.g(t_new)
    assert rows[3:] == [(t_new, True, False)] and ev._gdot_memo[t_new] is held_gdot
    assert np.array_equal(_bits(np.array([ev._gdot_memo[t12], held_gdot])), _bits(want_gdot))


def test_a_curve_runs_each_time_once(monkeypatch):
    # a 1 000-point Prepared(t1) curve in seven segments, each the decay exponent at its float times and then their
    # rates, as param_sweep asks for them; its 2 000 times overfill the 1 024-time memos, whose older half leaves, so
    # that each rate finds the gdot that its segment's exponent left in gdot's memo
    ev = BrownianMatsubara(BATH)
    scenario = Prepared(1.0)
    ts = np.linspace(0.0, 10.0 / BATH.gamma, 1000)
    rows = _count_rows(monkeypatch)
    bounds = np.linspace(0, ts.size, 8).astype(int).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        segment = ts[lo:hi].tolist()
        for t in segment:
            decay_exponent(ev, scenario, t)
        for t in segment:
            decay_exponent_rate(ev, scenario, t)
    counts = collections.Counter(t for t, _, _ in rows)
    assert len(counts) > _MEMO_TIMES
    # one row step a time, but for t1, which every point reads: it leaves with an older half and runs again
    assert counts.pop(scenario.t1) <= 1 + len(rows) // (_MEMO_TIMES // 2)
    assert set(counts.values()) == {1}


def test_g_miss_where_gdot_is_held_builds_and_runs_g_half_alone(monkeypatch):
    # a g call whose new times gdot's memo all holds takes neither gdot's live sums nor gdot's half of the row: one
    # live-sum step of g's half alone and one row per time
    ev = BrownianMatsubara(BATH)
    for s in (0.7, 2.5):
        ev.gdot(s)
    held = dict(ev._gdot_memo)
    calls = []
    sum_at = BrownianMatsubara._sum_at

    def counted(self, s, g, gdot):
        calls.append((s, g, gdot))
        return sum_at(self, s, g, gdot)

    monkeypatch.setattr(BrownianMatsubara, "_sum_at", counted)
    rows = _count_rows(monkeypatch)
    g = _g_two_interval(ev, 0.7, 2.5)
    # 0.7 + 2.5, which gdot's memo lacks, takes both halves
    assert calls == rows == [(0.7, True, False), (2.5, True, False), (0.7 + 2.5, True, True)]
    assert all(ev._gdot_memo[s] is v for s, v in held.items())
    assert np.array_equal(_bits(np.array(g)), _bits(BrownianMatsubara(BATH).g(np.array([0.7, 2.5, 0.7 + 2.5]))))


def test_joint_row_shares_the_pair_divided_differences_with_g_alone_bits(monkeypatch):
    # a row that takes both halves hands gdot's E and its expm1(-lo t) to g's divided difference H, from hi t = 1/2
    # on: g must keep the bits of a g-alone row whose H computes both itself, on either side of 1/2, with the pole below
    # nu_m (a = 0.95, 1.001, 5.5) and above it (a = 267, where lo is nu_m), below x = 0.2 as from it
    def own(lo, hi, t, dd=None, em=None):
        return spectral._h_divided_difference(lo, hi, t)

    baths = (BathParams(0.5, 1.2, 5.0), BathParams(1.0, 6.2894, 1.0), BathParams(5.4, 1.55, 22.3, 25))
    for bath in baths + (BathParams(1.3, 1.8, 933.0),):
        ev = BrownianMatsubara(bath)
        lo, hi = ev._pair[3:]
        for t in (0.1 / hi, 0.49 / hi, 0.5 / hi, 2.0 / hi, 0.5, 3.0, 40.0):
            g_sums, gdot_sums = ev._sums([t], True, True)
            joint = ev._row(t, g_sums[0], gdot_sums[0])
            with monkeypatch.context() as m:
                m.setattr(dephasing, "_h_divided_difference", own)
                alone = ev._row(t, g_sums[0], None)[0]
            assert _bits(np.array([joint[0]])).tolist() == _bits(np.array([alone])).tolist(), (bath, t)
            assert joint[1] == ev._row(t, None, gdot_sums[0])[1]


def test_repeated_pointwise_gdot_runs_its_row_once(monkeypatch):
    # a gdot time asked for twice, as crosscheck asks for half of its pointwise analytic gdot times, is read from the
    # memo the second time, as a float and by the pointwise rate
    rows = _count_rows(monkeypatch)
    for bath in (BATH, BathParams(1.3, 1.8, 933.0)):
        ev = BrownianMatsubara(bath)
        first = ev.gdot(1.0)
        assert ev.gdot(1.0) is first
        # gdot at 1.0, held, and at 2.0, new
        assert decay_exponent_rate(ev, Prepared(1.0), 1.0) == 2.0 * first.real - ev.gdot(2.0).real
        decay_exponent_rate(ev, Prepared(1.0), 1e-3)
        ev.gdot(1e-3)
        ev.gdot(1.0 + 1e-3)
        decay_exponent_rate(ev, Prepared(1.0), 1.0)
        assert [t for t, _, _ in rows] == [1.0, 2.0, 1e-3, 1.0 + 1e-3]
        rows.clear()


def _memo_items(ev) -> list:
    """(time, id of the value) of every entry of ev's g memo, then of its gdot memo."""
    return [(t, id(v)) for memo in (ev._g_memo, ev._gdot_memo) for t, v in memo.items()]


def test_array_of_up_to_three_times_leaves_the_memos_alone(monkeypatch):
    # an array of 1 to 3 times takes the grid route, as a larger one does: the row step of the half it asks for at
    # every time, held or not, both memos left as they were, and the bits of the same float calls on a fresh engine
    for make in _MEMO_ENGINES:
        ev = make()
        for s in _HELD[:2]:
            ev.g(s)
        held = _memo_items(ev)
        for name in ("g", "gdot"):
            for ts in ([0.3], [1.0, 0.7], [0.7, 0.3, 0.05]):
                fresh = make()
                want = np.array([getattr(fresh, name)(s) for s in ts])
                with monkeypatch.context() as m:
                    rows = _count_rows(m)
                    got = getattr(ev, name)(np.array(ts))
                assert rows == [(s, name == "g", name == "gdot") for s in ts]
                assert _memo_items(ev) == held
                assert np.array_equal(_bits(got), _bits(want))


class _CountingNumpy:
    """numpy as dephasing and spectral read it, with the sizes of the arrays that its expm1 calls take gathered in
    expm1_sizes."""

    def __init__(self):
        self.expm1_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def expm1(self, x, *args, **kwargs):
        self.expm1_sizes.append(np.size(x))
        return np.expm1(x, *args, **kwargs)


def test_new_pointwise_time_shares_its_exponentials_between_g_and_gdot(monkeypatch):
    # a g miss runs one row step for g and gdot, which share its exponentials: below x = 0.2 one expm1 over the nodes,
    # from there one expm1 over the time's L live terms, or none where L <= 32 sums them on Python floats
    rows = _count_rows(monkeypatch)
    counting = _CountingNumpy()
    monkeypatch.setattr(dephasing, "np", counting)
    monkeypatch.setattr(spectral, "np", counting)
    ev = BrownianMatsubara(BathParams(1.3, 1.8, 933.0))
    ev.g(1.0)
    assert counting.expm1_sizes == [ev._table.small_x._nodes.size]
    assert ev.gdot(1.0) is ev._gdot_memo[1.0] and rows == [(1.0, True, True)]
    # K = 25 on a = 5.5: the times' L, ceil(45 beta / (2 pi t)), are 160, 80 and 32, past K
    bath = BathParams(5.4, 1.55, 22.3, 25)
    ev = BrownianMatsubara(bath)
    times = [1.0, 2.0, 5.0]
    stops = [math.ceil(45.0 * bath.beta / (2.0 * math.pi * t)) for t in times]
    assert stops == [160, 80, 32]
    tails = []
    tail_sums = type(ev._table).tail_sums
    monkeypatch.setattr(type(ev._table), "tail_sums", lambda self, *a: tails.append(a) or tail_sums(self, *a))
    counting.expm1_sizes.clear()
    for t in times:
        ev.g(t)
    # one tail_sums for the engine's G0 (its G1 is the pair's closed form), and one row of L terms per time past
    # _LIVE_FLOATS: none for the third
    assert tails == [()]
    assert counting.expm1_sizes == stops[:2]
    gdot = [ev.gdot(t) for t in times]
    assert len(tails) == 1 and rows[1:] == [(t, True, True) for t in times]
    assert np.array(gdot).tobytes() == BrownianMatsubara(bath).gdot(np.array(times)).tobytes()
    # x >= 45 / 32 on the default bath (t >= 0.224): L <= 32 terms on Python floats, and no numpy expm1
    ev = BrownianMatsubara(BATH)
    counting.expm1_sizes.clear()
    for t in (0.224, 0.5, 1.05, 2.0, 50.0):
        ev.g(t)
        ev.gdot(2.0 * t)
    assert counting.expm1_sizes == []


# the least x = 2 pi t / beta at which no K >= 0 adds _dead_weight's C, 45 / _BLOCK_CAP, with a margin for rounding
_C_FREE_X = 45.0 / _BLOCK_CAP * (1.0 + 1e-12)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    eta=st.floats(-1.0, 1.0).map(lambda v: 10.0**v),
    gamma=st.floats(0.01, 3.0),
    beta=st.floats(-1.0, 3.0).map(lambda v: 10.0**v),
    xs=st.lists(st.floats(math.log10(_C_FREE_X), math.log10(80.0)).map(lambda v: 10.0**v), min_size=1, max_size=5),
)
@example(1.0, 0.5, 1.0, [0.2, 45.0 / 33.0, 45.0 / 32.0, 45.0 / 7.0, 60.0])
@example(1.3, 1.8, 933.0, [_C_FREE_X, 1e-3, 0.2, 0.25, 6.0])
def test_exact_g_and_gdot_from_x_0_2_read_no_k(eta, gamma, beta, xs):
    # from x = 0.2 on, the exact engine sums its live terms n <= L and two per-bath constants, and below it
    # _MatsubaraG's sum: no K term, so every K gives the same bits, pointwise and in an array, wherever gdot adds no C
    # (x >= 45 / (K + _BLOCK_CAP) for every K); t_direct itself is the first time that reads the live terms
    ts = [x * beta / (2.0 * math.pi) for x in xs] + [BrownianMatsubara(BathParams(eta, gamma, beta))._t_direct]
    array = np.array(ts)
    want = {name: getattr(BrownianMatsubara(BathParams(eta, gamma, beta, 0)), name)(array) for name in ("g", "gdot")}
    for k in (1, 25, 100, 400):
        bath = BathParams(eta, gamma, beta, k)
        for name in ("g", "gdot"):
            assert _bits(getattr(BrownianMatsubara(bath), name)(array)).tolist() == _bits(want[name]).tolist()
            f = getattr(BrownianMatsubara(bath), name)
            assert _bits(np.array([f(t) for t in ts])).tolist() == _bits(want[name][: len(ts)]).tolist()


def test_exact_constructor_reads_no_k(monkeypatch):
    # the exact engine's largest time comes from closed forms, the B_n sum to the rate and max(gamma, nu_1, nu_m):
    # its constructor calls no tail_sums and reads no K-term table, and every K gives the same bound
    tails = []
    tail_sums = DirichletTable.tail_sums
    monkeypatch.setattr(DirichletTable, "tail_sums", lambda self, *a: tails.append(a) or tail_sums(self, *a))

    def refuse(self):
        raise AssertionError("read the K terms")

    monkeypatch.setattr(DirichletTable, "explicit", property(refuse))
    baths = [*_PINNED_BATHS.values(), (0.5, 1.2, 5.0), (2.0, 0.3, 0.3)]
    for eta, gamma, beta in baths:
        t_maxes = {BrownianMatsubara(BathParams(eta, gamma, beta, k))._t_max for k in (0, 1, 25, 100, 400, 10**6)}
        assert len(t_maxes) == 1 and tails == []
    monkeypatch.undo()
    # that bound is sound: g, gdot and the flip exponent stay finite up to it, with no warning
    for eta, gamma, beta in baths:
        ev = BrownianMatsubara(BathParams(eta, gamma, beta))
        t = ev._t_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [f(s) for f in (ev.g, ev.gdot) for s in (t, 0.5 * t)]
            values.append(flip_exponent(ev.g(0.5 * t), ev.g(0.5 * t), ev.g(t)))
        assert all(cmath.isfinite(v) for v in values), (eta, gamma, beta, t, values)


def test_memo_first_calls_convert_and_raise_as_the_time_check_does():
    ev = BrownianMatsubara(BATH)
    for s in _HELD:
        ev.g(s)
        ev.gdot(s)
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
# Re gdot below x = 0.2 on g's nodes, and gdot at every pinned time, which its 2-million-term block kept out; last: the
# exact g and gdot from x = 0.2 on, when they took their live terms and G1 and G0 in place of the K terms and the
# digamma rest, 197 of 4000 values of the exact engines by at most 2.9e-13 relative; strict truncation and every value
# below x = 0.2 kept their bits; last: Re g and Re gdot below x = 0.2, when g's nodes took L's rule, panels 2 wide and
# five Euler-Maclaurin corrections: 536 of the 6960 values hashed, by at most 6.7e-15 relative; last: when every B_n
# took the one row d_n = (n - a)(n + a) and c_n = B_n / nu_n: 672 of the 6960 values, Re parts only, by at most 1.5e-14
# relative, the exact engine on beta 933 from x = 0.2 on, and 8.4e-16 in strict truncation; last: when S's Taylor
# groups below x = 0.2 became one Horner polynomial: 308 of the 27 840 real and imaginary parts, Re g only, by at most
# 3.2e-16 relative)
_PINNED_DIGEST = "aa240b1d116ce14074cd2d9569174da871691fa92dbdc74c1555c4eafe7886ec"
# numpy picks its expm1 and exp kernels by CPU, and the digests hold only where expm1, row sums and exp (the analytic
# L's n^-5 series) give these bits
_PINNED_KERNEL = "ab18a038cefce15e5d6b6324fbe363f4e0123f06e3e7fcc36a8273a77e622c05"
_PINNED_EXP = "3540e25f77aa1f4a993f2938cdb4dc45def29cc4db2b45a714edd46316d26de8"


def _pinned_cases():
    """(bath, engine class) of every engine the digest covers."""
    for eta, gamma, beta in _PINNED_BATHS.values():
        for k in (0, 1, 25, 100):
            for engine in (BrownianMatsubara, TruncatedMatsubara):
                yield BathParams(eta, gamma, beta, k), engine


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
    for bath, engine in _pinned_cases():
        whole, single, triple = (engine(bath) for _ in range(3))
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


@pytest.mark.parametrize(
    "bath", [BATH, BathParams(1.0, 0.5, 0.01), BathParams(1.3, 1.8, 933.0)], ids=["default", "hot", "beta 933"]
)
def test_time_quad_raises_past_its_largest_rate_time(bath):
    # past max(gamma, 2 pi / beta) t of some multiple of 2500 the adaptive rule on [0, t] misses L's narrow part and
    # returned wrong values with no error (Re g(5e5) = 1.9e-109 on the default bath, where the series gives 2.0e6); at
    # the bound's side it still holds 1e-6 against the series, and just past it raises
    tq = make_evaluator("time-quad", bath)
    exact = BrownianMatsubara(bath)
    t_max = 2500.0 / max(bath.gamma, 2.0 * math.pi / bath.beta)
    inside, past = 0.99 * t_max, math.nextafter(t_max, math.inf)
    for name in ("g", "gdot"):
        got, want = getattr(tq, name)(inside), getattr(exact, name)(inside)
        for part in ("real", "imag"):
            assert getattr(got, part) == pytest.approx(getattr(want, part), rel=1e-6), (name, part)
        for times in (past, np.array([1.0, past])):
            with pytest.raises(DephaserError, match=re.escape(f"time {past!r} is past the validated domain of time-quad")):
                getattr(tq, name)(times)


def test_bad_time_in_array_rejected_like_a_scalar():
    # every engine checks a float on Python floats, and an array of any size by numpy reductions
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
    # valid times whose sum overflows pass the check
    ts, scalar = _check_times(np.array([1e308, 1e308, 0.0]))
    assert ts.tolist() == [1e308, 1e308, 0.0] and not scalar


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
        # strict truncation sums no tail, and its K terms need neither amplitude, but the remainder it drops is that
        # tail: it was nan
        strict = TruncatedMatsubara(bath)
        assert np.isfinite(strict.g(1.0)) and np.isfinite(strict.gdot(1.0))
        with pytest.raises(DephaserError, match=re.escape(f"{what} = inf overflows")):
            strict.matsubara_remainder(1.0)


def test_overflowing_strict_coefficient_raises():
    # c_1 = B_1 / nu_1, about 1.15 eta / gamma on a = 1.5, overflows where eta / gamma = 1.6e308 and every amplitude
    # the constructor checks do not
    bath = BathParams(1.6e300, 1e-8, 3.0 * math.pi / 1e-8)
    with pytest.raises(DephaserError, match="a coefficient c_n or B_n overflows"):
        TruncatedMatsubara(bath)


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: BrownianMatsubara(BathParams(1e300, 0.5, 1.0)), 1e10),  # Re g and Im g overflow
        (lambda: HighTemperatureBrownian(BathParams(1e300, 0.5, 1.0)), 1e10),
        (lambda: TruncatedMatsubara(BathParams(1e300, 0.5, 1.0)), 1e10),
        (lambda: BrownianMatsubara(BATH), 1e307),  # (|C| + eta) t = 5e307 is past a quarter of the largest float
        (lambda: HighTemperatureBrownian(BATH), 1e308),  # Re g overflows
        (lambda: HighTemperatureBrownian(BathParams(1e8, 0.001, 1e8)), 1e300),  # 2 Im g overflows
        # eta times the unit-coupling Re g overflows, and w_split t = 1e308 made math.sin raise ValueError
        (lambda: make_evaluator("freq-quad", BathParams(1e300, 0.5, 1.0)), 1e10),
        (lambda: make_evaluator("freq-quad", BATH), 1e307),
    ],
    ids=["analytic", "hight", "strict", "analytic-default", "hight-default", "hight-flip", "freq-quad", "freq-quad-default"],
)
def test_huge_time_raises_dephaser_error(make, t):
    # each returned inf (or a g whose flip exponent overflows) behind at most a RuntimeWarning
    ev = make()
    for fn in (ev.g, ev.gdot):
        for times in (t, np.array([t]), np.array([0.0, 1.0, t]), np.array([t] + [1.0] * 5)):
            with pytest.raises(DephaserError, match=re.escape(f"time {t!r} is past ")):
                fn(times)


def test_live_terms_on_a_hot_bath_match_the_oracle_at_every_k():
    # beta 6e-152: nu_n^2 overflows from n = 129, so the live terms' B_n and c_n of nu_n^2 - gamma^2 raised
    # DephaserError from x = 0.2 on at every K; from d_n = (n - a)(n + a) they are finite, and the exact g and gdot
    # match the oracle, alone and in arrays (measured: 1.4e-16 relative, hight's closed form within its rounding)
    beta = 6e-152
    strict = TruncatedMatsubara(BathParams(1.0, 0.5, beta, 5))
    for x in (0.2, 9.0, 45.0):
        t = x * beta / (2.0 * math.pi)
        want = reference(1.0, 0.5, beta, t)
        for k in (0, 5, 100):
            exact = BrownianMatsubara(BathParams(1.0, 0.5, beta, k))
            for times in (t, np.array([t] * 5)):
                for got, w in zip((exact.g(times).real, exact.gdot(times).real), want):
                    assert np.all(np.abs(got - w) <= 3e-16 * abs(w)), (x, k, got, w)
        assert strict.g(t).real > 0.0  # strict truncation reads only its K terms


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
        (lambda: BrownianMatsubara(BathParams(0.18, 1.6e-153, 1.8e156)), "eta gamma beta^2 / (2 pi^3) = inf"),
    ],
    ids=["hight-gamma^2", "L-a_max", "analytic-a", "L-a", "analytic-a^2", "analytic-gamma^2", "analytic-beta^2"],
)
def test_overflowing_bath_powers_raise_dephaser_error(make, what):
    # Python's float ** raises OverflowError where * gives inf, and round(a) raised it at a = inf: untyped errors
    with pytest.raises(DephaserError, match=re.escape(what)):
        make()


def test_subnormal_coupling_raises_dephaser_error():
    # C = 2 eta / (beta gamma) = 4e-318: the growth end was 0.623652913284209, 1.3e-3 off, and N was 0.0
    for engine in (BrownianMatsubara, TruncatedMatsubara):
        with pytest.raises(DephaserError, match=re.escape("2 eta / (beta gamma) = 3.999995e-318 leaves the normal")):
            engine(BathParams(1e-318, 0.5, 1.0))


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


def test_freq_quad_integrates_at_unit_coupling_and_scales_by_eta():
    # every freq-quad integrand is linear in eta, so g and gdot are eta times the integrals at eta = 1: within a few ulp
    # of eta times the unit-coupling values where those converge, and the unit coupling's IntegrationError where they do
    # not (gamma 0.5, beta 1e-3), where a small eta used to pass _quadrature's absolute test with Re gdot's sign wrong
    ulp = 2.0**-52
    for gamma, beta in ((0.5, 1.0), (1.3, 100.0), (1.2, 0.2)):
        unit = make_evaluator("freq-quad", BathParams(1.0, gamma, beta))
        for eta in (1e-100, 1e-300):
            ev = make_evaluator("freq-quad", BathParams(eta, gamma, beta))
            for name in ("g", "gdot"):
                for t in (0.3, 2.0):
                    got, want = getattr(ev, name)(t), eta * getattr(unit, name)(t)
                    for part in ("real", "imag"):
                        assert math.isclose(getattr(got, part), getattr(want, part), rel_tol=4 * ulp), (eta, name, t)
    hot = make_evaluator("freq-quad", BathParams(1.0, 0.5, 1e-3))
    for name in ("g", "gdot"):
        with pytest.raises(IntegrationError) as unit_error:
            getattr(hot, name)(1.0)
        for eta in (1e-100, 1e-300):
            with pytest.raises(IntegrationError, match=re.escape(str(unit_error.value))):
                getattr(make_evaluator("freq-quad", BathParams(eta, 0.5, 1e-3)), name)(1.0)


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
