"""Spectral densities and the bath correlation function."""

import math
import warnings

import numpy as np
import pytest

from dephaser.errors import ExtrapolationError
from dephaser.spectral import (
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    correlation_function,
    coth,
    trilog_exp,
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


def test_trilog_known_value_and_branch_continuity():
    # Li_3(1/2) = 7 zeta(3)/8 - pi^2 ln 2 / 12 + ln^3 2 / 6
    zeta3 = 1.2020569031595942854
    ref = 7.0 * zeta3 / 8.0 - math.pi**2 * math.log(2.0) / 12.0 + math.log(2.0) ** 3 / 6.0
    assert trilog_exp(math.log(2.0)) == pytest.approx(ref, rel=1e-14)
    # the two evaluation branches meet at x = 1; the true slope there is
    # -Li_2(1/e), so a 1e-12 straddle moves the value by under 1e-12
    assert trilog_exp(1.0 - 1e-12) == pytest.approx(trilog_exp(1.0 + 1e-12), abs=2e-12)
    assert trilog_exp(1e-10) == pytest.approx(zeta3, rel=1e-9)


def test_correlation_analytic_matches_quadrature():
    sd = OverdampedBrownian(BATH)
    for t in (0.1, 1.0, 5.0):
        a = correlation_function(sd, BATH.beta, t, route="analytic")
        q = correlation_function(sd, BATH.beta, t, route="quadrature")
        assert abs(a - q) / abs(q) < 1e-9


def test_correlation_zero_time_truncated_with_warning():
    sd = OverdampedBrownian(BATH)
    with pytest.warns(RuntimeWarning):
        v = correlation_function(sd, BATH.beta, 0.0)
    assert v.imag == 0.0
    assert v.real > 0.0
    with pytest.warns(RuntimeWarning):
        vq = correlation_function(sd, BATH.beta, 0.0, route="quadrature")
    assert vq.imag == 0.0


def test_correlation_imag_jump_at_origin():
    # Im L(0) = 0 by oddness, but Im L(0+) = -eta gamma
    sd = OverdampedBrownian(BATH)
    v = correlation_function(sd, BATH.beta, 1e-9)
    assert v.imag == pytest.approx(-BATH.eta * BATH.gamma, rel=1e-8)


def test_detailed_balance_ordering_at_origin():
    sd = OverdampedBrownian(BATH)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hot = correlation_function(sd, 0.5, 0.0).real
        cold = correlation_function(sd, 1.0, 0.0).real
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
        BrownianCorrelation(1.0, 0.5, 1.0)(-1.0)


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
    assert correlation_function(tab, BATH.beta, 0.0).imag == 0.0
