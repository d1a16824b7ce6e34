"""Lineshape function engines: agreement, limits, truncation, resonance."""

import math

import numpy as np
import pytest

from dephaser.dephasing import (
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    make_evaluator,
)
from dephaser.errors import ResonanceError
from dephaser.spectral import BathParams, OverdampedBrownian, TabulatedSpectralDensity

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


def test_resonant_pole_matches_quadrature():
    # gamma sits exactly on the second thermal frequency: a = beta gamma / 2 pi = 2
    beta = 4.0 * math.pi
    p = BathParams(eta=1.0, gamma=1.0, beta=beta, matsubara_terms=50)
    ana = BrownianMatsubara(p)
    frq = FrequencyQuadrature(OverdampedBrownian(p), beta)
    tdq = TimeDomainQuadrature(OverdampedBrownian(p), beta)
    assert ana.res_index == 2
    for t in (0.3, 1.0, 3.0):
        assert abs(ana.g(t) - frq.g(t)) / abs(frq.g(t)) < 1e-10
        assert abs(tdq.g(t) - frq.g(t)) / abs(frq.g(t)) < 1e-10
        assert abs(ana.gdot(t) - frq.gdot(t)) / abs(frq.gdot(t)) < 1e-9


def test_resonant_pole_needs_enough_terms():
    beta = 4.0 * math.pi
    with pytest.raises(ResonanceError, match="matsubara_terms"):
        BrownianMatsubara(BathParams(eta=1.0, gamma=1.0, beta=beta, matsubara_terms=1))


def test_near_resonant_detunings():
    beta = 4.0 * math.pi
    # inside the degeneracy window: limit formulas take over
    p_in = BathParams(eta=1.0, gamma=1.0 + 1e-9, beta=beta, matsubara_terms=50)
    ana_in = BrownianMatsubara(p_in)
    assert ana_in.res_index == 2
    frq_in = FrequencyQuadrature(OverdampedBrownian(p_in), beta)
    assert abs(ana_in.g(1.0) - frq_in.g(1.0)) / abs(frq_in.g(1.0)) < 1e-7
    # outside the window: the direct series must survive the cancellation
    p_out = BathParams(eta=1.0, gamma=1.0 + 1e-5, beta=beta, matsubara_terms=50)
    ana_out = BrownianMatsubara(p_out)
    assert ana_out.res_index == 0
    frq_out = FrequencyQuadrature(OverdampedBrownian(p_out), beta)
    assert abs(ana_out.g(1.0) - frq_out.g(1.0)) / abs(frq_out.g(1.0)) < 1e-7


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
