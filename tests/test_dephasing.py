"""Lineshape function engines: agreement, limits, truncation, resonance."""

import json
import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from _oracle import reference, reference_with_bounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dephaser
from dephaser.dephasing import (
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    _MEMO_CALL,
    _MEMO_TIMES,
    _time_list,
    make_evaluator,
)
from dephaser.errors import DephaserError, ResonanceError
from dephaser.measures import Prepared, SingleTime, decay_exponent_rate
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
def test_memo_never_changes_a_bit(calls):
    # each value read through one long-lived evaluator, against one array call of a fresh evaluator past the memo
    for make in _MEMO_ENGINES:
        ev = make()
        for name in ("g", "gdot"):
            times = [t for derivative, ts, _ in calls if derivative == (name == "gdot") for t in ts]
            padded = np.array(times + [0.7] * (_MEMO_CALL + 1))
            want = iter(getattr(make(), name)(padded)[: len(times)].tolist())
            for derivative, ts, as_float in calls:
                if derivative != (name == "gdot"):
                    continue
                if as_float and len(ts) == 1:
                    got = [getattr(ev, name)(ts[0])]
                else:
                    got = getattr(ev, name)(np.array(ts)).tolist()
                assert np.array(got).tobytes() == np.array([next(want) for _ in ts]).tobytes()
        # and the memo was in use, so the repeats were read from it
        assert len(ev._g_memo) + len(ev._gdot_memo) > 0


def test_memo_is_bounded_and_skips_array_calls():
    ev = BrownianMatsubara(BATH)
    ts = np.linspace(0.1, 10.0, 2 * _MEMO_TIMES + 7)
    for i in range(0, ts.size, _MEMO_CALL):
        ev.g(ts[i : i + _MEMO_CALL])
        ev.gdot(float(ts[i]))
        assert 0 < len(ev._g_memo) <= _MEMO_TIMES and 0 < len(ev._gdot_memo) <= _MEMO_TIMES
    # an array call larger than a pointwise one neither reads the memo nor fills it
    fresh = BrownianMatsubara(BATH)
    grid = np.linspace(0.0, 10.0, 1000)
    fresh._g_memo[float(grid[1])] = fresh._gdot_memo[float(grid[1])] = 1234j
    g, gdot = fresh.g(grid), fresh.gdot(grid)
    assert 1234j not in g and 1234j not in gdot
    assert list(fresh._g_memo) == list(fresh._gdot_memo) == [float(grid[1])]


def test_bad_time_in_array_rejected_like_a_scalar():
    # hight checks an array by numpy reductions; the other engines check the list of times they step through
    for ev in brownian_engines():
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as scalar_error:
                ev.gdot(bad)
            # the bad time first, in the middle or last of three, and ahead of another bad time
            for times in ([bad, 0.1, 2.0], [0.1, bad, 2.0], [0.1, 2.0, bad], [0.1, bad, -1.0], [0.1, bad, math.nan]):
                with pytest.raises(ValueError) as array_error:
                    ev.gdot(np.array(times))
                assert str(array_error.value) == str(scalar_error.value)
        with pytest.raises(ValueError, match="1-d"):
            ev.g(np.ones((2, 2)))
    # valid times whose sum overflows pass the list check
    _, times, scalar = _time_list(np.array([1e308, 1e308, 0.0]))
    assert times == [1e308, 1e308, 0.0] and not scalar


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
