"""Trace-distance growth and the non-Markovianity measure."""

import math

import numpy as np
import pytest

from dephaser.dephasing import BrownianMatsubara, FrequencyQuadrature, HighTemperatureBrownian
from dephaser.dynamics import (
    DensityMatrix2,
    SystemParams,
    coherence_flip,
    propagate_two_time,
    trace_distance,
)
from dephaser.measures import (
    AnalyticPair,
    GridSearch,
    Prepared,
    SingleTime,
    StatePair,
    analytic_pair,
    decay_exponent,
    decay_exponent_rate,
    growth_intervals,
    non_markovianity,
    pair_distance,
    sigma,
)
from dephaser.spectral import BathParams, OverdampedBrownian, TabulatedSpectralDensity

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
    with pytest.raises(ValueError):
        non_markovianity(SYS, ht, SingleTime(), t_max=10.0, n_scan=3)
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
