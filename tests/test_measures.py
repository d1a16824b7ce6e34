"""Trace-distance growth and the non-Markovianity measure."""

import cmath
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dephasing import _skip_off_the_pinned_kernel

import dephaser
from dephaser.dephasing import (
    _LIVE_FLOATS,
    ENGINE_NAMES,
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    TruncatedMatsubara,
    make_evaluator,
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
    decay_exponent_rate,
    growth_intervals,
    non_markovianity,
    pair_distance,
    sigma,
)
from dephaser.response import echo_response, flip_exponent_grid
from dephaser.spectral import (
    BathParams,
    DirichletTable,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    _exp_divided_difference,
)

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


_ENGINES_OF_BATH = {
    "hight": HighTemperatureBrownian,
    "analytic": BrownianMatsubara,
    "strict": TruncatedMatsubara,
    "time-quad": lambda bath: TimeDomainQuadrature(OverdampedBrownian(bath), bath.beta),
    "freq-quad": lambda bath: FrequencyQuadrature(OverdampedBrownian(bath), bath.beta),
}


@pytest.mark.parametrize("name", list(_ENGINES_OF_BATH))
def test_no_preparation_has_the_bits_of_one_free_interval(name):
    # Prepared(0.0), which SingleTime() returns, is E = 2 g(0) + 2 g(t) - g(0 + t) and dE/dt = 2 gdot(t) - gdot(0 + t):
    # Re g(t) and Re gdot(t) with no rounding, alone and in arrays (five times with a repeat, and two, which the time
    # check lists)
    ev = _ENGINES_OF_BATH[name](BATH)
    ts = np.array([0.0, 0.3, 1.7, 0.3, 4.0])
    g, gdot = ev.g(ts).real, ev.gdot(ts).real
    assert SingleTime() == Prepared(0.0)
    for scenario in (Prepared(0.0), Prepared(-0.0)):
        for t, want_e, want_rate in zip(ts.tolist(), g.tolist(), gdot.tolist()):
            assert decay_exponent(ev, scenario, t).hex() == want_e.hex()
            assert decay_exponent_rate(ev, scenario, t).hex() == want_rate.hex()
        for times in (ts, ts[1:3]):
            assert decay_exponent(ev, scenario, times).tobytes() == ev.g(times).real.tobytes()
            assert decay_exponent_rate(ev, scenario, times).tobytes() == ev.gdot(times).real.tobytes()


class _Asked:
    """HighTemperatureBrownian's g and gdot behind no memo, with the times of every call; certified or not."""

    def __init__(self, certified: bool):
        self._ev = HighTemperatureBrownian(BATH)
        self.bath = BATH
        self.certified_bath = BATH if certified else None
        self.calls = []

    def g(self, t):
        self.calls.append(np.atleast_1d(t).tolist())
        return self._ev.g(t)

    def gdot(self, t):
        self.calls.append(np.atleast_1d(t).tolist())
        return self._ev.gdot(t)


@pytest.mark.parametrize("certified", [True, False], ids=["certified", "scanned"])
def test_an_evaluator_without_a_memo_is_asked_for_each_time_once(certified):
    # every call of E, its rate, the kernels and the measure asks g or gdot for distinct times only: t1 = 0 makes t1 +
    # t = t, t = 0 makes t1 + t = t1, and the scan's t1 + t meet its grid
    ev = _Asked(certified)
    ts = np.linspace(0.0, 10.0, 1001)
    for scenario in (Prepared(0.0), Prepared(1.0)):
        for t in (0.0, 1.0, 2.5):
            decay_exponent(ev, scenario, t)
            decay_exponent_rate(ev, scenario, t)
            sigma(analytic_pair(), ev, scenario, t)
        decay_exponent(ev, scenario, ts)
        decay_exponent_rate(ev, scenario, ts)
        non_markovianity(SYS, ev, scenario, t_max=10.0)
        growth_intervals(ev, scenario, t_max=10.0)
    for t1, t2 in ((0.0, 0.7), (0.7, 0.0), (0.7, 0.7), (0.0, 0.0)):
        echo_response(ev, t1, t2)
        two_time_map(SYS, ev, coherence_flip(), t1, t2)
    flip_exponent_grid(ev, ts[:50])
    assert ev.calls and all(len(set(times)) == len(times) for times in ev.calls)
    # the scan asks for the 10 001 grid times and t1 plus them in one call, 12 056 of them at t1 = 1
    grid = np.linspace(0.0, 10.0, _N_SCAN + 1)
    assert (np.unique(np.concatenate((grid, 1.0 + grid))).size in map(len, ev.calls)) is not certified


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
    assert decay_exponent(ev, scenario, ts).tolist() == want


def test_grid_entries_check_their_times_in_call_order():
    # g sees the distinct times sorted, and the sums t1 + t2: the first bad time passed must raise, as the rate's does
    ev = BrownianMatsubara(BATH)
    times = [math.nan, -1.0]
    with pytest.raises(ValueError) as rate_error:
        decay_exponent_rate(ev, SingleTime(), times)
    for grid in (lambda: decay_exponent(ev, SingleTime(), times), lambda: flip_exponent_grid(ev, times)):
        with pytest.raises(ValueError) as grid_error:
            grid()
        assert str(grid_error.value) == str(rate_error.value) == "time must be finite and nonnegative, got nan"
    with pytest.raises(ValueError, match="-1.0"):  # not the sum -2.0, which the caller never passed
        flip_exponent_grid(ev, [0.5, -1.0])
    for scenario in (SingleTime(), Prepared(1.0)):
        with pytest.raises(ValueError, match=r"a scalar or a 1-d array, got shape \(2, 2\)"):
            decay_exponent(ev, scenario, np.ones((2, 2)))


# the two-interval routes at (t1, t2): the five functions, decay_exponent and its rate at a float and on an array;
# each forms t1 + t2
_TWO_INTERVAL_ROUTES = {
    "echo_response": lambda ev, t1, t2: echo_response(ev, t1, t2),
    "two_time_map": lambda ev, t1, t2: two_time_map(SystemParams(), ev, coherence_flip(), t1, t2),
    "decay_exponent": lambda ev, t1, t2: decay_exponent(ev, Prepared(t1), t2),
    "decay_exponent array": lambda ev, t1, t2: decay_exponent(ev, Prepared(t1), np.array([0.0, t2, 1.0])),
    "decay_exponent_rate": lambda ev, t1, t2: decay_exponent_rate(ev, Prepared(t1), t2),
    "decay_exponent_rate array": lambda ev, t1, t2: decay_exponent_rate(ev, Prepared(t1), np.array([0.0, t2, 1.0])),
    "flip_exponent_grid": lambda ev, t1, t2: flip_exponent_grid(ev, np.array([0.0, t1, t2])),
}


@pytest.mark.parametrize("route", list(_TWO_INTERVAL_ROUTES))
def test_an_overflowing_t1_plus_t2_raises_one_dephaser_error_on_every_route(route):
    # valid times whose sum leaves the floats: every route raises the same DephaserError before an engine meets the
    # inf, with no warning, where it raised ValueError "got inf" for a time the caller never passed
    call = _TWO_INTERVAL_ROUTES[route]
    for engine in ENGINE_NAMES:
        ev = make_evaluator(engine, BATH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DephaserError, match=re.escape("t1 + t2 = 1e+308 + 1e+308 overflows")):
                call(ev, 1e308, 1e308)


def test_empty_arrays_give_empty_results():
    # an array of no times takes the grid route like any other array: the checks' reductions start from 0
    empty = np.array([])
    engines = [make_evaluator(engine, BATH) for engine in ENGINE_NAMES] + [TruncatedMatsubara(BATH)]
    for ev in engines:
        for name in ("g", "gdot"):
            values = getattr(ev, name)(empty)
            assert values.shape == (0,) and values.dtype == complex
        for scenario in (SingleTime(), Prepared(1.0)):
            assert decay_exponent(ev, scenario, empty).shape == (0,)
            assert decay_exponent_rate(ev, scenario, empty).shape == (0,)
        assert flip_exponent_grid(ev, empty).shape == (0, 0)


def test_the_measure_of_the_exact_engine_makes_no_array_call(monkeypatch):
    # the one-cell scan, the root and the weights all ask for g and gdot at Python floats, from the engine's memos
    def refuse(self, ts, derivative):
        raise AssertionError("an array call of the exact engine")

    monkeypatch.setattr(BrownianMatsubara, "_grid", refuse)
    for bath in (BATH, BathParams(1.3, 1.8, 933.0)):
        for scenario in (SingleTime(), Prepared(1.0), Prepared(1e-5)):
            for search in (AnalyticPair(), GridSearch(4, 4, 4)):
                non_markovianity(SystemParams(), BrownianMatsubara(bath), scenario, search=search)
            growth_intervals(BrownianMatsubara(bath), scenario, 10.0)


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
    """Lists that gather, from now on, the times of BrownianMatsubara's live-sum steps (_sum_at, one per new time) and
    of its row steps, each of which takes g's and gdot's halves at a g miss."""
    work = {"steps": [], "rows": []}
    sum_at, row = BrownianMatsubara._sum_at, BrownianMatsubara._row
    monkeypatch.setattr(
        BrownianMatsubara, "_sum_at", lambda self, s, *a: work["steps"].append(s) or sum_at(self, s, *a)
    )
    monkeypatch.setattr(BrownianMatsubara, "_row", lambda self, t, *sums: work["rows"].append(t) or row(self, t, *sums))
    return work


@pytest.mark.parametrize("bath", [BATH, BathParams(1.3, 1.8, 933.0)], ids=["default", "beta-933"])
def test_distance_and_its_rate_at_a_new_time_take_one_table(monkeypatch, bath):
    # E at a new time fills gdot's memo at its times from the same live-sum and row steps, so the rate there runs no
    # row (the beta 933 bath's t = 2 is below x = 0.2, the default bath's above)
    ev = BrownianMatsubara(bath)
    scenario = Prepared(1.0)
    work = _count_work(monkeypatch)
    e = decay_exponent(ev, scenario, 2.0)
    rate = decay_exponent_rate(ev, scenario, 2.0)
    assert work == {"steps": [1.0, 2.0, 3.0], "rows": [1.0, 2.0, 3.0]}
    # sigma at a new time: one live-sum step and one row each for t and t1 + t
    s = sigma(analytic_pair(), ev, scenario, 4.0)
    assert work == {"steps": [1.0, 2.0, 3.0, 4.0, 5.0], "rows": [1.0, 2.0, 3.0, 4.0, 5.0]}
    # the rate, E and sigma at held times run no row and no live-sum step
    for t in (2.0, 4.0):
        decay_exponent_rate(ev, scenario, t)
        decay_exponent(ev, scenario, t)
        sigma(analytic_pair(), ev, scenario, t)
    assert work == {"steps": [1.0, 2.0, 3.0, 4.0, 5.0], "rows": [1.0, 2.0, 3.0, 4.0, 5.0]}
    # the same bits as a fresh engine's array calls
    fresh = BrownianMatsubara(bath)
    g1, g2, g12 = fresh.g(np.array([1.0, 2.0, 3.0, 0.0])).tolist()[:3]
    assert e == (2.0 * g1 + 2.0 * g2 - g12).real
    a, b = fresh.gdot(np.array([2.0, 3.0, 0.0, 0.0])).real.tolist()[:2]
    assert rate == 2.0 * a - b
    assert s == sigma(analytic_pair(), BrownianMatsubara(bath), scenario, 4.0)


def test_a_time_repeated_among_a_calls_new_times_runs_once(monkeypatch):
    # a two-interval call whose new times repeat one runs its live-sum and row steps once there, with the bits of a
    # fresh engine's array call: t1 = t1 + 0 at a Prepared(1) point at t = 0, and t1 = t2 in an echo
    work = _count_work(monkeypatch)
    e = decay_exponent(BrownianMatsubara(BATH), Prepared(1.0), 0.0)
    assert work == {"steps": [1.0, 0.0], "rows": [1.0, 0.0]}
    g1, g0 = BrownianMatsubara(BATH).g(np.array([1.0, 0.0, 0.0, 0.0])).tolist()[:2]
    assert e == (2.0 * g1 + 2.0 * g0 - g1).real
    work["steps"].clear()
    work["rows"].clear()
    r = echo_response(BrownianMatsubara(BATH), 0.7, 0.7)
    assert work == {"steps": [0.7, 1.4], "rows": [0.7, 1.4]}
    g7, g14 = BrownianMatsubara(BATH).g(np.array([0.7, 1.4, 0.0, 0.0])).tolist()[:2]
    assert r == cmath.exp(-(2.0 * g7 + 2.0 * g7 - g14))


def test_prepared_curve_reads_one_tail_sums(monkeypatch):
    # a 1000-point Prepared(1) curve of E and its rate on the default bath, as param_sweep draws it: the engine's
    # tail_sums runs once, for the live terms' G0 (G1 takes S1 alone), and not at construction, whose largest time takes
    # the closed-form B_n sum; and each point's new times, t and t1 + t, take one live-sum step and one row step each:
    # at the first point t1, which is t1 + 0 too, takes one, and it takes one again after the memos' one clear at 1024
    # times
    work = _count_work(monkeypatch)
    tails = []
    tail_sums = DirichletTable.tail_sums
    monkeypatch.setattr(DirichletTable, "tail_sums", lambda self, *a: tails.append(a) or tail_sums(self, *a))
    ev = BrownianMatsubara(BATH)
    scenario = Prepared(1.0)
    ts = np.linspace(0.0, 20.0, 1000).tolist()
    for t in ts:
        decay_exponent(ev, scenario, t)
        decay_exponent_rate(ev, scenario, t)
    assert len(tails) == 1
    assert work["steps"] == work["rows"] and len(work["rows"]) <= 2 * len(ts) + 1


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
    """Re gdot(t) of BrownianMatsubara as its scalar-only form computes it: the pole, then the Matsubara part; below x
    = 0.2 the Matsubara sum on the nodes of g's (the engine's own), from there the L = ceil(45 beta / (2 pi t)) <= 226
    live terms and G1[L], their sum over n > L."""
    if t == 0.0:
        return 0.0
    p = ev.bath
    d = ev._table
    re = 0.0
    if d.m:
        # the pole's rest, then the pair: the m-th term's rest and P times the divided difference of e^{-lambda t}
        re += d.pole_rest * (-math.expm1(-p.gamma * t))
        rates = min(p.gamma, d.nu_m), max(p.gamma, d.nu_m)
        re += d.m_rest * -math.expm1(-d.nu_m * t) - d.pair_amp * _exp_divided_difference(*rates, t)
    else:
        re += d.pole_b * (-math.expm1(-p.gamma * t))
    if t < ev._t_direct:
        return re + ev._small_x(t, False, True)[1]
    n = np.arange(1.0, 227.0)
    nu = 2.0 * math.pi * n / p.beta
    d_n = (n - p.pole_ratio) * (n + p.pole_ratio)
    if 1 <= d.m <= 226:
        d_n[d.m - 1] = math.inf  # the pair holds the m-th term
    b = p.eta * p.gamma * p.beta / math.pi**2 / d_n  # B_n = s1 / d_n
    g1 = d.g1  # S1(n) for n = 0, ..., 226, as the engine's first row at x >= 0.2 builds it
    stop = min(math.ceil(45.0 * p.beta / (2.0 * math.pi * t)), 226)
    if stop <= _LIVE_FLOATS:  # on Python floats
        block = 0.0
        for nu_n, b_n in zip(nu[:stop].tolist(), b[:stop].tolist()):
            block += b_n * math.expm1(-nu_n * t)
    else:
        block = float(np.sum(b[:stop] * np.expm1(-nu[:stop] * t)))
    return re + (-block + g1[stop])


def _scalar_rate(ev, scenario, t):
    if scenario.t1 == 0.0:
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
from dephaser import (
    BathParams, BrownianMatsubara, HighTemperatureBrownian, Prepared, SystemParams, TruncatedMatsubara, non_markovianity
)
bath = BathParams(1.0, 1e-7, 1.0)
engines = {"hight": HighTemperatureBrownian(bath), "analytic": BrownianMatsubara(bath),
           "strict": TruncatedMatsubara(bath)}
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
    assert TruncatedMatsubara(BATH).certified_bath is None
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
# relative but for one growth end of beta 933, a root refined to 1e-10, which moved by 1.3e-12; last: the default bath
# and a = 1.001, when g and gdot from x = 0.2 on took their live terms and G1 and G0: 111 and 223 of 363 values, by at
# most 2.4e-15 and 1.7e-13 relative; last: beta 933 and a = 1.001, when g's nodes below x = 0.2 took L's rule: 190 and
# 1 of 363 values, by at most 5.5e-15 and 1.3e-16 relative but for beta 933's N, by 1.6e-12, and its two growth ends,
# roots refined to 1e-10, which moved by 4.0e-11; last: the default bath and a = 1.001, when every B_n took the one row
# d_n = (n - a)(n + a) and c_n = B_n / nu_n: 4 and 107 of 363 values, by at most 3.2e-16 and 2.1e-15 relative but for
# the N of Prepared(1) on a = 1.001, 1.3e-3, which moved by 1.1e-16, 8.8e-14 of itself; last: beta 933, when S's
# Taylor groups below x = 0.2 became one Horner polynomial, 1 of 363 values by 3.4e-16 relative, and a = 1.001, when
# times of 33 to 37 live terms moved onto Python floats (_LIVE_FLOATS), 2 of 363 values by at most 2.3e-16 relative)
_LIBRARY_DIGESTS = {
    "default": "3d33612b336d6535dba4b0dabacb67fe44b4b08cd597c8842c58506d23188e57",
    "beta 933": "c0403923cbb0fe55f2c304040caff93bfdf90eed805c1ab16a86f7aa0af5d9b1",
    "a = 1.001": "2dbe826de410860f6a8a65827abcdb259d7a3af1ca01583ea3f8062221f5b6ce",
}


def _library_bytes(bath):
    """The raw bytes of every library output the digest covers, in a fixed order of calls on one engine."""
    ev = BrownianMatsubara(bath)
    ts = np.linspace(0.0, 6.0, 25)
    out = []
    for scenario in (SingleTime(), Prepared(0.5), Prepared(2.0)):
        out.append(np.array([decay_exponent(ev, scenario, t) for t in (0.3, 1.0, 4.0)]))
        out.append(decay_exponent(ev, scenario, ts))
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
