"""GridSearch: the phase-difference class reduction against the brute force it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephaser.dephasing import BrownianMatsubara
from dephaser.dynamics import DensityMatrix2, SystemParams
from dephaser.measures import (
    GridSearch,
    Prepared,
    StatePair,
    _class_bounds,
    _class_margins,
    _grid_axes,
    _grid_search,
    _grid_states,
    _growth_runs,
    _magnitude_states,
    _total_gain,
    _weights,
    non_markovianity,
)
from dephaser.spectral import BathParams

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)


def brute_force(search, weights_end, weights_start):
    """The grid search before the class reduction: every pair, 128 rows of the pair table at a time."""
    p = np.linspace(0.0, 1.0, search.n_population)
    frac = np.linspace(0.0, 1.0, search.n_coherence) * (1.0 - 1e-12)
    phase = np.linspace(0.0, 2.0 * math.pi, search.n_phase, endpoint=False)
    pp, ff, hh = np.meshgrid(p, frac, phase, indexing="ij")
    pf = pp.ravel()
    cf = ff.ravel() * np.sqrt(pf * (1.0 - pf)) * np.exp(1j * hh.ravel())
    best = -np.inf
    best_ij = (0, 0)
    n = pf.size
    for i0 in range(0, n, 128):
        sl = slice(i0, min(i0 + 128, n))
        dp2 = (pf[sl, None] - pf[None, :]) ** 2
        dc2 = np.abs(cf[sl, None] - cf[None, :]) ** 2
        gain = _total_gain(dp2, dc2, weights_end, weights_start)
        k = int(np.argmax(gain))
        if gain.flat[k] > best:
            best = float(gain.flat[k])
            best_ij = (i0 + k // n, k % n)
    ia, ib = best_ij
    pair = StatePair(
        DensityMatrix2(float(pf[ia]), complex(cf[ia])),
        DensityMatrix2(float(pf[ib]), complex(cf[ib])),
    )
    return best, pair


def bits(n_value, pair):
    """The exact bits of a search result, signed zeros included."""
    xs = (n_value, pair.a.p11, pair.a.c12.real, pair.a.c12.imag, pair.b.p11, pair.b.c12.real, pair.b.c12.imag)
    return [float(x).hex() for x in xs]


# one to three intervals; weights e^{-2E} as drawn, either side larger, equal ones included by the examples
interval_weights = st.integers(1, 3).flatmap(
    lambda j: st.tuples(
        st.lists(st.floats(0.0, 1.5), min_size=j, max_size=j),
        st.lists(st.floats(0.0, 1.5), min_size=j, max_size=j),
    )
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 9)),
    weights=interval_weights,
)
@example(sizes=(8, 8, 8), weights=([0.9], [0.3]))
@example(sizes=(7, 5, 9), weights=([1.0, 0.2], [1e-3, 0.2]))  # an interval with no gain
def test_pair_gains_lie_within_margin_of_class_gains(sizes, weights):
    search = GridSearch(*sizes)
    n_h = search.n_phase
    pf, cf = _grid_states(search)
    pair_gain = _total_gain((pf[:, None] - pf) ** 2, np.abs(cf[:, None] - cf) ** 2, *weights)
    pm, mag = _magnitude_states(search)
    cos_k = np.cos(_grid_axes(search)[2][: n_h // 2 + 1])
    gain, margin = _class_bounds(pm, mag, cos_k, slice(None), *weights)
    # the class of each pair: its magnitude states and phase-difference class
    state = np.arange(pf.size)
    d = (state % n_h - (state % n_h)[:, None]) % n_h
    cls = (np.minimum(d, n_h - d), (state // n_h)[:, None], state // n_h)
    assert np.all(np.abs(pair_gain - gain[cls]) <= margin[cls])
    assert np.all(margin <= _class_margins(0.0, 0.0, *weights))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 9)),
    weights=interval_weights,
)
@example(sizes=(12, 12, 8), weights=([0.7], [0.7]))  # every gain is 0: the first pair wins
@example(sizes=(12, 11, 7), weights=([1.0000000000000002], [0.9999999999999329]))  # a growth at roundoff level
@example(sizes=(1, 1, 1), weights=([0.5], [0.2]))
def test_grid_search_is_the_brute_force_bit_for_bit(sizes, weights):
    search = GridSearch(*sizes)
    assert bits(*_grid_search(search, *weights)) == bits(*brute_force(search, *weights))


@pytest.mark.parametrize("t1", [1.0, 1e-4])
def test_default_bath_30x30x8_is_the_brute_force(t1):
    ev = BrownianMatsubara(BATH)
    runs, _ = _growth_runs(ev, Prepared(t1), 20.0)
    w = _weights(ev, Prepared(t1), runs)
    search = GridSearch(30, 30, 8)
    assert bits(*_grid_search(search, *w)) == bits(*brute_force(search, *w))


def test_50x50x8_keeps_the_brute_force_result():
    # n_value and pair of the brute-force search at 50x50x8, t1 = 1, t_max = 10
    res = non_markovianity(
        SystemParams(), BrownianMatsubara(BATH), Prepared(1.0), t_max=10.0, search=GridSearch(50, 50, 8)
    )
    want = StatePair(
        DensityMatrix2(0.4897959183673469, 0.4998958658736181 + 0j),
        DensityMatrix2(0.4897959183673469, -0.4998958658736181 + 6.121958720491211e-17j),
    )
    assert bits(res.n_value, res.pair) == bits(0.2281082866462431, want)


@pytest.mark.parametrize(
    "sizes",
    [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-3, 1, 1), (2.5, 1, 1), (2.0, 1, 1), (True, 1, 1), (1, 1, "8"), (1, 1, None)],
)
def test_grid_search_sizes_are_positive_ints(sizes):
    with pytest.raises(ValueError):
        GridSearch(*sizes)


def test_grid_search_accepts_unit_sizes():
    ev = BrownianMatsubara(BATH)
    res = non_markovianity(SystemParams(), ev, Prepared(1.0), t_max=10.0, search=GridSearch(1, 1, 1))
    assert res.n_value == 0.0
    assert res.pair.a == res.pair.b == DensityMatrix2(0.0, 0j)
