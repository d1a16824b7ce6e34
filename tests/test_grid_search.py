"""GridSearch: the phase-difference class search against a brute force over every pair."""

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
    _grid_search,
    _growth_runs,
    _total_gain,
    _weights,
    non_markovianity,
)
from dephaser.spectral import BathParams

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)


def _grid(search):
    """p, |c|, c and phase index of every grid state in flat order, and cos of the grid phases."""
    p = np.linspace(0.0, 1.0, search.n_population)
    frac = np.linspace(0.0, 1.0, search.n_coherence) * (1.0 - 1e-12)
    phase = np.linspace(0.0, 2.0 * math.pi, search.n_phase, endpoint=False)
    pp, ff, hh = np.meshgrid(p, frac, phase, indexing="ij")
    pf = pp.ravel()
    mf = ff.ravel() * np.sqrt(pf * (1.0 - pf))
    cf = mf * np.exp(1j * hh.ravel())
    return pf, mf, cf, np.arange(pf.size) % search.n_phase, np.cos(phase)


def _pair_gain(pf, cf, rows, weights_end, weights_start):
    """Per-pair summed gains of the pairs whose first state is in rows."""
    return _total_gain((pf[rows, None] - pf) ** 2, np.abs(cf[rows, None] - cf) ** 2, weights_end, weights_start)


def brute_force(search, weights_end, weights_start):
    """Every pair ranked by the gain of its phase-difference class, the first in flat order on ties, with its own gain.

    A pair's class gain takes |dc|^2 = m_a^2 + m_b^2 - 2 m_a m_b cos(2 pi k / n_phase)
    with k = min(d, n_phase - d) for the phase index difference d; the rows
    of 16 magnitude states of the pair table at a time.
    """
    pf, mf, cf, h, cos = _grid(search)
    n_h, n = search.n_phase, pf.size
    # cos of the class of (first state of phase index ia, second state)
    d = (h - h[:n_h, None]) % n_h
    cos_d = cos[np.minimum(d, n_h - d)]
    best = -np.inf
    best_ij = (0, 0)
    for i0 in range(0, n, 16 * n_h):
        sl = slice(i0, i0 + 16 * n_h)
        ma, mb = mf[sl].reshape(-1, n_h, 1), mf
        dc2 = ((ma * ma + mb * mb) - (2.0 * ma * mb) * cos_d).reshape(-1, n)
        gain = _total_gain((pf[sl, None] - pf) ** 2, dc2, weights_end, weights_start)
        k = int(np.argmax(gain))
        if gain.flat[k] > best:
            best = gain.flat[k]
            best_ij = (i0 + k // n, k % n)
    ia, ib = best_ij
    pair = StatePair(
        DensityMatrix2(float(pf[ia]), complex(cf[ia])),
        DensityMatrix2(float(pf[ib]), complex(cf[ib])),
    )
    return float(_pair_gain(pf, cf, [ia], weights_end, weights_start)[0, ib]), pair


def largest_pair_gain(search, weights_end, weights_start):
    """The largest per-pair summed gain over the grid: what the brute force before the class search returned."""
    pf, _, cf, _, _ = _grid(search)
    return float(_pair_gain(pf, cf, slice(None), weights_end, weights_start).max())


def roundoff_bound(weights_end, weights_start):
    """A bound on the largest per-pair gain less the reported pair's gain.

    Twice the bound on |a pair's computed gain - its class's computed gain|
    at dp^2 = dc^2 = 0, the largest over the classes: the reported pair
    gains at least its class's gain less one such bound, and its class at
    least the class gain of the best pair, which is that pair's gain less
    another.
    """
    # With eps = 2^-52: every |c| is below 1/2, so dp2 and dc2 are at most 1.  A
    # grid phase is 2 pi k/n_h to three roundings relative (2 pi, the step, its
    # multiple), under 10 eps absolute; exp adds an ulp per component and the
    # product with |c| one rounding, so a state's c is within 13 eps |c| of
    # |c| e^{2 pi i k/n_h}.  A pair's |dc| is then off by 13 eps, plus 0.5 for
    # the difference and 2 for abs; squaring doubles that and adds 0.5: 31.5 eps.
    # A class's dc2 is off by 7 eps (its cos by 11, times 2 m_a m_b <= 1/2, plus
    # three roundings).  So a pair's and its class's dc2 differ by at most 40 eps,
    # and their arguments dp2 + dc2 w by delta(w) = eps (1 + 42 w), two roots of
    # arguments delta apart by sqrt(delta) at most, and the roundings of the
    # roots, of each interval's difference, of the sum over J intervals and of
    # this arithmetic add (J + 3) eps sqrt(1 + w) per weight.
    eps = float(np.finfo(float).eps)
    ws = [*weights_end, *weights_start]
    margin = (len(weights_end) + 3) * eps * sum(math.sqrt(1.0 + w) for w in ws)
    margin += (1.0 + eps) * sum(math.sqrt(eps * (1.0 + 42.0 * w)) for w in ws)
    return 2.0 * margin


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
    n_value, pair = _grid_search(search, *weights, 1.0)
    assert bits(n_value, pair) == bits(*brute_force(search, *weights))
    top = largest_pair_gain(search, *weights)
    assert top - roundoff_bound(*weights) <= n_value <= top


@pytest.mark.parametrize("t1", [1.0, 1e-4])
def test_default_bath_30x30x8_is_the_brute_force(t1):
    ev = BrownianMatsubara(BATH)
    runs, _ = _growth_runs(ev, Prepared(t1), 20.0)
    w_end, w_start, unit = _weights(ev, Prepared(t1), runs)
    assert unit == 1.0
    search = GridSearch(30, 30, 8)
    assert bits(*_grid_search(search, w_end, w_start, unit)) == bits(*brute_force(search, w_end, w_start))


def test_50x50x8_keeps_the_brute_force_result():
    # n_value and pair of the brute-force search at 50x50x8, t1 = 1, t_max = 10
    res = non_markovianity(
        SystemParams(), BrownianMatsubara(BATH), Prepared(1.0), t_max=10.0, search=GridSearch(50, 50, 8)
    )
    want = StatePair(
        DensityMatrix2(0.4897959183673469, 0.4998958658736181 + 0j),
        DensityMatrix2(0.4897959183673469, -0.4998958658736181 + 6.121958720491211e-17j),
    )
    assert bits(res.n_value, res.pair) == bits(0.22810828664624333, want)


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
