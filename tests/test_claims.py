"""The paper's three claims about the trace-distance measure N of pure dephasing.

1. Dissipation memory alone gives nothing: with Re g replaced by its
   Markovian line and Im g kept, N = 0.
2. Fluctuation memory carries all of N: with Im g zeroed, N and its
   growth intervals are those of the full g, bit for bit.
3. Initial correlations are essential: from the initial states (one free
   interval) N = 0, after a preparation interval t1 > 0 N > 0.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaser import BathParams, BrownianMatsubara, HighTemperatureBrownian, SystemParams
from dephaser.measures import Prepared, SingleTime, decay_exponent, non_markovianity

ENGINES = {"analytic": BrownianMatsubara, "hight": HighTemperatureBrownian}
BATHS = [BathParams(1.0, 0.5, 1.0), BathParams(0.5, 1.2, 5.0), BathParams(2.0, 0.3, 0.3)]


class _Replaced:
    """An evaluator with g and gdot of its own; carries the bath of the evaluator it replaces."""

    def __init__(self, ev, g, gdot):
        self.bath = ev.bath
        self.g = g
        self.gdot = gdot


def _markovian_dissipation(ev):
    """ev with Re g(t) replaced by Gamma t, Gamma = Re gdot(60 / gamma), and Im g kept."""
    rate = ev.gdot(60.0 / ev.bath.gamma).real
    return _Replaced(ev, lambda t: rate * t + 1j * ev.g(t).imag, lambda t: rate + 1j * ev.gdot(t).imag)


def _no_dissipation(ev):
    """ev with Im g zeroed; the rate of E reads Re gdot alone, so ev's certified growth end holds for it too."""
    replaced = _Replaced(ev, lambda t: ev.g(t).real + 0j, lambda t: ev.gdot(t).real + 0j)
    replaced.certified_bath = ev.certified_bath
    return replaced


@pytest.mark.parametrize("bath", BATHS, ids=["default", "cold", "hot"])
@pytest.mark.parametrize("engine", ENGINES)
def test_dissipation_memory_alone_gives_nothing(engine, bath):
    ev = ENGINES[engine](bath)
    res = non_markovianity(SystemParams(), _markovian_dissipation(ev), Prepared(1.0))
    assert (res.n_value, res.intervals) == (0.0, ())
    assert non_markovianity(SystemParams(), ev, Prepared(1.0)).n_value > 0.0


@pytest.mark.parametrize("bath", BATHS, ids=["default", "cold", "hot"])
@pytest.mark.parametrize("engine", ENGINES)
def test_fluctuation_memory_carries_all_of_the_measure(engine, bath):
    ev = ENGINES[engine](bath)
    full = non_markovianity(SystemParams(), ev, Prepared(1.0))
    res = non_markovianity(SystemParams(), _no_dissipation(ev), Prepared(1.0))
    assert full.n_value > 0.0
    assert (res.n_value, res.intervals, res.truncated) == (full.n_value, full.intervals, full.truncated)


def _assert_correlations_essential(ev, t1):
    free = non_markovianity(SystemParams(), ev, SingleTime())
    assert (free.n_value, free.intervals) == (0.0, ())
    prepared = Prepared(t1)
    res = non_markovianity(SystemParams(), ev, prepared)
    assert res.intervals
    start, end = res.intervals[0].t_start, res.intervals[0].t_end
    e_end = decay_exponent(ev, prepared, end)
    assert e_end < decay_exponent(ev, prepared, start)
    # N is e^-E(end) - e^-E(start) and more: positive unless the coherence left has underflowed
    if math.exp(-e_end) >= sys.float_info.min:
        assert res.n_value > 0.0


_COUPLINGS = dict(
    eta=st.floats(0.1, 10.0), gamma=st.floats(0.2, 2.0), t1=st.floats(0.05, 5.0)
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(beta=st.floats(0.1, 100.0), **_COUPLINGS)
def test_initial_correlations_are_essential_hight(eta, gamma, beta, t1):
    _assert_correlations_essential(HighTemperatureBrownian(BathParams(eta, gamma, beta)), t1)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(beta=st.floats(0.1, 10.0), **_COUPLINGS)
def test_initial_correlations_are_essential_analytic(eta, gamma, beta, t1):
    _assert_correlations_essential(BrownianMatsubara(BathParams(eta, gamma, beta)), t1)
