"""The pointwise two-interval route gives the bits of the grid routes.

echo_response, two_time_map and decay_exponent take g at t1, t2 and t1 + t2 by one route (dephasing._g_two_interval):
from the memo of an engine that keeps one, else from one float g call per distinct time.  Held and fresh times, engines
with and without a memo, and a plain wrapper of an engine must all give the bits of flip_exponent_grid,
decay_exponent's arrays and an array call past the memo; and g and gdot at a time keep their bits whichever of the g
miss, the gdot miss and the array call reached it first.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import _numpy_scalar_map

from dephaser import (
    BathParams,
    BrownianMatsubara,
    DensityMatrix2,
    HighTemperatureBrownian,
    SystemParams,
    TruncatedMatsubara,
    coherence_flip,
    echo_response,
    flip_exponent_grid,
    identity_op,
    propagate_two_time,
    two_time_map,
)
from dephaser.dephasing import flip_exponent
from dephaser.spectral import _check_time
from dephaser.measures import Prepared, decay_exponent

# a warm bath, a = 0.95 past 1/2, the cold beta 933 bath below and above x = 0.2, and the pole on nu_1
_BATHS = [
    BathParams(1.0, 0.5, 1.0),
    BathParams(0.5, 1.2, 5.0),
    BathParams(1.3, 1.8, 933.0),
    BathParams(1.3, 1.0, 2.0 * math.pi),
]
_ENGINES = [
    lambda bath: BrownianMatsubara(bath),
    lambda bath: TruncatedMatsubara(bath),
    lambda bath: HighTemperatureBrownian(bath),
]


class _Plain:
    """An evaluator that forwards g and keeps no memo of its own."""

    def __init__(self, ev):
        self.bath = ev.bath
        self.g = ev.g


def _bits(z) -> bytes:
    """The bits of a float or complex, so that -0.0 and 0.0 differ."""
    return np.complex128(z).tobytes()


# repeats of a few times, so that later calls are held, among fresh ones; t = 0 and a time 1e-9 from a pooled one
_POOL = st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.0 + 1e-9, 2.5])
_TIMES = st.one_of(_POOL, _POOL, st.floats(1e-3, 6.0))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    pairs=st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=8),
    eps=st.sampled_from([0.0, 1.3, -0.7]),
    p=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_pointwise_two_interval_calls_have_the_grid_bits(pairs, eps, p, phase):
    system = SystemParams(eps)
    state = DensityMatrix2(p, 0.99 * math.sqrt(p * (1.0 - p)) * cmath.exp(1j * phase))
    for bath in _BATHS:
        for make in _ENGINES:
            held, plain = make(bath), _Plain(make(bath))
            for t1, t2 in pairs:
                # the grid routes and an array call past the memo, each on a fresh engine
                g = make(bath).g(np.array([t1, t2, t1 + t2])).tolist()
                flip = flip_exponent(*g)
                assert _bits(flip_exponent_grid(make(bath), np.array([t1, t2]))[0, 1]) == _bits(flip)
                grid_e = decay_exponent(make(bath), Prepared(t1), np.array([t2]))[0]
                assert _bits(grid_e) == _bits(flip.real)
                for ev in (held, plain):
                    assert _bits(echo_response(ev, t1, t2)) == _bits(cmath.exp(-flip))
                    assert _bits(decay_exponent(ev, Prepared(t1), t2)) == _bits(flip.real)
                    for uprime in (identity_op(), coherence_flip()):
                        op = two_time_map(system, ev, uprime, t1, t2)
                        assert op.matrix.tobytes() == _numpy_scalar_map(system, g, uprime, t1, t2).tobytes()
                        out = propagate_two_time(state, system, ev, uprime, t1, t2)
                        via = op(state)
                        assert (_bits(out.p11), _bits(out.c12)) == (_bits(via.p11), _bits(via.c12))
                        # the matrix product of the vector, as numpy takes it, to roundoff
                        product = DensityMatrix2.from_vector(op.matrix @ state.to_vector())
                        assert abs(out.p11 - product.p11) <= 1e-15 and abs(out.c12 - product.c12) <= 1e-15


# the four pointwise two-interval calls, each on an evaluator and (t1, t2)
_TWO_INTERVAL_CALLS = {
    "echo_response": lambda ev, t1, t2: echo_response(ev, t1, t2),
    "decay_exponent": lambda ev, t1, t2: decay_exponent(ev, Prepared(t1), t2),
    "two_time_map": lambda ev, t1, t2: two_time_map(SystemParams(0.4), ev, coherence_flip(), t1, t2),
    "propagate_two_time": lambda ev, t1, t2: propagate_two_time(
        DensityMatrix2(0.3, 0.2 + 0.1j), SystemParams(0.4), ev, coherence_flip(), t1, t2
    ),
}


def _count_fills(ev) -> list:
    """The list of ev's _fill calls from now on, each (times, values as passed, derivative)."""
    calls = []
    fill = ev._fill

    def counted(times, values, derivative):
        calls.append((list(times), list(values), derivative))
        return fill(times, values, derivative)

    ev._fill = counted
    return calls


@pytest.mark.parametrize("engine", [BrownianMatsubara, TruncatedMatsubara], ids=["exact", "strict"])
@pytest.mark.parametrize("name", list(_TWO_INTERVAL_CALLS))
def test_held_two_interval_calls_fill_nothing_and_a_fresh_time_fills_once(name, engine):
    call = _TWO_INTERVAL_CALLS[name]
    ev = engine(BathParams(1.0, 0.5, 1.0))
    call(ev, 0.3, 1.1)
    calls = _count_fills(ev)
    call(ev, 0.3, 1.1)
    call(ev, 1.1, 0.3)  # the same three times
    assert calls == []
    # 0.6 is the one fresh time: one _fill on the three times, with the held values as the memo gave them
    held = ev._g_memo[0.3]
    call(ev, 0.3, 0.3)
    assert calls == [([0.3, 0.3, 0.6], [held, held, None], False)]
    assert calls[0][1][0] is held
    call(ev, 0.3, 0.3)
    assert len(calls) == 1


# bad times of every type a caller may pass, and good times that are not Python floats
_BAD_TIMES = [math.nan, math.inf, -math.inf, -0.5, -1, np.float64(-0.5), np.float64(math.nan), np.float64(math.inf)]


@pytest.mark.parametrize("bad", _BAD_TIMES, ids=repr)
def test_bad_times_raise_the_time_check_error_through_the_two_interval_kernels(bad):
    with pytest.raises(ValueError) as want:
        _check_time(bad)
    ev = BrownianMatsubara(BathParams(1.0, 0.5, 1.0))
    for name in ("echo_response", "two_time_map"):
        for t1, t2 in ((bad, 1.0), (1.0, bad), (1, bad), (np.float64(1.0), bad), (bad, bad)):
            with pytest.raises(ValueError) as got:
                _TWO_INTERVAL_CALLS[name](ev, t1, t2)
            assert str(got.value) == str(want.value), (name, t1, t2)
    assert ev._g_memo == {}


@pytest.mark.parametrize("name", ["echo_response", "two_time_map"])
def test_int_and_numpy_times_give_the_float_bits_and_hold_floats(name):
    call = _TWO_INTERVAL_CALLS[name]

    def out_bits(ev, t1, t2):
        out = call(ev, t1, t2)
        return out.matrix.tobytes() if name == "two_time_map" else _bits(out)

    bath = BathParams(1.0, 0.5, 1.0)
    for t1, t2 in ((1, 2), (np.float64(0.7), 3), (2, np.float64(0.25)), (np.float64(0.0), np.float64(1.5))):
        ev = BrownianMatsubara(bath)
        assert out_bits(ev, t1, t2) == out_bits(BrownianMatsubara(bath), float(t1), float(t2))
        assert ev._g_memo and all(type(t) is float for t in ev._g_memo)


def _across_x_0_2(bath):
    """The last time below x = 0.2 of the exact engine on bath, the first at it, and the next float."""
    t = BrownianMatsubara(bath)._t_direct
    return [math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)]


# (bath, times): below x = 0.2 (beta 933, paired; the default bath, unpaired), with L = ceil(45 beta / (2 pi t))
# live terms past K = 25 (a = 5.5, paired), late on the default bath, where every term, nu_1 t > 45 from t = 7.2 on,
# is dead, across x = 45/32, where L goes from 33 (a numpy row) to 32 (Python floats) at t = 0.22381, across x = 0.2
# on the default bath and on beta 933, and the t1, t and t1 + t of a Prepared(4.8) point at t = 0.5 on the paired
# a = 5.5 bath: t1 a numpy row of 34 terms, t below x = 0.2 and t1 + t on Python floats, one g miss taking all three
_ROUTE_TIMES = [
    (BathParams(1.3, 1.8, 933.0), [1e-3, 0.5, 2.0]),
    (BathParams(1.0, 0.5, 1.0), [1e-4, 0.01, 0.03]),
    (BathParams(5.4, 1.55, 22.3, 25), [1.0, 2.0, 5.0]),
    (BathParams(1.0, 0.5, 1.0), [7.5, 9.0, 12.0]),
    (BathParams(1.0, 0.5, 1.0), [0.21, 0.2237, 0.2239]),
    (BathParams(1.0, 0.5, 1.0), _across_x_0_2(BathParams(1.0, 0.5, 1.0))),
    (BathParams(1.3, 1.8, 933.0), _across_x_0_2(BathParams(1.3, 1.8, 933.0))),
    (BathParams(5.4, 1.55, 22.3, 25), [4.8, 0.5, 4.8 + 0.5]),
]
_ROUTE_IDS = [
    "small-x",
    "small-x-unpaired",
    "live-past-k",
    "all-dead",
    "l-33-to-32",
    "x-0.2",
    "x-0.2-beta-933",
    "prepared-across-l-32-and-x-0.2",
]


def test_route_times_cross_the_live_term_boundaries():
    # the L of the times above, one way or the other across 45/32 and across 0.2 (where L is 225 or 226), and the
    # Prepared point's t and t1 + t across both
    def stop(bath, t):
        return math.ceil(45.0 * bath.beta / (2.0 * math.pi * t))

    (bath, times), (_, edge) = _ROUTE_TIMES[4], _ROUTE_TIMES[5]
    assert [stop(bath, t) for t in times] == [35, 33, 32]
    t_direct = BrownianMatsubara(bath)._t_direct
    assert edge[0] < t_direct == edge[1] < edge[2] and stop(bath, t_direct) in (225, 226)
    paired, (t1, t, t12) = _ROUTE_TIMES[7]
    assert paired.dirichlet().m == 6 and t < BrownianMatsubara(paired)._t_direct < t1
    assert [stop(paired, s) for s in (t1, t12)] == [34, 31]


@pytest.mark.parametrize("engine", [BrownianMatsubara, TruncatedMatsubara], ids=["exact", "strict"])
@pytest.mark.parametrize("bath, times", _ROUTE_TIMES, ids=_ROUTE_IDS)
def test_g_and_gdot_keep_their_bits_whichever_route_reached_them_first(bath, times, engine):
    # a g miss (which also fills gdot's memo), a gdot miss, and an array call past the memos, each first at a time of
    # an engine, then the other function at the same time: every value has the array call's bits
    def make():
        return engine(bath)

    array = np.array(times)
    want = {name: getattr(make(), name)(array).tolist() for name in ("g", "gdot")}
    for first, second in (("g", "gdot"), ("gdot", "g")):
        for as_array, after_array in ((False, False), (True, False), (False, True)):
            ev = make()
            if after_array:
                assert np.array_equal(_bits(getattr(ev, first)(array)), _bits(getattr(make(), first)(array)))
            got = {}
            for name in (first, second):
                f = getattr(ev, name)
                got[name] = f(np.array(times)).tolist() if as_array else [f(t) for t in times]
            assert {name: _bits(got[name]) for name in got} == {name: _bits(want[name]) for name in want}
