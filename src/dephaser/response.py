"""Optical response kernels of the dephasing two-level system.

The two-interval (photon echo) kernel is the flip exponent of the
lineshape function,

    R(t1, t2) = exp(-flip_exponent(g(t1), g(t2), g(t1+t2))),

and its modulus must agree with the coherence of a state propagated
through a flip junction (dynamics.two_time_map) to machine precision,
which ties the response layer to the validated propagation map.  Bath
memory makes R non-separable in (t1, t2): a memoryless kernel would
factor as f(t1) h(t2).
"""

from __future__ import annotations

import cmath

import numpy as np

from .dephasing import _FLOAT_MAX, _check_time, _check_times, _g_distinct, _g_two_interval, flip_exponent


def echo_response(evaluator, t1: float, t2: float) -> complex:
    """Two-interval rephasing kernel R(t1, t2).

    The times pass one comparison chain where both are Python floats in [0, max float], else _check_time, which
    converts them and raises its ValueError.  g at t1, t2 and t1 + t2 comes by the pointwise route of the two-interval
    kernels (dephasing._g_two_interval), in three lookups of the engine's memo where it holds them.  exp is cmath.exp,
    which has np.exp's bits over the engines' range; where |R| overflows (Re of the flip exponent below about -709.78)
    it raises OverflowError, where np.exp gave inf behind a RuntimeWarning.
    """
    if not (type(t1) is type(t2) is float and 0.0 <= t1 <= _FLOAT_MAX >= t2 >= 0.0):
        t1, t2 = _check_time(t1), _check_time(t2)
    g1, g2, g12 = _g_two_interval(evaluator, t1, t2)
    return cmath.exp(-flip_exponent(g1, g2, g12))


def flip_exponent_grid(evaluator, ts) -> np.ndarray:
    """flip_exponent at every (t1, t2) of the square grid ts x ts, indexed [i, j].

    g is evaluated once per distinct time among ts and the sums
    ts[i] + ts[j] as rounded, and the values are indexed back onto the grid.
    """
    ts, _, _ = _check_times(ts)
    n = ts.size
    g = _g_distinct(evaluator, np.concatenate((ts, (ts[:, None] + ts).ravel())))
    g_axis = g[:n]
    return flip_exponent(g_axis[:, None], g_axis, g[n:].reshape(n, n))
