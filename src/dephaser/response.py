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

import numpy as np

from .dephasing import _check_time, flip_exponent


def echo_response(evaluator, t1: float, t2: float) -> complex:
    """Two-interval rephasing kernel R(t1, t2)."""
    t1 = _check_time(t1)
    t2 = _check_time(t2)
    expo = flip_exponent(evaluator.g(t1), evaluator.g(t2), evaluator.g(t1 + t2))
    return complex(np.exp(-expo))


def flip_exponent_grid(evaluator, ts) -> np.ndarray:
    """flip_exponent at every (t1, t2) of the square grid ts x ts, indexed [i, j].

    g is evaluated once per distinct time among ts and the sums
    ts[i] + ts[j] as rounded, and the values are indexed back onto the grid.
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    times, where = np.unique(np.concatenate((ts, (ts[:, None] + ts).ravel())), return_inverse=True)
    g = np.array([evaluator.g(float(t)) for t in times])[where]
    g_axis = g[:n]
    return flip_exponent(g_axis[:, None], g_axis, g[n:].reshape(n, n))
