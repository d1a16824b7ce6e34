"""Lineshape (dephasing) function g(t) of a pure-dephasing two-level system.

g is the double time integral of the bath correlation function,

    g(t) = int_0^t dtau (t - tau) L(tau),

and its derivative gdot(t) = int_0^t dtau L(tau).  Four interchangeable
evaluators are provided:

  * BrownianMatsubara: the pole-plus-Matsubara series, exact
    (include_tail=True, the default) or truncated strictly at K terms.
    Below x = 2 pi t / beta = 0.2 its exact Re g and Re gdot sum the
    Matsubara terms on the nodes of the analytic L's sum (_MatsubaraG, one
    table for both); from there the n > K remainder is at most 226 - K live
    terms and digamma closed forms.  Its digamma is spectral._digamma, so
    it and HighTemperatureBrownian load no scipy; only the two quadrature
    engines do.
  * HighTemperatureBrownian: the beta*gamma -> 0 closed form.
  * FrequencyQuadrature: direct adaptive integration of the spectral
    representation, with the oscillatory tails handled by a dedicated
    Fourier integrator.  Independent of the series route.
  * TimeDomainQuadrature: nested quadrature of (t - tau) L(tau) against
    the analytic correlation function.  That L reads the series' Dirichlet
    table, so this route checks the sums and the quadrature; freq-quad
    and the tests' oracle check the coefficients.  Its integrals share
    their nodes, so it evaluates L once per node (up to _MEMO_NODES).

The quadrature engines exist as cross-checks: on the default bath the
three routes agree to better than 1e-6 relative for t in [0.05, 20], the
range acceptance criterion 1 tests.  They are not validated below it:
from t of about 1e-5 down, the quadratures are off by 1e-6 relative or
more (their absolute tolerances and Fourier tails).  The series' Re g is
within 1e-12 relative of a 40-digit oracle (tests/_oracle.py) and
positive from t = 1e-9 on, and so is its Re gdot less _dead_weight's C,
which it adds where more than _BLOCK_CAP terms past K are live: with C,
gdot is the sum stopped at K + _BLOCK_CAP with the rest counted as dead,
the value perfbench's references record.  Both raise
DephaserError below x = 0.2 where x^2 leaves the normal floats.
FrequencyQuadrature raises DephaserError for a Brownian density at
0 < t < 3e-4 / w_split (3e-5 on the default bath), where its Fourier
tails lose Re g.

Every engine's g and gdot take a time (a float, giving a complex) or a
1-d array of times (giving a complex array), and check the times once
per call, by one function, _check_times, whose method follows the size
of the call: a float and up to three times on Python floats, more by
numpy reductions.  The first bad time of the call raises, in call order.
A time gets the same bits alone as inside an array.
BrownianMatsubara and HighTemperatureBrownian raise DephaserError past
the largest time at which g, its intermediates and the flip exponent
of times up to it stay finite (_largest_time; 1.43e305 for the series
on the default bath, where nu_K t would overflow).
BrownianMatsubara also remembers g and gdot at their pointwise calls
(one to three times, as the two-interval kernels and the measure's
curves make them), up to _MEMO_TIMES times each, and returns the same
bits from the memos as computed afresh.  A g call that misses a time
also fills gdot's memo there from the same table, since the rate of a
distance asks for gdot where the distance asked for g.  The two-interval
kernels take g at t1, t2 and t1 + t2 by one route, _g_two_interval: from
that memo as Python numbers, or from one g call on the three times as an
array for an evaluator without one.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

from ._quadrature import integrate_finite, integrate_fourier_tail, integrate_to_inf
from .errors import DephaserError
from .spectral import (
    _DIRECT_X,
    _EXP_DEAD,
    _FOURIER_MIN_TW,
    _G_RULE,
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    _brownian_bath,
    _check_beta,
    _check_time,
    _e1_scaled,
    _exp_divided_difference,
    _finite,
    _H_SERIES_TOP,
    _H_TAYLOR,
    _h,
    _h_divided_difference,
    _matsubara_nodes,
    _normal,
    _pow,
    _split_frequency,
    _tabulated_grid,
    coth,
)

# live Matsubara terms past K after which gdot below x = _DIRECT_X adds their dead weight (_dead_weight): its value is
# then that of the sum stopped at K + _BLOCK_CAP with the rest counted as dead, which perfbench's references record
_BLOCK_CAP = 2_000_000
# elements of the times x explicit-terms table that BrownianMatsubara builds at once
_TABLE_BUDGET = 1 << 16
# times BrownianMatsubara's g and gdot each remember from pointwise calls; a full memo is cleared with the other
_MEMO_TIMES = 1024
# the most times of a call the memo serves: the t1, t2, t1 + t2 of a two-interval call
_MEMO_CALL = 3
# quadrature nodes u -> L(u) that a TimeDomainQuadrature remembers across its integrals; a full memo is cleared
_MEMO_NODES = 1 << 13
_TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max
# the last n of the live terms of g and gdot from x = _DIRECT_X on, ceil(_EXP_DEAD / _DIRECT_X) = 225, and one for
# the rounding of x
_G_LIVE_STOP = math.ceil(_EXP_DEAD / _DIRECT_X) + 1
# h's Taylor terms (-1)^k / k!, k = 2, 3, ..., as a column
_H_TAYLOR_COLUMN = np.array(_H_TAYLOR)[:, None]


def flip_exponent(g1, g2, g12):
    """Exponent 2 g(t1) + 2 g(t2) - g(t1+t2) of a coherence flipped between two intervals.

    The one object shared by the echo response and the flipped-coherence
    propagation kernel.  Takes g at t1, t2 and t1+t2 as scalars or
    broadcastable arrays.
    """
    return 2.0 * g1 + 2.0 * g2 - g12


def _as_times(t):
    """t as a float when it is a float or 0-d, else as a 1-d float array; ValueError for more dimensions.

    Only converts: the times are not checked.
    """
    if type(t) is float:
        return t
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 1:
        return ts
    if ts.ndim:
        raise ValueError(f"times must be a scalar or a 1-d array, got shape {ts.shape}")
    return float(ts)


def _check_times(t, t_max: float = _FLOAT_MAX) -> tuple[np.ndarray, bool, list | None]:
    """(t as a 1-d float array, whether t is a scalar, the list of its times or None); ValueError at the first bad
    time, then _check_range.

    The one time check of every engine, whose method follows the size of
    the call: a float and up to _MEMO_CALL times are checked on Python
    floats (_check_time, _check_list), which costs a pointwise call far
    less than numpy reductions do, and their list is returned for _rows;
    more are checked by two numpy reductions, which cost a grid far less
    than a list of its times does, and the list is None.  The two cross at
    about 80 times.
    """
    ts = t if type(t) is float else _as_times(t)
    if type(ts) is float:
        if not 0.0 <= ts <= t_max:  # a nan fails it too
            _check_range(_check_time(ts), t_max)
        return np.array([ts]), True, [ts]
    if ts.size <= _MEMO_CALL:
        times = ts.tolist()
        _check_list(times, t_max)
        return ts, False, times
    top = float(np.maximum.reduce(ts))
    # min is nan if any time is, so the comparisons fail for nan, inf and negative times alike
    if not (np.minimum.reduce(ts) >= 0.0 and top < math.inf):
        _check_time(ts[np.argmax(~(np.isfinite(ts) & (ts >= 0.0)))])
    _check_range(top, t_max)
    return ts, False, None


def _largest_time(arg_rate: float, growth: float, moduli: float) -> float:
    """The largest float t with arg_rate t <= fmax / 2, growth t <= fmax / 4 and moduli t <= fmax (fmax = _FLOAT_MAX).

    For an engine whose arguments are at most arg_rate t, whose g grows as
    growth t in modulus (plus a constant) and whose terms of g are at most
    moduli t in sum: its g, gdot and their intermediates stay finite up to
    it, to roundoff, and so does the flip exponent 2 g(t1) + 2 g(t2) -
    g(t1 + t2) of times t1 + t2 up to it.
    """
    return min(_FLOAT_MAX, _FLOAT_MAX / max(2.0 * arg_rate, 4.0 * growth, (1.0 + 1e-12) * moduli))


def _check_range(top: float, t_max: float) -> None:
    """DephaserError when the largest time of a call, top, is past the engine's t_max."""
    if top > t_max:
        raise DephaserError(
            f"time {top!r} is past {t_max!r}, the largest time at which this engine's g, gdot and their "
            "intermediates stay finite on this bath"
        )


def _check_list(times: list, t_max: float) -> None:
    """ValueError as _check_time at the first bad time of the list of Python floats times, then _check_range."""
    # a nan or infinite time makes the sum nan or inf, above the finite t_max; with none of them min is the least
    # time and the sum bounds the largest
    if times and not (sum(times) <= t_max and min(times) >= 0.0):
        for s in times:
            _check_time(s)  # raises at the first bad time; none is bad when only the sum is large
        _check_range(max(times), t_max)


def _rows(row, ts: np.ndarray, scalar: bool, times: list | None, *columns: list):
    """row(t, *column values at t) -> complex at every time of a call that _check_times returned as ts, scalar and
    times, as a Python float: the list times when it has one, else ts as a list.

    A Python complex when the times were a scalar, a complex array otherwise.
    """
    values = list(map(row, ts.tolist() if times is None else times, *columns))
    return values[0] if scalar else np.fromiter(values, complex, len(values))


def _complex(re: np.ndarray, im: np.ndarray, scalar: bool):
    """re + i im: a Python complex when the times were a scalar, a complex array otherwise."""
    out = re.astype(complex)
    out.imag = im
    return complex(out[0]) if scalar else out


def _series_terms(neg_x, coef, derivative: bool):
    """Matsubara terms coef (expm1(-x) + x) of g, or coef expm1(-x) of gdot (over neg_x), from neg_x = -x."""
    if derivative:
        e = np.expm1(neg_x, out=neg_x)
    else:
        e = np.expm1(neg_x)
        e -= neg_x
    e *= coef
    return e


def _dead_weight(n: float, a2: float, x: float) -> float:
    """sum_{k > n} e^{-kx} / (k^2 - a^2) for x > 0 and n >= 2a, a^2 = a2: the weight that the sum counts as dead where
    it stops at n while e^{-kx} is still live.

    Its Euler-Maclaurin sum from n (A&S 23.1.30): the integral less f(n) / 2 and the first correction, f(n) (x + 2w) /
    12, f(u) = e^{-ux} / (u^2 - a^2), w = n / (n^2 - a^2); the next is below 1e-20 of the sum at the engine's n >= 2e6
    and n x < 45.  The integral is (1 / n) sum_j r^j E_{2j+2}(z), r = a^2 / n^2 <= 1/4, z = n x, from 1 / (u^2 - a^2)
    = sum_j a^(2j) u^(-2j-2); its first term is e^-z / n - x E1(z).  E_{k+1}(z) = (e^-z - z E_k(z)) / k (A&S 5.1.14)
    from E1, scaled by e^z.
    """
    z = n * x
    r = a2 / (n * n)
    e = _e1_scaled(z)
    k, power, s = 1, 1.0, 0.0
    while True:
        e = (1.0 - z * e) / k  # e^z E_{k+1}(z), k + 1 even
        term = power * e
        s += term
        if term <= 1e-17 * s:
            break
        e = (1.0 - z * e) / (k + 1)
        k += 2
        power *= r
    w = 1.0 / (n * (1.0 - r))
    return math.exp(-z) / n * (s - 0.5 * w + (x + 2.0 * w) * w / 12.0)


class _MatsubaraG:
    """S(x) = sum_{n >= 1, n != m} h(n x) q(n), q(u) = 1 / (u (u - a)(u + a)), h(y) = e^-y + y - 1, for 0 < x <
    _DIRECT_X: Re g's Matsubara part over s0 = eta gamma beta^2 / (2 pi^3), with x = 2 pi t / beta.

    It is the weighted sum of h(u_i x) on the points and weights of spectral._matsubara_nodes (power 0), which the
    analytic L shares, with their Euler-Maclaurin end terms.  The upper tail's integral of h(u x) u^-3 is x^2 M(top x),
    M(z) = int_z^inf h(v) v^-3 dv = h(z) / (2 z^2) + (1 - e^-z) / (2 z) + E1(z) / 2 (by parts; every term positive).

    h cancels at small y, so the weighted sum is taken by groups, the points between consecutive powers of 4: a group
    whose largest y is below _H_SERIES_TOP is h's Taylor series (spectral._H_TAYLOR) of its moments sum_i w_i u_i^k,
    scaled by the group's largest u, kept from the start; from the first other group on, each term is w_i (expm1(-y_i)
    + y_i), whose y_i is at least 1/8 there, so that it cancels to 16 ulp at most.  Within 7.1e-14 of
    tests/_oracle.reference on 14 baths (a from 1.6e-4 to 3000) from t = 1e-9 to x = 0.2, with no K or live term
    read.  DephaserError where a reaches _A_MAX, past which the window's n - a are not exact.

    derivative(x) is S'(x) on the same points, Re gdot's Matsubara part over s1 = eta gamma beta / pi^2: one table
    serves g and gdot.
    """

    def __init__(self, a: float, m: int):
        u, w, ends, zero_end, top = _matsubara_nodes(a, m, *_G_RULE)
        self._top = top
        self._zero_end = zero_end
        # S': the weights u_i w_i, the end terms without x^2 M(top x) and the zero end's x-derivative over x
        self._slopes = u * w
        self._slope_ends = tuple(ends)
        self._zero_slope = tuple(2 * p * d for p, d in enumerate(zero_end, 1))
        # the top end, with the terms of x^2 M(top x) in h(y) and in h'(y)
        _, b0, b1, b = ends[0]
        ends[0] = (top, b0 + 0.5 / (top * top), b1 + 0.5 / top, b)
        self._ends = ends
        self._nodes, self._weights = u, w
        # the groups: the points of each power of 4, at most a factor 4 apart
        ids = np.floor(np.log2(u) * 0.5)
        lasts = np.flatnonzero(ids[1:] != ids[:-1])
        self._tops = np.concatenate((u[lasts], u[-1:]))
        self._top_list = self._tops.tolist()
        starts = self._starts = [0, *(lasts + 1).tolist(), u.size]
        # w r^k, k = 2, 3, ..., of each point's r = u / (its group's largest u), summed by group, times h's Taylor terms
        r = u / np.repeat(self._tops, [b - a for a, b in zip(starts, starts[1:])])
        powers = np.empty((len(_H_TAYLOR), u.size))
        powers[:] = r
        powers[0] *= r * w
        np.multiply.accumulate(powers, axis=0, out=powers)
        self._moments = _H_TAYLOR_COLUMN * np.add.reduceat(powers, self._starts[:-1], axis=1)

    def __call__(self, x: float) -> float:
        # the groups whose largest y is below _H_SERIES_TOP, by their Taylor series; the points of the rest one by one
        g = bisect_left(self._top_list, _H_SERIES_TOP / x)
        s = 0.0
        if g:
            z = self._tops[:g] * x
            powers = np.empty((len(_H_TAYLOR), g))
            powers[:] = z
            powers[0] *= z
            np.multiply.accumulate(powers, axis=0, out=powers)
            s = float(np.vdot(powers, self._moments[:, :g]))
        first = self._starts[g]
        if first < self._nodes.size:
            y = self._nodes[first:] * x
            terms = np.expm1(-y)
            terms += y
            s += float(np.dot(self._weights[first:], terms))
        for u, b0, b1, b in self._ends:
            y = u * x
            p = 0.0
            for bi in reversed(b):
                p = p * x + bi
            s += _h(y) * b0 - x * math.expm1(-y) * b1 + x * x * math.exp(-y) * p
        p = 0.0
        for d in reversed(self._zero_end):
            p = (p + d) * x * x
        s += p
        # the rest of x^2 M(top x): E1(z) = e^-z (e^z E1(z))
        y = self._top * x
        return s + 0.5 * x * x * math.exp(-y) * _e1_scaled(y)

    def derivative(self, x: float) -> float:
        """S'(x) = sum_{n >= 1, n != m} (1 - e^-nx) n q(n): Re gdot's Matsubara part over s1 = eta gamma beta / pi^2.

        The x-derivative of S's sum, term by term: w_i u_i (1 - e^-u_i x), whose factor 1 - e^-y = -expm1(-y) keeps its
        digits at every y, the end terms' and the zero end's derivatives, and the upper tail's int_top^inf (1 - e^-ux)
        u^-2 du = (1 - e^-z) / top + x E1(z), z = top x (by parts).
        """
        e = self._nodes * -x
        np.expm1(e, out=e)
        s = -float(np.dot(self._slopes, e))
        for u, b0, b1, b in self._slope_ends:
            # d/dx of h(y) b0 + x h'(y) b1 + x^2 e^-y P(x), P(x) = sum_i b_i x^i: h'(y)(u b0 + b1) + x e^-y (u b1 +
            # sum_i (2 + i - y) b_i x^i)
            y = u * x
            p = 0.0
            for i in range(len(b) - 1, -1, -1):
                p = p * x + (2 + i - y) * b[i]
            s += -math.expm1(-y) * (u * b0 + b1) + x * math.exp(-y) * (u * b1 + p)
        p = 0.0
        for d in reversed(self._zero_slope):
            p = p * x * x + d
        s += p * x
        z = self._top * x
        return s - math.expm1(-z) / self._top + x * math.exp(-z) * _e1_scaled(z)


def _g_two_interval(evaluator, t1: float, t2: float) -> list:
    """[g(t1), g(t2), g(t1 + t2)] as Python complex numbers at checked float times: the one pointwise route of the
    two-interval kernels and maps.

    An engine that keeps a memo answers from it (its _g_points), with no array made where it holds the three times;
    any other evaluator gets one g call on the three times as an array.
    """
    times = [t1, t2, t1 + t2]
    points = getattr(evaluator, "_g_points", None)
    return evaluator.g(np.array(times)).tolist() if points is None else points(times)


def _g_distinct(evaluator, times) -> np.ndarray:
    """Complex g at every time of the 1-d array times, from one evaluator call on the distinct values."""
    distinct, where = np.unique(times, return_inverse=True)
    return evaluator.g(distinct)[where]


class BrownianMatsubara:
    """Pole-plus-Matsubara series for the overdamped Brownian bath, summed from BathParams.dirichlet().

    g(t) = (pole_c - i pole_im) h(gamma t) + sum_{n >= 1} c_n h(nu_n t), h(y) = e^-y + y - 1, in the names of
    DirichletTable; every h is spectral._h, which keeps its digits at small y.  With include_tail=True (default) the
    sum is exact.  Below x = 2 pi t / beta = _DIRECT_X it is _MatsubaraG's: the window around the pole and the
    Euler-Maclaurin tails, as the analytic L sums its own, and it reads no K; gdot's is that sum's x-derivative on the
    same table, built once at the first such call of either, plus _dead_weight where more than _BLOCK_CAP terms past K
    are live (so that it is the sum stopped at K + _BLOCK_CAP, which perfbench's references record).  From _DIRECT_X
    on each is the K explicit terms, the at most 226 - K live terms past K (exponentials summed until they underflow,
    from one column of nu_n and c_n or B_n per engine) and the table's digamma closed form of the rest.
    include_tail=False keeps the K explicit terms; matsubara_remainder reports what that drops.
    Where a = beta gamma / 2 pi rounds to m >= 1, the pole and the m-th term, wherever it lies, are the
    table's pair: one formula at every detuning from gamma = nu_m.  Only strict truncation with K < m has
    no m-th term to pair with; its truncated sum is singular at gamma = nu_m, and it keeps the bare pole.

    The constructor raises DephaserError where a^2 (a = beta gamma / 2 pi), nu_K^2 or 2 eta / (beta gamma)
    leaves the normal floats (beta gamma < 9.4e-154, 2 pi K / beta > 1.3e154, eta 1e-318 on beta gamma 0.5),
    where gamma^2 or an amplitude of the pole term or the pair overflows (eta 1e300, gamma 1e-8, beta 1e-20) and, with
    the tail, where a digamma prefactor does (eta 1e307, gamma 1, beta 100), and where a c_n of the K terms
    does (gamma 1e153, beta 1e-150).  g and gdot raise it past the largest time the table's amplitudes allow
    (_largest_time), and where a coefficient of the live terms past K overflows (nu_226^2 at beta 6e-152, K = 0,
    x >= _DIRECT_X).  The exact g and gdot raise it below x = _DIRECT_X where a reaches 2^52 and where x^2 leaves the
    normal floats (t below about 2.4e-155 beta); gdot also at a time with more than _BLOCK_CAP live terms past K where
    K + _BLOCK_CAP < 2a, where _dead_weight's series would not converge (beta gamma above about 6.3e6 at K = 100).

    g and gdot take a time or a 1-d array of times.  The K explicit terms of all times are one times x K
    table, summed row by row (the exact g and gdot build it only when a time of the call has x >= _DIRECT_X); the
    pole term and the rest follow time by time, so a time gets the same bits alone as in an array.  A g or gdot call of
    at most _MEMO_CALL (3) times is pointwise: g and gdot each keep a memo, time -> value, and compute only the times it
    lacks; a call of held times is converted but not checked.  An echo row repeats t1, the rows share their t2 axis,
    and a Prepared(t1) curve asks for g(t1) at every point.  Those two-interval kernels read g's memo through
    _g_points on Python floats (_g_two_interval), not through g.  gdot seldom repeats its own times, but the rate of a
    distance asks for gdot at the times of its g: a g miss also computes gdot there, from the same K-term table, and
    fills gdot's memo, which the rate reads through _gdot_points (measures.decay_exponent_rate).  A gdot miss computes
    gdot alone.  Each memo holds at most _MEMO_TIMES (1024) times, and both are cleared when a call could overfill
    either; larger calls (grids, the scan) neither read nor fill them, so memory does not grow with the grid.
    """

    def __init__(self, bath: BathParams, include_tail: bool = True):
        self.bath = bath
        self.beta = bath.beta
        self.include_tail = include_tail
        # the bath of the exact g, whose growth rate has one zero at most (measures); not with a truncated sum
        self.certified_bath = bath if include_tail else None
        gamma = bath.gamma
        k = bath.matsubara_terms
        _normal(bath.pole_ratio * bath.pole_ratio, "(beta gamma / 2 pi)^2")
        _finite(_pow(gamma, 2), "gamma^2")  # in every c_n and B_n
        if k:
            _normal(_pow(float(bath.matsubara_frequency(k)), 2), "nu_K^2")
        d = self._table = bath.dirichlet()
        # m of the pair, or 0 where there is none: a < 1/2, or strict truncation without the m-th term
        m = self._m = d.m if include_tail or d.m <= k else 0
        if m:
            # the pole's rest in g and in gdot (|pole_rest| / gamma < eta / gamma, which is checked), and the pair
            self._pole_c, self._pole_b = d.pole_rest / gamma, d.pole_rest
            self._pair = (d.nu_m, d.m_rest, d.pair_amp, min(gamma, d.nu_m), max(gamma, d.nu_m))
            amps = ((d.pair_amp, "2 eta / beta"),)
        else:
            self._pole_c, self._pole_b = d.pole_c, d.pole_b
            amps = ((d.pole_c, "(eta / gamma) cot(beta gamma / 2)"), (d.pole_b, "eta cot(beta gamma / 2)"))
        for value, what in ((d.pole_im, "eta / gamma"), *amps):
            _finite(value, what)
        _normal(d.rate, "2 eta / (beta gamma)")
        if include_tail:
            self._check_tail_amps()
        nu, _, b = d.explicit
        # the table's nu_n and B_n with their signs flipped, the factors of the table rows, and the rows of one table
        self._neg_nu = -nu
        self._neg_b = -b
        self._table_rows = max(1, _TABLE_BUDGET // max(k, 1))
        # per-bath factors of the row, _g_tail, _gdot_tail and _live_stop formulas, each the value or product its
        # formula starts with (same bits)
        self._k = k
        self._gamma = gamma
        self._neg_gamma = -gamma
        self._dead_beta = _EXP_DEAD * bath.beta
        # S1(K), which gdot reads from x = _DIRECT_X on; S0(K) at the first g that reads it (_g_tail)
        self._s1_k = d.tail_sums(k, True)[1] if include_tail else 0.0
        self._s0_k = None
        # x = 2 pi t / beta is t times this, and the exact g is _MatsubaraG's sum below t_direct, where x < _DIRECT_X
        # (0 with strict truncation, which reads the K terms at every t); s0 turns that sum into Re g's Matsubara part
        self._x_rate = _TWO_PI / bath.beta
        self._t_direct = _DIRECT_X * bath.beta / _TWO_PI if include_tail else 0.0
        self._s0 = bath.eta * gamma * _pow(bath.beta, 2) / (2.0 * math.pi**3)
        # and s1 turns the sum's derivative into Re gdot's; where more than _BLOCK_CAP terms past K are live, that is
        # the exact sum plus _dead_weight(N), N = K + _BLOCK_CAP, which _table.tail_sums(N) counted as dead
        self._s1 = d.tail_amps[0]
        # the engine's Dirichlet coefficients: the pole (its rest when paired), the K terms, the tail's sum and the m-th
        # rest, whose sum is the late-time rate of Re g and whose moduli, with P / min(gamma, nu_m), bound its terms
        pair_b, pair_bound = (d.m_rest, d.pair_amp / self._pair[3]) if m else (0.0, 0.0)
        tail_b = self._s1_k
        # a sum that overflows leaves t_max 0: no positive time is then safe
        with np.errstate(over="ignore"):
            rate = self._pole_b + float(np.add.reduce(b)) + tail_b + pair_b
            moduli = abs(self._pole_b) + float(np.add.reduce(np.abs(b))) + abs(tail_b) + abs(pair_b) + pair_bound
        # the largest nu_n of every call: nu_K of the explicit terms or, with the tail and K = 0, the live terms' nu_1
        nu_top = float(nu[-1]) if k else float(bath.matsubara_frequency(1)) if include_tail else 0.0
        arg_rate = max(gamma, nu_top, d.nu_m if m else 0.0)
        self._t_max = _largest_time(arg_rate, abs(rate) + bath.eta, moduli)
        # time -> g(t) and time -> gdot(t) of the pointwise calls, cleared together
        self._g_memo = {}
        self._gdot_memo = {}
        # built at their first use: the small-x sums of g and gdot (_small_x), and the live terms past K of g and of
        # gdot from x = _DIRECT_X on (_live).  Set here, and not as cached properties, whose writes to the instance's
        # __dict__ would slow every attribute read of the engine's rows
        self._small_x_sum = self._g_live = self._gdot_live = None

    def _check_tail_amps(self) -> None:
        """DephaserError where a prefactor of the digamma sums of DirichletTable.tail_sums overflows."""
        for value, what in zip(self._table.tail_amps, ("eta gamma beta / pi^2", "eta gamma beta^2 / (2 pi^3 a^2)")):
            _finite(value, what)

    def _live_stop(self, t: float) -> int:
        """Last n of the live terms past K at time t, or 0 when every e^{-nu_n t} with n > K is dead.

        At t >= t_direct that is at most ceil(_EXP_DEAD / _DIRECT_X) = 225 or, by the rounding of x, 226.
        """
        n_osc = math.ceil(self._dead_beta / (_TWO_PI * t))
        return 0 if n_osc <= self._k else n_osc

    def _live(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(nu_n, c_n ("c") or B_n ("b")) of n = K + 1, ..., _G_LIVE_STOP, with the m-th 0."""
        nu = self.bath.matsubara_frequency(np.arange(self._k + 1.0, _G_LIVE_STOP + 1.0))
        return nu, self._table._coefficient(name, nu, self._k + 1)

    def _small_x(self, t: float) -> float:
        """x = 2 pi t / beta below t_direct, with the _MatsubaraG of g and gdot built at the first call of either.

        DephaserError where x^2 leaves the normal floats.
        """
        x = t * self._x_rate
        if not x * x >= sys.float_info.min:
            raise DephaserError(
                f"time {t!r} is too small for the Matsubara sum of g and gdot: (2 pi t / beta)^2 = {x * x!r} leaves "
                "the normal floats"
            )
        if self._small_x_sum is None:
            self._small_x_sum = _MatsubaraG(self.bath.pole_ratio, self._m)
        return x

    def _matsubara_g(self, t: float) -> float:
        """The exact Matsubara part of Re g(t) below t_direct."""
        x = self._small_x(t)
        return self._s0 * self._small_x_sum(x)

    def _matsubara_gdot(self, t: float) -> float:
        """The Matsubara part of Re gdot(t) below t_direct: exact, plus _dead_weight where more than _BLOCK_CAP terms
        past K are live.

        DephaserError where x^2 leaves the normal floats, and at such a time where N = K + _BLOCK_CAP < 2a.
        """
        x = self._small_x(t)
        re = self._s1 * self._small_x_sum.derivative(x)
        n = self._k + _BLOCK_CAP
        # ceil(v) > N exactly when v > N
        if self._dead_beta / (_TWO_PI * t) > n:
            a = self._table.a
            if n < 2.0 * a:
                raise DephaserError(
                    f"time {t!r} has more than {_BLOCK_CAP} live Matsubara terms past K, and beta gamma / 2 pi = "
                    f"{a!r} is past half of K + {_BLOCK_CAP}, where their dead weight is not summed"
                )
            re += self._s1 * _dead_weight(float(n), a * a, x)
        return re

    def _g_tail(self, t: float) -> float:
        """The n > K part of g(t) from t_direct on: its at most _G_LIVE_STOP - K live terms, then the digamma rest."""
        # ceil(x) <= K exactly when x <= K, so this is _live_stop(t) == 0 without its call
        if self._dead_beta / (_TWO_PI * t) <= self._k:
            s0 = self._s0_k
            if s0 is None:
                s0 = self._s0_k = self._table.tail_sums(self._k)[0]
            return t * self._s1_k - s0
        n_stop = self._live_stop(t)
        live = n_stop - self._k
        if self._g_live is None:
            self._g_live = self._live("c")
        nu, c = self._g_live
        terms = float(np.add.reduce(_series_terms(nu[:live] * -t, c[:live], False)))
        s0, s1 = self._table.tail_sums(n_stop)
        return terms + t * s1 - s0

    def _gdot_tail(self, t: float) -> float:
        """The n > K part of gdot(t) from t_direct on: at most _G_LIVE_STOP - K live terms, then the digamma rest."""
        if self._dead_beta / (_TWO_PI * t) <= self._k:
            return self._s1_k
        n_stop = self._live_stop(t)
        live = n_stop - self._k
        if self._gdot_live is None:
            self._gdot_live = self._live("b")
        nu, b = self._gdot_live
        # the terms with B_n are B_n expm1(-nu_n t), the negated terms of Re gdot
        block = -float(np.add.reduce(_series_terms(nu[:live] * -t, b[:live], True)))
        return block + self._table.tail_sums(n_stop, True)[1]

    def _explicit(self, ts: np.ndarray, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) sum of the K explicit terms at every time, each an array where asked for and None where not:
        c_n h(nu_n t) and -c_n nu_n expm1(-nu_n t).  Both come from one expm1(-nu_n t) table, g's as (e + nu_n t) c_n
        and gdot's as e (-B_n); strict truncation takes g's h by _h, which keeps its digits at small nu_n t.

        The times x K table is built at most _TABLE_BUDGET elements at a
        time (one row when K alone exceeds it), and each row is summed as
        the 1-d sum of its K terms is.
        """
        rows = self._table_rows
        if ts.size > rows:
            parts = [self._explicit(ts[i : i + rows], g, gdot) for i in range(0, ts.size, rows)]
            return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))
        c = self._table.explicit[1]
        g_sum = gdot_sum = None
        exact_g = g and self.include_tail
        if g and not exact_g:
            terms = _h(ts[:, None] * -self._neg_nu)
            terms *= c
            g_sum = np.add.reduce(terms, axis=1)
        if exact_g or gdot:
            neg_x = ts[:, None] * self._neg_nu
            # e takes neg_x's place unless g's terms still read it, so a call of one sum makes one table
            e = np.expm1(neg_x, out=None if exact_g else neg_x)
            if exact_g:  # the exact g sums them only at x >= _DIRECT_X, where nu_n t >= 1/5 cancels to 10 ulp
                terms = np.subtract(e, neg_x, out=neg_x)
                terms *= c
                g_sum = np.add.reduce(terms, axis=1)
            if gdot:
                e *= self._neg_b
                gdot_sum = np.add.reduce(e, axis=1)
        return g_sum, gdot_sum

    def _g_row(self, t: float, explicit: float) -> complex:
        if t == 0.0:
            return 0j
        # _h, whose expm1 branch is written out here: this is the hot path of pointwise calls
        y = self._gamma * t
        hg = math.expm1(-y) + y if y >= _H_SERIES_TOP else _h(y)
        exact = t < self._t_direct
        re = self._pole_c * hg if exact else explicit + self._pole_c * hg
        if self._m:  # the rest of the pair: m_rest h(nu_m t) / nu_m + P H, H over [gamma, nu_m]
            nu, m_rest, amp, lo, hi = self._pair
            y = nu * t
            h_m = math.expm1(-y) + y if y >= _H_SERIES_TOP else _h(y)
            re += m_rest / nu * h_m + amp * _h_divided_difference(lo, hi, t)
        if exact:
            re += self._matsubara_g(t)
        elif self.include_tail:
            re += self._g_tail(t)
        return complex(re, -self._table.pole_im * hg)

    def _gdot_row(self, t: float, explicit: float) -> complex:
        if t == 0.0:
            return 0j
        em = math.expm1(self._neg_gamma * t)
        exact = t < self._t_direct
        re = self._pole_b * (-em) if exact else explicit + self._pole_b * (-em)
        if self._m:  # the rest of the pair: m_rest (1 - e^{-nu_m t}) - P E, E over [gamma, nu_m]
            nu, m_rest, amp, lo, hi = self._pair
            re += m_rest * -math.expm1(-nu * t) - amp * _exp_divided_difference(lo, hi, t)
        if exact:
            re += self._matsubara_gdot(t)
        elif self.include_tail:
            re += self._gdot_tail(t)
        return complex(re, self.bath.eta * em)

    def g(self, t):
        """g at a time (a complex) or at every time of a 1-d array (a complex array).

        A call of at most _MEMO_CALL times looks its times up in the memo and
        returns at once when the memo holds them all: a held time was checked
        when it was stored.  Otherwise it checks its times, builds the table of
        all of them and stores the row step of each time the memo lacks, and
        gdot's at those times in gdot's memo (_g_fill).  A larger call leaves
        the memos alone.  A time's value is its own table row
        and row step either way, so its bits do not depend on the path.
        """
        # _as_times leaves a float as it is; a held float, the commonest call, skips calling it and is one lookup
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._g_memo.get(t)
            return self._g_fill([t], [None])[0] if value is None else value
        if t.size > _MEMO_CALL:
            return _rows(self._g_row, t, False, None, self._grid_sums(t, False))
        return np.fromiter(self._g_points(t.tolist(), t), complex, t.size)

    def _grid_sums(self, ts: np.ndarray, derivative: bool) -> list:
        """The explicit sums of g or of gdot at every time of a call of more than _MEMO_CALL times, after checking them,
        as a list; zeros, with no table built, when no time has x >= _DIRECT_X (the exact engine reads no K below)."""
        if _check_times(ts, self._t_max)[0].max(initial=0.0) < self._t_direct:
            return [0.0] * ts.size
        return self._explicit(ts, not derivative, derivative)[derivative].tolist()

    def _g_points(self, times: list, ts: np.ndarray | None = None) -> list:
        """g at the Python floats of a pointwise call, at most _MEMO_CALL of them, as a list of Python complex numbers;
        ts is the times' array where the caller has one.

        The memo is looked up once; a call of held times returns at once, with no array made.
        """
        values = list(map(self._g_memo.get, times))
        return self._g_fill(times, values, ts) if None in values else values

    def _gdot_points(self, times: list, ts: np.ndarray | None = None) -> list:
        """gdot at the Python floats of a pointwise call, as _g_points gives g, from gdot's memo."""
        values = list(map(self._gdot_memo.get, times))
        return self._gdot_fill(times, values, ts) if None in values else values

    def _g_fill(self, times: list, values: list, ts: np.ndarray | None = None) -> list:
        """values, g's memo's values at times, with each None replaced by g at its time, which the memo then holds.

        The row step runs for each time the memo lacks, on the table of all the times (_pointwise_sums).  Each such
        time that gdot's memo lacks takes gdot's row step too, on the same table, and gdot's memo holds it: the rate of
        a distance asks for gdot at the times of its g.  Where that step raises DephaserError, g keeps its value and
        gdot's memo its gap, for gdot to raise at its own call.
        """
        memo, dots = self._g_memo, self._gdot_memo
        new = [i for i, v in enumerate(values) if v is None]
        paired = [i for i in new if times[i] not in dots]
        explicit, slopes = self._pointwise_sums(times, ts, True, bool(paired))
        for i in new:
            s = times[i]
            values[i] = memo[s] = self._g_row(s, explicit[i])
        for i in paired:
            s = times[i]
            try:
                dots[s] = self._gdot_row(s, slopes[i])
            except DephaserError:
                pass
        return values

    def _gdot_fill(self, times: list, values: list, ts: np.ndarray | None = None) -> list:
        """values, gdot's memo's values at times, with each None replaced by gdot at its time, which the memo then
        holds; g's row step does not run, so gdot builds none of g's sums."""
        memo = self._gdot_memo
        _, slopes = self._pointwise_sums(times, ts, False, True)
        for i, v in enumerate(values):
            if v is None:
                s = times[i]
                values[i] = memo[s] = self._gdot_row(s, slopes[i])
        return values

    def _pointwise_sums(self, times: list, ts: np.ndarray | None, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) explicit sums at the Python floats times of a pointwise call, as lists where asked for, after
        checking the times; both memos are cleared where the call could overfill either.

        The table is built from ts or, without it, from an array made of times, and only when a time has x >=
        _DIRECT_X: below it the exact engine reads no K term, and the sums are zeros.
        """
        _check_list(times, self._t_max)
        memo, dots = self._g_memo, self._gdot_memo
        if len(memo) + len(times) > _MEMO_TIMES or len(dots) + len(times) > _MEMO_TIMES:
            memo.clear()
            dots.clear()
        if max(times) < self._t_direct:
            zeros = [0.0] * len(times)
            return zeros, zeros
        # the table costs its few ufunc calls whatever its rows, so it is built for every time of the call
        g_sum, gdot_sum = self._explicit(np.array(times) if ts is None else ts, g, gdot)
        return g_sum.tolist() if g else None, gdot_sum.tolist() if gdot else None

    def gdot(self, t):
        """gdot at a time (a complex) or at every time of a 1-d array (a complex array).

        As g's: a call of at most _MEMO_CALL times reads gdot's memo, which g's pointwise calls fill too, and computes
        and stores gdot alone at the times it lacks; a larger call leaves both memos alone.
        """
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._gdot_memo.get(t)
            return self._gdot_fill([t], [None])[0] if value is None else value
        if t.size > _MEMO_CALL:
            return _rows(self._gdot_row, t, False, None, self._grid_sums(t, True))
        return np.fromiter(self._gdot_points(t.tolist(), t), complex, t.size)

    def matsubara_remainder(self, t: float) -> complex:
        """Exact value of the n > K part of g(t) that strict truncation drops, the m-th term included: Re g of the
        exact engine less Re g of strict truncation.

        DephaserError where either engine's constructor raises, such as where a prefactor of the digamma sums
        overflows, and at K < m with gamma = nu_m exactly, where the m-th term is infinite.
        """
        t = _check_time(t)
        d = self._table
        if d.m > self._k:
            _normal(d.nu_m * d.nu_m - self._gamma * self._gamma, f"nu_{d.m}^2 - gamma^2")
        exact, strict = (BrownianMatsubara(self.bath, tail) for tail in (True, False))
        return complex(exact.g(t).real - strict.g(t).real, 0.0)


class HighTemperatureBrownian:
    """beta*gamma -> 0 closed form: g(t) = (2 eta/(beta gamma^2) - i eta/gamma) h(gamma t).

    g and gdot take a time or a 1-d array of times, computed on the whole
    array.  DephaserError where beta gamma^2, beta gamma or 2 eta over either
    leaves the normal floats (magnitude below 2.2e-308, or infinite), where
    eta / gamma overflows, and at a time past _largest_time of its own
    amplitudes.
    """

    def __init__(self, bath: BathParams):
        self.bath = self.certified_bath = bath
        self.beta = bath.beta
        eta, gamma, beta = bath.eta, bath.gamma, bath.beta
        self._g_amp = _normal(2.0 * eta / _normal(beta * _pow(gamma, 2), "beta gamma^2"), "2 eta / (beta gamma^2)")
        self._gdot_amp = _normal(-2.0 * eta / _normal(beta * gamma, "beta gamma"), "2 eta / (beta gamma)")
        self._im_g_amp = -_finite(eta / gamma, "eta / gamma")
        # the argument gamma t; Re g grows as 2 eta t / (beta gamma), Im g as eta t
        self._t_max = _largest_time(gamma, eta - self._gdot_amp, 0.0)

    def g(self, t):
        ts, scalar, _ = _check_times(t, self._t_max)
        p = self.bath
        hg = _h(p.gamma * ts)
        return _complex(self._g_amp * hg, self._im_g_amp * hg, scalar)

    def gdot(self, t):
        ts, scalar, _ = _check_times(t, self._t_max)
        em = np.expm1(-self.bath.gamma * ts)
        return _complex(self._gdot_amp * em, self.bath.eta * em, scalar)


class FrequencyQuadrature:
    """Adaptive integration of the spectral representation of g.

    Re g(t) = (1/pi) int (J/w^2) coth(beta w/2) (1 - cos w t) dw and the
    imaginary part analogously.  Below a split frequency the integrand is
    handled as written (1 - cos as 2 sin^2); above it the non-oscillatory
    factor decays like 1/w and the cos/sin moments are computed by the
    Fourier integrator, which is what makes the conditionally convergent
    tails reliable.  Constant tail moments are cached at construction.
    g and gdot take a time or a 1-d array of times, integrated one by one;
    a Brownian density raises DephaserError at 0 < t < 3e-4 / w_split.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        self.bath = self.certified_bath = _brownian_bath(sd, beta)
        if self.bath is not None:
            self.w_split = _split_frequency(self.bath)
            self._t_min = _FOURIER_MIN_TW / self.w_split
            # int_{w_split}^inf (J/w^2) coth dw and int_0^inf (J/w) dw
            self._tail_rc = integrate_to_inf(
                lambda w: self._f_rc(w), self.w_split, tag="coth tail moment"
            )
            self._j1_total = integrate_finite(
                lambda w: self._j_over_w(w), 0.0, self.w_split, tag="J/w"
            ) + integrate_to_inf(lambda w: self._j_over_w(w), self.w_split, tag="J/w tail")

    def _j_over_w(self, w):
        p = self.bath
        return 2.0 * p.eta * p.gamma / (w * w + p.gamma * p.gamma)

    def _f_rc(self, w):
        # (J/w^2) coth(beta w / 2)
        return self._j_over_w(w) / w * coth(0.5 * self.beta * w)

    def _f_r1(self, w):
        return self._j_over_w(w) * coth(0.5 * self.beta * w)

    def g(self, t):
        return self._map(self._g, t)

    def gdot(self, t):
        return self._map(self._gdot, t)

    def _map(self, row, t):
        """row at every time of t after _check_times; DephaserError at the first 0 < t < t_min of a Brownian density."""
        ts, scalar, times = _check_times(t)
        for s in ts.tolist() if self.bath is not None else ():
            if 0.0 < s < self._t_min:
                raise DephaserError(
                    f"time {s!r} is below the validated domain of freq-quad, "
                    f"t >= {_FOURIER_MIN_TW:g} / w_split = {self._t_min!r}"
                )
        return _rows(row, ts, scalar, times)

    def _g(self, t: float) -> complex:
        if t == 0.0:
            return 0j
        if self.bath is None:
            return self._g_tabulated(t)
        ws = self.w_split
        re = integrate_finite(
            lambda w: self._f_rc(w) * 2.0 * math.sin(0.5 * w * t) ** 2,
            0.0,
            ws,
            tag="Re g",
        )
        re += self._tail_rc - integrate_fourier_tail(self._f_rc, ws, t, "cos", tag="Re g tail")
        im = t * self._j1_total
        im -= integrate_finite(
            lambda w: self._j_over_w(w) / w * math.sin(w * t), 0.0, ws, tag="Im g"
        )
        im -= integrate_fourier_tail(
            lambda w: self._j_over_w(w) / w, ws, t, "sin", tag="Im g tail"
        )
        return complex(re / math.pi, -im / math.pi)

    def _gdot(self, t: float) -> complex:
        if t == 0.0:
            return 0j
        if self.bath is None:
            return self._gdot_tabulated(t)
        ws = self.w_split
        re = integrate_finite(
            lambda w: self._f_r1(w) * math.sin(w * t), 0.0, ws, tag="Re gdot"
        )
        re += integrate_fourier_tail(self._f_r1, ws, t, "sin", tag="Re gdot tail")
        im = self._j1_total
        im -= integrate_finite(
            lambda w: self._j_over_w(w) * math.cos(w * t), 0.0, ws, tag="Im gdot"
        )
        im -= integrate_fourier_tail(self._j_over_w, ws, t, "cos", tag="Im gdot tail")
        return complex(re / math.pi, -im / math.pi)

    def _g_tabulated(self, t: float) -> complex:
        w = self.sd.omega
        jw = self.sd.values
        therm = jw / w**2 * coth(0.5 * self.beta * w)
        re = np.trapezoid(therm * 2.0 * np.sin(0.5 * w * t) ** 2, w)
        im = np.trapezoid(jw / w**2 * (w * t - np.sin(w * t)), w)
        return complex(re / math.pi, -im / math.pi)

    def _gdot_tabulated(self, t: float) -> complex:
        w = self.sd.omega
        jw = self.sd.values
        re = np.trapezoid(jw / w * coth(0.5 * self.beta * w) * np.sin(w * t), w)
        im = np.trapezoid(jw / w * (1.0 - np.cos(w * t)), w)
        return complex(re / math.pi, -im / math.pi)


class TimeDomainQuadrature:
    """Nested quadrature g(t) = int_0^t (t - u) L(u) du.

    The inner correlation function is the closed-form Brownian expression
    (or a grid integral for tabulated densities), so this route shares no
    machinery with the series or frequency-domain engines.  The adaptive
    rule resolves the integrable log singularity of Re L at u = 0.  g and
    gdot take a time or a 1-d array of times, integrated one by one.

    Every integral on [0, t] starts with the same 21-point Gauss-Kronrod
    rule and bisects toward u = 0, so Re and Im of g and gdot at one t
    ask for L at the same nodes.  L is evaluated once per node: a memo,
    node u -> L(u), serves every integral of the engine and returns the
    same value object, so a value's bits do not depend on the order of
    the calls.  It holds at most _MEMO_NODES (8192) nodes and is cleared
    when full, so a grid of g followed by its gdot shares little.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        self.bath = self.certified_bath = _brownian_bath(sd, beta)
        if self.bath is not None:
            self._corr = BrownianCorrelation(self.bath)
        else:
            therm = sd.values * coth(0.5 * beta * sd.omega)
            self._corr = lambda u: _tabulated_grid(sd, therm, u)
        # node u -> L(u), shared by all the integrals of this engine (_corr_at)
        self._nodes = {}

    def g(self, t):
        return _rows(lambda s: self._integral(s, False), *_check_times(t))

    def gdot(self, t):
        return _rows(lambda s: self._integral(s, True), *_check_times(t))

    def _corr_at(self, u: float) -> complex:
        """L(u) from the memo of nodes, or evaluated and stored there; a node where L raises stores nothing."""
        value = self._nodes.get(u)
        if value is None:
            if len(self._nodes) >= _MEMO_NODES:
                self._nodes.clear()
            value = self._nodes[u] = self._corr(u)
        return value

    def _integral(self, t: float, derivative: bool) -> complex:
        """int_0^t w(u) L(u) du with w = t - u (g) or 1 (gdot); Re and Im integrated apart."""
        if t == 0.0:
            return 0j
        corr = self._corr_at
        w = (lambda u: 1.0) if derivative else (lambda u: t - u)
        name = "gdot" if derivative else "g"
        re = integrate_finite(lambda u: w(u) * corr(u).real, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag=f"Re {name}")
        im = integrate_finite(lambda u: w(u) * corr(u).imag, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag=f"Im {name}")
        return complex(re, im)


# constructor of each engine from a Brownian bath, by name
_ENGINES = {
    "analytic": BrownianMatsubara,
    "hight": HighTemperatureBrownian,
    "freq-quad": lambda bath: FrequencyQuadrature(OverdampedBrownian(bath), bath.beta),
    "time-quad": lambda bath: TimeDomainQuadrature(OverdampedBrownian(bath), bath.beta),
}
ENGINE_NAMES = tuple(_ENGINES)


def make_evaluator(engine: str, bath: BathParams):
    """Construct a g(t) evaluator for the Brownian bath by engine name, one of ENGINE_NAMES."""
    make = _ENGINES.get(engine)
    if make is None:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
    return make(bath)
