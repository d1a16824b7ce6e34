"""Lineshape (dephasing) function g(t) of a pure-dephasing two-level system.

g is the double time integral of the bath correlation function,

    g(t) = int_0^t dtau (t - tau) L(tau),

and its derivative gdot(t) = int_0^t dtau L(tau).  Four interchangeable
evaluators are provided:

  * BrownianMatsubara: the pole-plus-Matsubara series, exact
    (include_tail=True, the default) or truncated strictly at K terms.
    Below x = 2 pi t / beta = 0.2 its exact Re g and Re gdot sum the
    Matsubara terms on the nodes of the analytic L's sum (_MatsubaraG, one
    table for both); from there they sum their L <= 226 live terms and
    the sums past them, two running sums per engine, and read no K.  Its
    digamma is spectral._digamma, which runs only where the engine and
    those sums are built, and never without a pair, so it and
    HighTemperatureBrownian load no scipy; only the two quadrature
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
also fills gdot's memo there from the same row step, since the rate of a
distance asks for gdot where the distance asked for g.  The two-interval
kernels take g at t1, t2 and t1 + t2 by one route, _g_two_interval: from
that memo in one lookup per time (a miss passes them to _fill), or from
one g call on the three times as an array for an evaluator without one.
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
# elements of strict truncation's times x K table built at once
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
# the most live terms that a time sums on Python floats, in every route; a time with more sums one numpy row of them,
# which math.expm1 would not give the bits of.  Measured per L on a g miss, which takes both halves (86 % of the live
# times of param_sweep): the loop costs about 3 us and 0.12 us a term, the row 7.3 us, and they cross between L = 32
# and 36.  A gdot-only time sums gdot's terms alone (4.4 us at L = 32), at g's threshold, so gdot has one set of bits
_LIVE_FLOATS = 32
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


def _running_sums(first: float, terms: list) -> list:
    """[first, first + terms[0], first + terms[0] + terms[1], ...], each the running sum plus its compensation
    (Neumaier), so that it is off by about an ulp of itself, not by the roundings of every partial sum."""
    s, comp = first, 0.0
    sums = [first]
    for v in terms:
        total = s + v
        comp += (s - total) + v if abs(s) >= abs(v) else (v - total) + s
        s = total
        sums.append(s + comp)
    return sums


def _held(values: list) -> memoryview:
    """values as a memoryview of a float64 array: 8 bytes a value where a list of floats takes 32, and each read back
    as a Python float."""
    return memoryview(np.array(values))


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
    """(S(x), S'(x)) for 0 < x < _DIRECT_X: S(x) = sum_{n >= 1, n != m} h(n x) q(n), q(u) = 1 / (u (u - a)(u + a)), h(y)
    = e^-y + y - 1, is Re g's Matsubara part over s0 = eta gamma beta^2 / (2 pi^3), with x = 2 pi t / beta, and S'(x) =
    sum_{n >= 1, n != m} (1 - e^-nx) n q(n) Re gdot's over s1 = eta gamma beta / pi^2.

    S is the weighted sum of h(u_i x) on the points and weights of spectral._matsubara_nodes (power 0), which the
    analytic L shares, with their Euler-Maclaurin end terms.  The upper tail's integral of h(u x) u^-3 is x^2 M(top x),
    M(z) = int_z^inf h(v) v^-3 dv = h(z) / (2 z^2) + (1 - e^-z) / (2 z) + E1(z) / 2 (by parts; every term positive).
    S' is its x-derivative term by term: w_i u_i (1 - e^-u_i x), whose factor 1 - e^-y = -expm1(-y) keeps its digits at
    every y, the end terms' and the zero end's derivatives, and the upper tail's int_top^inf (1 - e^-ux) u^-2 du = (1 -
    e^-z) / top + x E1(z), z = top x (by parts).  A call takes the one or both of them that its row step asks for, from
    one expm1(-u_i x) over the points, whose end terms and top share their exponentials: the row of a g miss takes
    both, and S' reads every point's e = expm1(-y) where S reads e + y from its first group past the Taylor series.

    h cancels at small y, so S's weighted sum is taken by groups, the points between consecutive powers of 4: a group
    whose largest y is below _H_SERIES_TOP is h's Taylor series (spectral._H_TAYLOR) of its moments sum_i w_i u_i^k,
    scaled by the group's largest u, kept from the first call that asks for S; from the first other group on, each
    term is w_i (expm1(-y_i) + y_i), whose y_i is at least 1/8 there, so that it cancels to 16 ulp at most.  Within
    7.1e-14 of tests/_oracle.reference on 14 baths (a from 1.6e-4 to 3000) from t = 1e-9 to x = 0.2, with no K or live
    term read.  DephaserError where a reaches _A_MAX, past which the window's n - a are not exact.
    """

    def __init__(self, a: float, m: int):
        u, w, ends, zero_end, top = _matsubara_nodes(a, m, *_G_RULE)
        self._top = top
        self._zero_end = zero_end
        # S': the weights u_i w_i and the zero end's x-derivative over x
        self._slopes = u * w
        self._zero_slope = tuple(2 * p * d for p, d in enumerate(zero_end, 1))
        # each end's u, b0, b1 and b_i of S, and u b0 + b1 and u b1 of S'; the top's b0 and b1 in S take the terms of
        # x^2 M(top x) in h(y) and in h'(y)
        ends = [(v, b0, b1, b, v * b0 + b1, v * b1) for v, b0, b1, b in ends]
        _, b0, b1, b, d0, d1 = ends[0]
        ends[0] = (top, b0 + 0.5 / (top * top), b1 + 0.5 / top, b, d0, d1)
        self._ends = ends
        self._nodes, self._weights = u, w
        # S's groups and their moments, which S' does not read: built at the first call that asks for S
        self._moments = None

    def _group(self) -> None:
        """The groups, the points of each power of 4, at most a factor 4 apart: their largest u and first points, and
        their moments."""
        u = self._nodes
        ids = np.floor(np.log2(u) * 0.5)
        lasts = np.flatnonzero(ids[1:] != ids[:-1])
        self._tops = np.concatenate((u[lasts], u[-1:]))
        self._top_list = self._tops.tolist()
        starts = self._starts = [0, *(lasts + 1).tolist(), u.size]
        # w r^k, k = 2, 3, ..., of each point's r = u / (its group's largest u), summed by group, times h's Taylor terms
        r = u / np.repeat(self._tops, [b - a for a, b in zip(starts, starts[1:])])
        powers = np.empty((len(_H_TAYLOR), u.size))
        powers[:] = r
        powers[0] *= r * self._weights
        np.multiply.accumulate(powers, axis=0, out=powers)
        self._moments = _H_TAYLOR_COLUMN * np.add.reduceat(powers, starts[:-1], axis=1)

    def __call__(self, x: float, g: bool, gdot: bool) -> tuple:
        """(S(x) where g, S'(x) where gdot), each None where not asked for."""
        k = first = 0
        if g:
            if self._moments is None:
                self._group()
            # the groups whose largest y is below _H_SERIES_TOP by their Taylor series, the rest's points one by one
            k = bisect_left(self._top_list, _H_SERIES_TOP / x)
            first = self._starts[k]
        # -u_i x and expm1(-u_i x) of the points from lo: all of them for S', those from first for S alone; e takes
        # neg's place where S does not read it
        lo = 0 if gdot else first
        neg = (self._nodes[lo:] if lo else self._nodes) * -x
        e = np.expm1(neg, out=None if g else neg)
        s = ds = 0.0
        if k:
            z = self._tops[:k] * x
            powers = np.empty((len(_H_TAYLOR), k))
            powers[:] = z
            powers[0] *= z
            np.multiply.accumulate(powers, axis=0, out=powers)
            s = float(np.vdot(powers, self._moments[:, :k]))
        if g and first < self._nodes.size:
            s += float(np.dot(self._weights[first:], e[first - lo :] - neg[first - lo :]))  # expm1(-y) + y
        if gdot:
            ds = -float(np.dot(self._slopes, e))
        for u, b0, b1, b, d0, d1 in self._ends:
            y = u * x
            em = math.expm1(-y)
            ey = math.exp(-y)
            if g:  # h(y) b0 - x expm1(-y) b1 + x^2 e^-y P(x), P(x) = sum_i b_i x^i
                p = 0.0
                for bi in reversed(b):
                    p = p * x + bi
                s += (em + y if y >= _H_SERIES_TOP else _h(y)) * b0 - x * em * b1 + x * x * ey * p
            if gdot:  # its d/dx with the b0 and b1 of S': h'(y)(u b0 + b1) + x e^-y (u b1 + sum_i (2 + i - y) b_i x^i)
                p = 0.0
                for i in range(len(b) - 1, -1, -1):
                    p = p * x + (2 + i - y) * b[i]
                ds += -em * d0 + x * ey * (d1 + p)
        if g:
            p = 0.0
            for d in reversed(self._zero_end):
                p = (p + d) * x * x
            s += p
        if gdot:
            p = 0.0
            for d in reversed(self._zero_slope):
                p = p * x * x + d
            ds += p * x
        # the rest of x^2 M(top x) and its derivative: E1(z) = e^-z (e^z E1(z))
        y = self._top * x
        ey, e1 = math.exp(-y), _e1_scaled(y)
        return (
            s + 0.5 * x * x * ey * e1 if g else None,
            ds - math.expm1(-y) / self._top + x * ey * e1 if gdot else None,
        )


def _g_two_interval(evaluator, t1: float, t2: float) -> list:
    """[g(t1), g(t2), g(t1 + t2)] as Python complex numbers at checked float times: the one pointwise route of the
    two-interval kernels and maps.

    An engine that keeps a memo (BrownianMatsubara's _g_memo) answers from it in three lookups where it holds the three
    times, and else hands the looked-up values to its _fill; any other evaluator gets one g call on them as an array.
    """
    t12 = t1 + t2
    try:
        memo = evaluator._g_memo
    except AttributeError:
        return evaluator.g(np.array([t1, t2, t12])).tolist()
    g1, g2, g12 = memo.get(t1), memo.get(t2), memo.get(t12)
    if g1 is None or g2 is None or g12 is None:
        return evaluator._fill([t1, t2, t12], [g1, g2, g12], False)
    return [g1, g2, g12]


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
    on each is the L = min(ceil(45 beta / (2 pi t)), 226) live terms, whose exponentials are summed until they
    underflow, and G1[L] and G0[L], the sums of B_n and c_n past them (_live_sums): one 226-term table and two
    running sums per engine, and no K.  K shapes the exact engine only through its largest time and _dead_weight.
    include_tail=False keeps the K explicit terms; matsubara_remainder reports what that drops.
    Where a = beta gamma / 2 pi rounds to m >= 1, the pole and the m-th term, wherever it lies, are the
    table's pair: one formula at every detuning from gamma = nu_m.  Only strict truncation with K < m has
    no m-th term to pair with; its truncated sum is singular at gamma = nu_m, and it keeps the bare pole.

    The constructor raises DephaserError where a^2 (a = beta gamma / 2 pi), nu_K^2 or 2 eta / (beta gamma)
    leaves the normal floats (beta gamma < 9.4e-154, 2 pi K / beta > 1.3e154, eta 1e-318 on beta gamma 0.5),
    where gamma^2 or an amplitude of the pole term or the pair overflows (eta 1e300, gamma 1e-8, beta 1e-20) and, with
    the tail, where a digamma prefactor does (eta 1e307, gamma 1, beta 100), and where a c_n of the K terms
    does (gamma 1e153, beta 1e-150).  g and gdot raise it past the largest time the table's amplitudes allow
    (_largest_time), and where a coefficient of the live terms' table overflows: it holds n = 1, ..., 226 whatever L
    a time reads, so at beta 6e-152 (nu_n^2 overflows from n = 129) the exact g and gdot raise from x = _DIRECT_X on
    at every K, also at 1 <= K <= 13, whose K terms fit.  The exact g and gdot raise it below x = _DIRECT_X where a
    reaches 2^52 and where x^2 leaves the normal floats (t below about 2.4e-155 beta); gdot also at a time with more
    than _BLOCK_CAP live terms past K where K + _BLOCK_CAP < 2a, where _dead_weight's series would not converge (beta
    gamma above about 6.3e6 at K = 100).

    g and gdot take a time or a 1-d array of times.  The Matsubara sums of a call's times (_sums) are strict
    truncation's one times x K table, summed row by row, or the exact engine's live sums from _DIRECT_X on: L <= 32
    terms on Python floats (_LIVE_FLOATS), more as one numpy row per time.  The pole term, the pair and those sums
    follow time by time in one row step (_row), so a time gets the same bits alone as in an array.  The row step takes
    g's half, gdot's or both, which share the pole's and the pair's expm1 and the rest's exponentials: one _MatsubaraG
    call below _DIRECT_X, one expm1 over the live terms from there.  A g or gdot call of at most _MEMO_CALL (3) times is
    pointwise: g and gdot each keep a memo, time -> value, and compute only the times it lacks; a call of held times is
    converted but not checked.  An echo row repeats t1, the rows share their t2 axis, and a Prepared(t1) curve asks for
    g(t1) at every point.  Those two-interval kernels read g's memo in one lookup per time, and hand a miss's values to
    _fill (_g_two_interval), not through g.  gdot seldom repeats its own times, but the rate of a distance asks for gdot
    at the times of its g: the row step of a g miss takes both halves, and gdot's memo holds the second, which the rate
    reads through _gdot_points (measures.decay_exponent_rate).  A gdot miss takes gdot's half alone, since g's would
    build S0 from _DIRECT_X on, and array calls take the half they return.  Each memo holds at most _MEMO_TIMES (1024)
    times, and both are cleared when a call could overfill either; larger calls (grids, the scan) neither read nor fill
    them, so memory does not grow with the grid.
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
        if not include_tail:  # strict truncation's nu_n and B_n with their signs flipped, and its table's rows
            self._neg_nu = -nu
            self._neg_b = -b
            self._table_rows = max(1, _TABLE_BUDGET // max(k, 1))
        # per-bath factors of the row and _live_sums formulas, each the value or product its formula starts with (same
        # bits)
        self._k = k
        self._gamma = gamma
        self._dead_beta = _EXP_DEAD * bath.beta
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
        tail_b = d.tail_sums(k, True)[1] if include_tail else 0.0
        # a sum that overflows leaves t_max 0: no positive time is then safe
        with np.errstate(over="ignore"):
            rate = self._pole_b + float(np.add.reduce(b)) + tail_b + pair_b
            moduli = abs(self._pole_b) + float(np.add.reduce(np.abs(b))) + abs(tail_b) + abs(pair_b) + pair_bound
        # the largest nu_n of every call: nu_K of the explicit terms or, with the tail and K = 0, the live terms' nu_1
        nu_top = float(nu[-1]) if k else float(bath.matsubara_frequency(1)) if include_tail else 0.0
        arg_rate = max(gamma, nu_top, d.nu_m if m else 0.0)
        self._t_max = _largest_time(arg_rate, abs(rate) + bath.eta, moduli)
        if include_tail:  # the exact engine reads its K terms only here: the table drops its cached arrays of them
            del d.explicit
        # time -> g(t) and time -> gdot(t) of the pointwise calls, cleared together
        self._g_memo = {}
        self._gdot_memo = {}
        # built at their first use: the small-x sums of g and gdot (_small_x), the live terms' table with G1 from x =
        # _DIRECT_X on, and G0 at the first g there (_live_table).  Set here, and not as cached properties, whose
        # writes to the instance's __dict__ would slow every attribute read of the engine's rows
        self._small_x_sum = self._live = self._g0 = None

    def _check_tail_amps(self) -> None:
        """DephaserError where a prefactor of the digamma sums of DirichletTable.tail_sums overflows."""
        for value, what in zip(self._table.tail_amps, ("eta gamma beta / pi^2", "eta gamma beta^2 / (2 pi^3 a^2)")):
            _finite(value, what)

    def _small_x(self, t: float, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) exact Matsubara part below t_direct, each None where not asked for, from one _MatsubaraG call,
        built at the first call: s0 S and s1 S', plus _dead_weight where more than _BLOCK_CAP terms past K are live.

        DephaserError where x^2 leaves the normal floats, and gdot's at such a time where N = K + _BLOCK_CAP < 2a.
        """
        x = t * self._x_rate
        if not x * x >= sys.float_info.min:
            raise DephaserError(
                f"time {t!r} is too small for the Matsubara sum of g and gdot: (2 pi t / beta)^2 = {x * x!r} leaves "
                "the normal floats"
            )
        if self._small_x_sum is None:
            self._small_x_sum = _MatsubaraG(self.bath.pole_ratio, self._m)
        s, ds = self._small_x_sum(x, g, gdot)
        if gdot:
            ds = self._s1 * ds
            n = self._k + _BLOCK_CAP
            # ceil(v) > N exactly when v > N
            if self._dead_beta / (_TWO_PI * t) > n:
                a = self._table.a
                if n < 2.0 * a:
                    raise DephaserError(
                        f"time {t!r} has more than {_BLOCK_CAP} live Matsubara terms past K, and beta gamma / 2 pi = "
                        f"{a!r} is past half of K + {_BLOCK_CAP}, where their dead weight is not summed"
                    )
                ds += self._s1 * _dead_weight(float(n), a * a, x)
        return (self._s0 * s if g else None), ds

    def _live_table(self, g: bool) -> tuple:
        """(the rows -nu_n, c_n and B_n of the live terms n = 1, ..., _G_LIVE_STOP with the m-th 0, their first
        _LIVE_FLOATS columns as a memoryview of the floats -nu_n, c_n, B_n one n after the other, G1), built at the
        first row from t_direct on, and G0 at the first g there.  The memoryview, which the Python-float loop reads,
        holds no float objects.

        G1[j] = S1(j) and G0[j] = S0(j), the sums of B_n and c_n over n > j but m, j = 0, ..., _G_LIVE_STOP, are
        compensated running sums (_running_sums): G0 from S0(_G_LIVE_STOP) of one tail_sums less the terms from the
        last, and G1 so too where there is no pair.  With the pair G1 runs up from its closed form G1[0] = rate -
        pole_rest - m_rest (the B_k sum to the rate), to which Re gdot cancels its terms late: on a cold bath S1 of
        the digamma sums left Re g and Re gdot 30 times further off the oracle.  gdot reads no G0, so it builds no S0.
        DephaserError where a coefficient overflows (nu_n^2 from n = 129 at beta 6e-152), whatever K and the time's L.
        """
        d = self._table
        if self._live is None:
            nu = self.bath.matsubara_frequency(np.arange(1.0, _G_LIVE_STOP + 1.0))
            b, c = d._coefficient("b", nu, 1), d._coefficient("c", nu, 1)
            if d.m:
                s0 = d.tail_sums(_G_LIVE_STOP)[0] if g else None
                g1 = _running_sums(d.rate - (d.pole_rest + d.m_rest), (-b).tolist())
            else:
                s0, s1 = d.tail_sums(_G_LIVE_STOP, not g)
                g1 = _running_sums(s1, b[::-1].tolist())[::-1]
            terms = np.stack((-nu, c, b))
            self._live = (terms, memoryview(terms[:, :_LIVE_FLOATS].T.ravel()), _held(g1))
        elif g and self._g0 is None:
            s0 = d.tail_sums(_G_LIVE_STOP)[0]
        if g and self._g0 is None:
            self._g0 = _held(_running_sums(s0, self._live[0][1, ::-1].tolist())[::-1])
        return self._live

    def _live_sums(self, times: list, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) exact Matsubara part at the Python floats times, each a list where asked for and None where
        not; 0.0 below t_direct, where _row takes _small_x's, and no table built where every time is below it.

        From t_direct on, the terms n > L are dead, L = min(ceil(_EXP_DEAD beta / (2 pi t)), _G_LIVE_STOP): g's part is
        sum_{n <= L} c_n (expm1(-nu_n t) + nu_n t) + t G1[L] - G0[L], and gdot's -sum_{n <= L} B_n expm1(-nu_n t) +
        G1[L], from one expm1 per term: on Python floats where L <= _LIVE_FLOATS, else as one numpy row of L terms.
        Each time sums its own terms, so it gets the same bits alone as in an array.
        """
        g_sums = [0.0] * len(times) if g else None
        gdot_sums = [0.0] * len(times) if gdot else None
        if max(times) < self._t_direct:
            return g_sums, gdot_sums
        terms, floats, g1 = self._live_table(g)
        g0 = self._g0
        for i, s in enumerate(times):
            if s < self._t_direct:
                continue
            stop = min(math.ceil(self._dead_beta / (_TWO_PI * s)), _G_LIVE_STOP)
            if stop <= _LIVE_FLOATS:
                sg = sd = 0.0
                row = iter(floats[: 3 * stop])
                if g:
                    for neg_nu, cn, bn in zip(row, row, row):
                        y = neg_nu * s
                        e = math.expm1(y)
                        sg += cn * (e - y)
                        sd += bn * e
                else:  # gdot's terms alone, with the same roundings
                    for neg_nu, _, bn in zip(row, row, row):
                        sd += bn * math.expm1(neg_nu * s)
            else:
                neg = terms[0, :stop] * s
                e = np.expm1(neg)
                sg = float(np.add.reduce((e - neg) * terms[1, :stop])) if g else 0.0
                sd = float(np.add.reduce(e * terms[2, :stop])) if gdot else 0.0
            if g:
                g_sums[i] = sg + s * g1[stop] - g0[stop]
            if gdot:
                gdot_sums[i] = -sd + g1[stop]
        return g_sums, gdot_sums

    def _explicit(self, ts: np.ndarray, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) sum of strict truncation's K terms at every time, each an array where asked for and None where
        not: c_n h(nu_n t) by _h, which keeps its digits at small nu_n t, and -c_n nu_n expm1(-nu_n t) as e (-B_n).

        The times x K table is built at most _TABLE_BUDGET elements at a
        time (one row when K alone exceeds it), and each row is summed as
        the 1-d sum of its K terms is.
        """
        rows = self._table_rows
        if ts.size > rows:
            parts = [self._explicit(ts[i : i + rows], g, gdot) for i in range(0, ts.size, rows)]
            return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))
        g_sum = gdot_sum = None
        if g:
            terms = _h(ts[:, None] * -self._neg_nu)
            terms *= self._table.explicit[1]
            g_sum = np.add.reduce(terms, axis=1)
        if gdot:
            e = np.expm1(ts[:, None] * self._neg_nu)
            e *= self._neg_b
            gdot_sum = np.add.reduce(e, axis=1)
        return g_sum, gdot_sum

    def _sums(self, times: list, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) Matsubara sums at the Python floats times for _row, each a list where asked for and None where
        not: the exact engine's _live_sums, or strict truncation's K terms (_explicit)."""
        if self.include_tail:
            return self._live_sums(times, g, gdot)
        return tuple(None if v is None else v.tolist() for v in self._explicit(np.array(times), g, gdot))

    def _row(self, t: float, g_sum, gdot_sum) -> tuple:
        """(g, gdot) at t from their Matsubara sums (_sums; the exact engine's are 0.0 below t_direct, where it takes
        _small_x's), each None where its sum is None: one step of the pole, the pair and the sums, whose exponentials
        the two halves share.  Strict truncation adds its K terms first, the exact engine its Matsubara part last."""
        if t == 0.0:
            return 0j, 0j
        g = g_sum is not None
        gdot = gdot_sum is not None
        g_value = gdot_value = None
        y = self._gamma * t
        em = math.expm1(-y)
        exact = self.include_tail
        if t < self._t_direct:
            g_sum, gdot_sum = self._small_x(t, g, gdot)
        if self._m:  # the pair: the m-th term's nu_m and rest, P, and the least and largest of gamma and nu_m
            nu, m_rest, amp, lo, hi = self._pair
            y_m = nu * t
            em_m = math.expm1(-y_m)
            # E over [gamma, nu_m], which gdot reads and H reads from hi t = _H_SERIES_TOP on, with expm1(-lo t)
            dd = _exp_divided_difference(lo, hi, t) if gdot or hi * t >= _H_SERIES_TOP else None
        if g:
            # _h, whose expm1 branch is written out here: this is the hot path of pointwise calls
            hg = em + y if y >= _H_SERIES_TOP else _h(y)
            re = self._pole_c * hg if exact else g_sum + self._pole_c * hg
            if self._m:  # m_rest h(nu_m t) / nu_m + P H, H over [gamma, nu_m]
                h_m = em_m + y_m if y_m >= _H_SERIES_TOP else _h(y_m)
                h_dd = _h_divided_difference(lo, hi, t, dd, em if lo == self._gamma else em_m)
                re += m_rest / nu * h_m + amp * h_dd
            if exact:
                re += g_sum
            g_value = complex(re, -self._table.pole_im * hg)
        if gdot:
            re = self._pole_b * (-em) if exact else gdot_sum + self._pole_b * (-em)
            if self._m:  # m_rest (1 - e^{-nu_m t}) - P E
                re += m_rest * -em_m - amp * dd
            if exact:
                re += gdot_sum
            gdot_value = complex(re, self.bath.eta * em)
        return g_value, gdot_value

    def g(self, t):
        """g at a time (a complex) or at every time of a 1-d array (a complex array).

        A call of at most _MEMO_CALL times looks its times up in the memo and
        returns at once when the memo holds them all: a held time was checked
        when it was stored.  Otherwise it checks its times, builds the table of
        all of them and runs the row step of each time the memo lacks, which
        fills g's memo and gdot's (_fill).  A larger call leaves the memos
        alone.  A time's value is its own table row and row step either way,
        so its bits do not depend on the path.
        """
        # _as_times leaves a float as it is; a held float, the commonest call, skips calling it and is one lookup
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._g_memo.get(t)
            return self._fill([t], [None], False)[0] if value is None else value
        if t.size > _MEMO_CALL:
            return self._grid(t, False)
        return np.fromiter(self._g_points(t.tolist()), complex, t.size)

    def gdot(self, t):
        """gdot at a time (a complex) or at every time of a 1-d array (a complex array).

        As g's: a call of at most _MEMO_CALL times reads gdot's memo, which g's pointwise calls fill too, and runs the
        row step at the times it lacks (_fill); a larger call leaves both memos alone.
        """
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._gdot_memo.get(t)
            return self._fill([t], [None], True)[0] if value is None else value
        if t.size > _MEMO_CALL:
            return self._grid(t, True)
        return np.fromiter(self._gdot_points(t.tolist()), complex, t.size)

    def _grid(self, ts: np.ndarray, derivative: bool) -> np.ndarray:
        """g, or gdot where derivative, at every time of a call of more than _MEMO_CALL times, after checking them:
        the row step of the half asked for on its sums (_sums)."""
        times = _check_times(ts, self._t_max)[0].tolist()
        sums = self._sums(times, not derivative, derivative)[derivative]
        half = (lambda s, v: self._row(s, None, v)[1]) if derivative else (lambda s, v: self._row(s, v, None)[0])
        return _rows(half, ts, False, times, sums)

    def _g_points(self, times: list) -> list:
        """g at the Python floats of a pointwise call, at most _MEMO_CALL of them, as a list of Python complex numbers.

        The memo is looked up once; a call of held times returns at once, with no array made.
        """
        values = list(map(self._g_memo.get, times))
        return self._fill(times, values, False) if None in values else values

    def _gdot_points(self, times: list) -> list:
        """gdot at the Python floats of a pointwise call, as _g_points gives g, from gdot's memo."""
        values = list(map(self._gdot_memo.get, times))
        return self._fill(times, values, True) if None in values else values

    def _fill(self, times: list, values: list, derivative: bool) -> list:
        """values, g's memo's values at times (gdot's where derivative), with each None replaced by the row step at its
        time, which the memo then holds, after checking the times; both memos are cleared where the call could overfill
        either.

        The row steps run on the sums of the new times (_sums).  A g miss takes gdot's half too where gdot's memo lacks
        the time, since the rate of a distance asks for gdot at the times of its g; where that half raises
        DephaserError, g keeps its value and gdot's memo its gap, for gdot to raise at its own call.  A gdot miss takes
        gdot's half alone: g's would build S0 from x = _DIRECT_X on, which gdot never reads.
        """
        _check_list(times, self._t_max)
        memo, dots = self._g_memo, self._gdot_memo
        if len(memo) + len(times) > _MEMO_TIMES or len(dots) + len(times) > _MEMO_TIMES:
            memo.clear()
            dots.clear()
        new = [s for s, v in zip(times, values) if v is None]
        gdot = derivative or not dots.keys() >= set(new)
        g_sums, gdot_sums = self._sums(new, not derivative, gdot)
        j = 0
        for i, s in enumerate(times):
            if values[i] is not None:
                continue
            if derivative:
                values[i] = dots[s] = self._row(s, None, gdot_sums[j])[1]
            else:
                gdot_sum = None if s in dots else gdot_sums[j]
                try:
                    g, gdot = self._row(s, g_sums[j], gdot_sum)
                except DephaserError:  # from gdot's half, or from g's, which raises it again alone
                    g, gdot = self._row(s, g_sums[j], None)
                values[i] = memo[s] = g
                if gdot is not None:
                    dots[s] = gdot
            j += 1
        return values

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
