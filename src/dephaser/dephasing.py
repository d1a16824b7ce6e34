"""Lineshape (dephasing) function g(t) of a pure-dephasing two-level system.

g is the double time integral of the bath correlation function,

    g(t) = int_0^t dtau (t - tau) L(tau),

and its derivative gdot(t) = int_0^t dtau L(tau).  Four interchangeable
evaluators are provided:

  * BrownianMatsubara: the exact pole-plus-Matsubara series.  Below
    x = 2 pi t / beta = 0.2 its Re g and Re gdot sum the Matsubara terms
    on the analytic L's node set (spectral._SmallXSums, one table for
    both); from there they sum their L <= 226 live terms and the sums
    past them, two running sums, all of the table the analytic L reads
    its weights from (DirichletTable.live), and read no K.  Its digamma
    is spectral._digamma, which runs only where those sums are built,
    and never without a pair, so it and HighTemperatureBrownian load no
    scipy; only the two quadrature engines do.  TruncatedMatsubara, the
    series strictly truncated at K terms, is figures trd's curve.
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
within 1e-12 relative of a 40-digit oracle (tests/_oracle.py), tested
for a = beta gamma / 2 pi up to 15 915 (past about 1e4 the error grows
roughly as a: 6.5e-12 at a = 1.6e6, 4.4e-7 at 1.6e11; ROADMAP item 23),
and positive from t = 1e-9 on, and so is its Re gdot less _dead_weight's C,
which it adds where more than _BLOCK_CAP terms past K are live: with C,
gdot is the sum stopped at K + _BLOCK_CAP with the rest counted as dead,
the value perfbench's references record.  Both raise
DephaserError below x = 0.2 where x^2 leaves the normal floats.
FrequencyQuadrature raises DephaserError for a Brownian density at
0 < t < 3e-4 / w_split (3e-5 on the default bath), where its Fourier
tails lose Re g, and past its largest time (_largest_time of w_split
and its growth; 8.99e306 on the default bath).  TimeDomainQuadrature
raises it for a Brownian density past max(gamma, 2 pi / beta) t =
_TQ_RATE_T (2500), where its rule misses L's narrow part near 0.

Every engine's g and gdot take a time (a float, giving a complex) or a
1-d array of times (giving a complex array), and check the times once
per call, by one function, _check_times: a float on Python floats, an
array, of any size, by numpy reductions.  The first bad time of the call
raises, in call order.  A time gets the same bits alone as inside an
array: a float runs on Python floats all the way, with numpy's expm1
where the array's is numpy's.
The series engines and HighTemperatureBrownian raise DephaserError past
the largest time at which g, its intermediates and the flip exponent
of times up to it stay finite (_largest_time; 8.99e306 for the exact
series on the default bath, 1.43e305 for its K = 100 truncation).
BrownianMatsubara also remembers g and gdot at their float calls, up
to _MEMO_TIMES times each, and returns the same bits from the memos as
computed afresh; a call that could overfill either drops the older half
of gdot's times from both.  An array call, of any size, takes the grid
route and neither reads nor fills them.  A g call that misses a time
also fills gdot's memo there from the same row step, since the rate of a
distance asks for gdot where the distance asked for g.  The two-interval
kernels take g at t1, t2 and t1 + t2 by one route, _g_two_interval: from
that memo in one lookup per time (a miss passes them to _fill), or from
one float g call per distinct time for an evaluator without one.  Every
route asks an evaluator for each distinct time of a call once
(_distinct), and raises DephaserError where t1 + t2 overflows
(_check_sum) before any engine meets the inf.
"""

from __future__ import annotations

import math
import sys
from itertools import islice

import numpy as np

from ._quadrature import integrate_finite, integrate_fourier_tail, integrate_to_inf
from .errors import DephaserError
from .spectral import (
    _DIRECT_X,
    _EXP_DEAD,
    _FOURIER_MIN_TW,
    _LIVE_STOP,
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
    _h,
    _h_divided_difference,
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
# times BrownianMatsubara's g and gdot each remember from pointwise calls; where a call could overfill either, the
# older half of gdot's times leaves both, so that a curve's rates still find the gdot of its newer exponents
_MEMO_TIMES = 1024
# quadrature nodes u -> L(u) that a TimeDomainQuadrature remembers across its integrals; a full memo is cleared
_MEMO_NODES = 1 << 13
# the largest max(gamma, 2 pi / beta) t at which TimeDomainQuadrature integrates a Brownian density.  Past some
# multiple of it the adaptive rule on [0, t] misses the narrow part of L near u = 0 and returns a wrong value without
# an error (Re g(5e5) = 1.9e-109 on the default bath, where the series gives 2.0e6).  Against BrownianMatsubara on 46
# baths (beta 1e-3 to 940, gamma 0.01 to 20), the relative error of g or gdot first passed 1e-6 at 5.6e3 to 6.3e3
# where a = beta gamma / 2 pi is 5e-4 to 1.6e-3 (L's Matsubara part missed; 20 times a decade), and at 2.5e4 or later
# on the others: this bound is a factor 2.2 below the earliest
_TQ_RATE_T = 2.5e3
_TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max
# the most live terms that a time sums on Python floats, in every route; a time with more sums one numpy row of them,
# which math.expm1 would not give the bits of.  Per L of one live-sum step (_sum_at; best of 25 x 500 calls, shared
# 2-core Xeon, Python 3.11, numpy 2.4): both halves, as a g miss takes them, cost 3.6 us at L = 32 and 0.1 us more a
# term on the loop, 5.2 us as the row, crossing near L = 48; gdot's alone 2.7 us and 0.07 us a term, 3.1 us, crossing
# between L = 36 and 38.  The smaller crossover is the bound
_LIVE_FLOATS = 37


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


def _check_times(t, t_max: float = _FLOAT_MAX) -> tuple[np.ndarray, bool]:
    """(t as a 1-d float array, whether t is a scalar); ValueError at the first bad time, then _check_range.

    The one time check of every engine.  A scalar (a float, an int or a
    0-d array) is checked as a Python float (_check_time); an array, of
    any size, by two numpy reductions, whose initial values let an empty
    array pass.
    """
    ts = t if type(t) is float else _as_times(t)
    if type(ts) is float:
        if not 0.0 <= ts <= t_max:  # a nan fails it too
            _check_range(_check_time(ts), t_max)
        return np.array([ts]), True
    top = float(np.maximum.reduce(ts, initial=0.0))
    # min and max are nan if any time is, so the comparisons fail for nan, inf and negative times alike
    if not (np.minimum.reduce(ts, initial=0.0) >= 0.0 and top < math.inf):
        _check_time(ts[np.argmax(~(np.isfinite(ts) & (ts >= 0.0)))])
    _check_range(top, t_max)
    return ts, False


def _check_sum(t1: float, t2) -> None:
    """DephaserError where t1 + t2 overflows, t1 a checked float and t2 a checked float or array (its largest time):
    every two-interval route checks its sums by it before it forms them, so that no engine meets an inf its caller
    did not pass."""
    top = t2 if type(t2) is float else float(np.maximum.reduce(t2, initial=0.0))
    if t1 + top == math.inf:
        raise DephaserError(f"t1 + t2 = {t1!r} + {top!r} overflows: the two intervals must sum to a finite time")


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


def _rows(row, ts: np.ndarray, scalar: bool):
    """row(t) -> complex at every time of a call that _check_times returned as ts and scalar, as a Python float.

    A Python complex when the times were a scalar, a complex array otherwise.
    """
    values = list(map(row, ts.tolist()))
    return values[0] if scalar else np.fromiter(values, complex, len(values))


def _complex(re, im):
    """re + i im: a Python complex from scalars, a complex array from arrays."""
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    out = re.astype(complex)
    out.imag = im
    return out


def _row_sums(terms: np.ndarray, weights: np.ndarray) -> list:
    """terms times weights, in place, summed by row as a list: the table is freed at the return, not held by a local."""
    terms *= weights
    return np.add.reduce(terms, axis=1).tolist()


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


def _g_two_interval(evaluator, t1: float, t2: float) -> list:
    """[g(t1), g(t2), g(t1 + t2)] as Python complex numbers at checked float times: the one pointwise route of the
    two-interval kernels and maps.

    An engine that keeps a memo (BrownianMatsubara's _g_memo) answers from it in three lookups where it holds the three
    times, and else hands the looked-up values to its _fill; any other evaluator gets one float g call per distinct
    time (_distinct).  A sum t1 + t2 that overflows is never held, and raises DephaserError (_check_sum) on both.
    """
    t12 = t1 + t2
    try:
        memo = evaluator._g_memo
    except AttributeError:
        _check_sum(t1, t2)
        return _distinct(evaluator.g, [t1, t2, t12])
    g1, g2, g12 = memo.get(t1), memo.get(t2), memo.get(t12)
    if g1 is None or g2 is None or g12 is None:
        _check_sum(t1, t2)
        return evaluator._fill([t1, t2, t12], [g1, g2, g12], False)
    return [g1, g2, g12]


def _distinct(f, times):
    """f, an evaluator's bound g or gdot, at every time of times, asked for each distinct time once.

    A list of Python floats, as the pointwise routes pass, gives a list of Python complex numbers from one float call
    of f per distinct time, in call order; a 1-d array gives a complex array from one call of f on its distinct times,
    sorted.
    """
    if type(times) is list:
        values = {s: f(s) for s in dict.fromkeys(times)}
        return list(map(values.__getitem__, times))
    distinct, where = np.unique(times, return_inverse=True)
    return f(distinct)[where]


class BrownianMatsubara:
    """The exact pole-plus-Matsubara series for the overdamped Brownian bath, summed from BathParams.dirichlet().

    g(t) = (pole_c - i pole_im) h(gamma t) + sum_{n >= 1} c_n h(nu_n t), h(y) = e^-y + y - 1, in the names of
    DirichletTable; every h is spectral._h, which keeps its digits at small y.  Below x = 2 pi t / beta = _DIRECT_X the
    sum is spectral._SmallXSums' S, the window around the pole and the Euler-Maclaurin tails on the node set that the
    analytic L reads too, and it reads no K; gdot's is S', its x-derivative on the same table, built once at the first
    such call of either, plus _dead_weight where more than _BLOCK_CAP terms past K are live (so that it is the sum
    stopped at K + _BLOCK_CAP, which perfbench's references record).  From _DIRECT_X on each is the L = min(ceil(45 beta
    / (2 pi t)), 226) live terms, whose exponentials are summed until they underflow, and G1[L] and G0[L], the sums of
    B_n and c_n past them (_sum_at): the table's live terms and sums (DirichletTable.live_terms, g1, g0), B_n = s1 / d_n
    and c_n = B_n / nu_n of the row d_n = (n - a)(n + a) whose n / d_n the analytic L weighs, and no K.  K reaches it
    only as _dead_weight's N; TruncatedMatsubara sums the K terms alone.  Where a = beta gamma / 2 pi rounds to m >= 1,
    the pole and the m-th term are a pair: one formula at every detuning from gamma = nu_m.

    The constructor raises DephaserError where a^2 (a = beta gamma / 2 pi) or 2 eta / (beta gamma) leaves the normal
    floats (beta gamma < 9.4e-154, eta 1e-318 on beta gamma 0.5), where gamma^2 or an amplitude of the pole term or the
    pair overflows (eta 1e300, gamma 1e-8, beta 1e-20) and where s0 or s1, the amplitudes of the sums below _DIRECT_X
    and past the live terms, does (eta 1e307, gamma 1, beta 100).  No coefficient needs nu_n^2, so g and gdot at beta
    6e-152, where nu_n^2 overflows from n = 129, match the oracle from x = _DIRECT_X on.  g and gdot raise it past the
    largest time the table's amplitudes allow (_largest_time, from max(gamma, nu_1, nu_m) and the rate: 8.99e306 on the
    default bath at every K).  They raise it below x = _DIRECT_X where a reaches 2^52 and where x^2 leaves the normal
    floats (t below about 2.4e-155 beta); gdot also at a time with more than _BLOCK_CAP live terms past K where K +
    _BLOCK_CAP < 2a, where _dead_weight's series would not converge (beta gamma past 6.3e6 at K = 100).

    g and gdot take a time or a 1-d array of times, each by one route: a float reads the memo (_fill at a time it
    lacks), and an array, of any size, takes the grid route (_grid), which neither reads nor fills it.  Every time,
    alone or in an array, takes one Matsubara step (_sum_at): _small_x's sums below _DIRECT_X, and from there its L <=
    37 live terms on Python floats (_LIVE_FLOATS), or more as one numpy row; then one row step (_row), which adds up the
    pole term, the pair and that sum, so it gets the same bits alone as in an array.  Either step takes g's half,
    gdot's or both, which share the pole's and the pair's expm1 and the rest's exponentials: one _SmallXSums call below
    _DIRECT_X, one expm1 over the live terms from there.  g and gdot each keep a memo, time -> value, and a float
    call computes only a time it lacks; a held float is not checked again.  An echo row repeats t1, the rows share
    their t2 axis, and a Prepared(t1) curve asks for g(t1) at every point.  Those two-interval kernels read g's memo in
    one lookup per time, and hand a miss's values to _fill (_g_two_interval), not through g.  gdot seldom repeats its
    own times, but the rate of a distance asks for gdot at the times of its g: the steps of a g miss take both halves,
    and gdot's memo holds the second, which the rate reads in the same way (measures.decay_exponent_rate).  A gdot miss
    takes gdot's half alone, since g's would build S0 from _DIRECT_X on, and array calls take the half they return.
    Each memo holds at most _MEMO_TIMES (1024) times; where a call could overfill either, the older half of gdot's
    times, in insertion order, leaves both (_fill).  Arrays (grids, the scan) neither read nor fill them, so memory does
    not grow with the grid.
    """

    def __init__(self, bath: BathParams):
        d = self._pole_terms(bath, math.inf)
        # the bath of the exact g, whose growth rate has one zero at most (measures)
        self.certified_bath = bath
        # per-bath factors of the row and live-sum steps, each the value or product its formula starts with (same bits)
        self._k = bath.matsubara_terms  # only _dead_weight's N reads K
        self._dead_beta = _EXP_DEAD * bath.beta
        # x = 2 pi t / beta is t times this, and g is _SmallXSums' sum below t_direct, where x < _DIRECT_X; the
        # amplitudes s0 and s1 of c_n and B_n turn that sum into Re g's Matsubara part and its derivative into Re
        # gdot's.  Where more than _BLOCK_CAP terms past K are live, that is the exact sum plus _dead_weight(N), N = K
        # + _BLOCK_CAP, the weight of the terms past N that the capped sum counted as dead
        self._x_rate = _TWO_PI / bath.beta
        self._t_direct = _DIRECT_X * bath.beta / _TWO_PI
        self._s0, self._s1 = d.amplitudes
        # the Matsubara B_n sum to the rate less the pole's and the m-th terms (the table's G1[0]); a time's live
        # terms reach nu_n t <= _EXP_DEAD + nu_1 t, so nu_1 = x_rate is their argument rate
        b_sum = d.rate - self._pole_b - (d.m_rest if self._m else 0.0)
        self._t_max = self._largest_time_of(b_sum, abs(b_sum), self._x_rate)
        # references to the table's live terms from x = _DIRECT_X on, taken at their first use there (_sum_at): the
        # rows, their first _LIVE_FLOATS columns as the tuples (-nu_n, c_n, B_n) that the Python-float loop slices, and
        # G1; and G0 at the first g there.  Set here, and not as cached properties, whose writes to the instance's
        # __dict__ would slow every attribute read of the engine's rows
        self._live = self._g0 = None

    def _pole_terms(self, bath: BathParams, k: float):
        """The checks, DirichletTable (returned), pole term, pair (where a rounds to m >= 1 with m <= k, else the bare
        pole) and memos of an engine whose Matsubara terms run to n = k, inf for the exact sum."""
        self.bath = bath
        self.beta = bath.beta
        gamma = self._gamma = bath.gamma
        _normal(bath.pole_ratio * bath.pole_ratio, "(beta gamma / 2 pi)^2")
        _finite(_pow(gamma, 2), "gamma^2")  # gamma past 1.3e154
        d = self._table = bath.dirichlet()
        # m of the pair, or 0 where there is none: a < 1/2, or strict truncation without the m-th term
        m = self._m = d.m if d.m <= k else 0
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
        # time -> g(t) and time -> gdot(t) of the pointwise calls, whose older halves leave together (_fill)
        self._g_memo = {}
        self._gdot_memo = {}
        return d

    def _largest_time_of(self, b_sum: float, b_moduli: float, nu_top: float) -> float:
        """_largest_time of the pole (its rest when paired), the Matsubara B_n, of sum b_sum and moduli b_moduli, and
        the m-th rest, whose sum is the late-time rate of Re g and whose moduli, with P / min(gamma, nu_m), bound its
        terms; nu_top is the Matsubara terms' argument rate.  A sum that overflows leaves it 0: no time is then safe."""
        d = self._table
        pair_b, pair_bound = (d.m_rest, d.pair_amp / self._pair[3]) if self._m else (0.0, 0.0)
        rate = self._pole_b + b_sum + pair_b
        moduli = abs(self._pole_b) + b_moduli + abs(pair_b) + pair_bound
        arg_rate = max(self._gamma, nu_top, d.nu_m if self._m else 0.0)
        return _largest_time(arg_rate, abs(rate) + self.bath.eta, moduli)

    def _small_x(self, t: float, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) exact Matsubara part below t_direct, each None where not asked for, from one call of the
        table's small_x: s0 S and s1 S', plus _dead_weight where more than _BLOCK_CAP terms past K are live.

        DephaserError where x^2 leaves the normal floats, and gdot's at such a time where N = K + _BLOCK_CAP < 2a.
        """
        x = t * self._x_rate
        if not x * x >= sys.float_info.min:
            raise DephaserError(
                f"time {t!r} is too small for the Matsubara sum of g and gdot: (2 pi t / beta)^2 = {x * x!r} leaves "
                "the normal floats"
            )
        s, ds = self._table.small_x(x, g, gdot)
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

    def _sum_at(self, s: float, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) exact Matsubara part at the Python float s, each None where not asked for: every route's step.
        Below t_direct (x < _DIRECT_X) _small_x's, with no live table built, and 0.0 at s = 0, where _row returns 0j.

        From t_direct on, the terms n > L are dead, L = min(ceil(_EXP_DEAD beta / (2 pi t)), _LIVE_STOP): g's part is
        sum_{n <= L} c_n (expm1(-nu_n t) + nu_n t) + t G1[L] - G0[L], and gdot's -sum_{n <= L} B_n expm1(-nu_n t) +
        G1[L], from one expm1 per term: on Python floats where L <= _LIVE_FLOATS, else as one numpy row of L terms.
        The table's live terms and G1 are built at the first such step, and G0 at the first g (DirichletTable).
        """
        if s < self._t_direct:  # at s = 0 _small_x would raise, and _row returns 0j
            return self._small_x(s, g, gdot) if s else ((0.0 if g else None), (0.0 if gdot else None))
        if self._live is None or g and self._g0 is None:
            table = self._table
            terms = table.live_terms
            self._live = terms, list(zip(*terms[:, :_LIVE_FLOATS].tolist())), table.g1
            if g:
                self._g0 = table.g0
        terms, leading, g1 = self._live
        stop = math.ceil(self._dead_beta / (_TWO_PI * s))
        if stop <= _LIVE_FLOATS:
            sg = sd = 0.0
            if g:
                for neg_nu, cn, bn in leading[:stop]:
                    y = neg_nu * s
                    e = math.expm1(y)
                    sg += cn * (e - y)
                    sd += bn * e
            else:  # gdot's terms alone, with the same roundings
                for neg_nu, _, bn in leading[:stop]:
                    sd += bn * math.expm1(neg_nu * s)
        else:
            stop = min(stop, _LIVE_STOP)
            neg = terms[0, :stop] * s
            e = np.expm1(neg)
            sg = float(np.add.reduce((e - neg) * terms[1, :stop])) if g else 0.0
            sd = float(np.add.reduce(e * terms[2, :stop])) if gdot else 0.0
        top = g1[stop]
        return (sg + s * top - self._g0[stop] if g else None), (-sd + top if gdot else None)

    def _sums(self, times: list, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) exact Matsubara part at the Python floats times, each a list or None: _sum_at at each time."""
        sums = [self._sum_at(s, g, gdot) for s in times]
        return ([a for a, _ in sums] if g else None), ([b for _, b in sums] if gdot else None)

    def _row(self, t: float, g_sum, gdot_sum) -> tuple:
        """(g, gdot) at t from their Matsubara sums (_sum_at), each None where its sum is None: one step that adds up
        the pole term, the pair and, last, the sums; the halves share its exponentials."""
        if t == 0.0:
            return 0j, 0j
        g = g_sum is not None
        gdot = gdot_sum is not None
        g_value = gdot_value = None
        y = self._gamma * t
        em = math.expm1(-y)
        if self._m:  # the pair: the m-th term's nu_m and rest, P, and the least and largest of gamma and nu_m
            nu, m_rest, amp, lo, hi = self._pair
            y_m = nu * t
            em_m = math.expm1(-y_m)
            # E over [gamma, nu_m], which gdot reads and H reads from hi t = _H_SERIES_TOP on, with expm1(-lo t)
            dd = _exp_divided_difference(lo, hi, t) if gdot or hi * t >= _H_SERIES_TOP else None
        if g:
            # _h, whose expm1 branch is written out here: this is the hot path of pointwise calls
            hg = em + y if y >= _H_SERIES_TOP else _h(y)
            re = self._pole_c * hg
            if self._m:  # m_rest h(nu_m t) / nu_m + P H, H over [gamma, nu_m]
                h_m = em_m + y_m if y_m >= _H_SERIES_TOP else _h(y_m)
                h_dd = _h_divided_difference(lo, hi, t, dd, em if lo == self._gamma else em_m)
                re += m_rest / nu * h_m + amp * h_dd
            g_value = complex(re + g_sum, -self._table.pole_im * hg)
        if gdot:
            re = self._pole_b * (-em)
            if self._m:  # m_rest (1 - e^{-nu_m t}) - P E
                re += m_rest * -em_m - amp * dd
            gdot_value = complex(re + gdot_sum, self.bath.eta * em)
        return g_value, gdot_value

    def g(self, t):
        """g at a time (a complex) or at every time of a 1-d array (a complex array).

        A float is looked up in the memo and returned at once when held: it
        was checked when it was stored.  Otherwise it is checked and runs the
        Matsubara and row steps, which fill g's memo and gdot's (_fill).  An
        array, of any size, takes the grid route (_grid) and leaves the memos
        alone.  A time's value is its own Matsubara and row step either way,
        so its bits do not depend on the route.
        """
        # _as_times leaves a float as it is; a held float, the commonest call, skips calling it and is one lookup
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._g_memo.get(t)
            return self._fill([t], [None], False)[0] if value is None else value
        return self._grid(t, False)

    def gdot(self, t):
        """gdot at a time (a complex) or at every time of a 1-d array (a complex array).

        As g's: a float reads gdot's memo, which g's float calls fill too, and runs the steps of gdot's half alone where
        the memo lacks it (_fill); an array takes the grid route (_grid) and leaves both memos alone.
        """
        t = t if type(t) is float else _as_times(t)
        if type(t) is float:
            value = self._gdot_memo.get(t)
            return self._fill([t], [None], True)[0] if value is None else value
        return self._grid(t, True)

    def _grid(self, ts: np.ndarray, derivative: bool) -> np.ndarray:
        """g, or gdot where derivative, at every time of an array call, after checking them: the row step of the half
        asked for on its sums (_sums).  The memos are neither read nor filled."""
        times = _check_times(ts, self._t_max)[0].tolist()
        sums = self._sums(times, not derivative, derivative)[derivative]
        half = (lambda s, v: self._row(s, None, v)[1]) if derivative else (lambda s, v: self._row(s, v, None)[0])
        return np.fromiter(map(half, times, sums), complex, len(times))

    def _fill(self, times: list, values: list, derivative: bool) -> list:
        """values, g's memo's values at times (gdot's where derivative), with each None replaced by the row step at its
        time, which the memo then holds, after checking the times.  Where the call could overfill either memo, the
        older half of gdot's memo, in insertion order, leaves both.

        Each new time runs one Matsubara step (_sum_at) and one row step, once however often the call holds it.  A g
        miss takes gdot's half too where gdot's memo lacks the time, since the rate of a distance asks for gdot at the
        times of its g; where that half's sum raises DephaserError, g's sum is taken again alone, g keeps its value and
        gdot's memo its gap, for gdot to raise at its own call.  A gdot miss takes gdot's half alone: g's would build S0 from x = _DIRECT_X on.
        """
        _check_list(times, self._t_max)
        memo, dots = self._g_memo, self._gdot_memo
        if len(memo) + len(times) > _MEMO_TIMES or len(dots) + len(times) > _MEMO_TIMES:
            # the older half of gdot's memo, in insertion order, leaves both memos, so that every time g's memo holds
            # gdot's holds too; g's holds others only after a gdot-only DephaserError, and is cleared if still too full
            for s in list(islice(dots, len(dots) // 2)):
                del dots[s]
                memo.pop(s, None)
            if len(memo) + len(times) > _MEMO_TIMES:
                memo.clear()
        held = dots if derivative else memo
        for i, s in enumerate(times):
            if values[i] is None:
                values[i] = held.get(s)  # where an earlier new time of this call was s
            if values[i] is not None:
                continue
            if derivative:
                values[i] = dots[s] = self._row(s, None, self._sum_at(s, False, True)[1])[1]
                continue
            try:
                g_sum, gdot_sum = self._sum_at(s, True, s not in dots)
            except DephaserError:  # from gdot's half, or from g's, which raises it again alone
                g_sum, gdot_sum = self._sum_at(s, True, False)
            g, gdot = self._row(s, g_sum, gdot_sum)
            values[i] = memo[s] = g
            if gdot is not None:
                dots[s] = gdot
        return values


class TruncatedMatsubara(BrownianMatsubara):
    """BrownianMatsubara's series truncated strictly at the bath's K terms, the curve figures trd draws: the pole
    term, the pair where 1 <= m <= K (where K < m its sum is singular at gamma = nu_m, and it keeps the bare pole),
    and c_n h(nu_n t), n = 1, ..., K.  matsubara_remainder reports what it drops.  g and gdot are BrownianMatsubara's,
    memos and row step included, on the K terms' sums at every time, below x = _DIRECT_X too: an array's from its times
    x K table (_sums), a float miss's from one row of it (_sum_at).  Its rate's coefficients can change sign three times, so it has no certified_bath and
    measures scan it.

    DephaserError as BrownianMatsubara's but for s0 and s1, which its K terms do not need (DirichletTable.explicit): at
    (eta 1e307, gamma 1, beta 100) it computes where the exact engine and matsubara_remainder raise.  Also where a K
    term overflows, where nu_K^2 leaves the normal floats (2 pi K / beta > 1.3e154) and past the largest time of its own
    terms (from nu_K t).
    """

    certified_bath = None

    def __init__(self, bath: BathParams):
        k = bath.matsubara_terms
        if k:
            _normal(_pow(float(bath.matsubara_frequency(k)), 2), "nu_K^2")
        d = self._pole_terms(bath, k)
        nu, _, b = d.explicit
        # nu_n and B_n with their signs flipped, and the rows of the times x K table
        self._neg_nu = -nu
        self._neg_b = -b
        self._table_rows = max(1, _TABLE_BUDGET // max(k, 1))
        with np.errstate(over="ignore"):
            b_sum, b_moduli = float(np.add.reduce(b)), float(np.add.reduce(np.abs(b)))
        self._t_max = self._largest_time_of(b_sum, b_moduli, float(nu[-1]) if k else 0.0)

    def _sums(self, times: list, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) sum of the K terms at the Python floats times for _row, each a list where asked for and None
        where not: c_n h(nu_n t) by _h, which keeps its digits at small nu_n t, and expm1(-nu_n t) (-B_n), by times x
        K tables of _TABLE_BUDGET elements (one row where K exceeds it), each row summed as the 1-d sum of its terms."""
        g_sums, gdot_sums = ([] if g else None), ([] if gdot else None)
        for i in range(0, len(times), self._table_rows):
            ts = np.array(times[i : i + self._table_rows])[:, None]
            if g:
                g_sums += _row_sums(_h(ts * -self._neg_nu), self._table.explicit[1])
            if gdot:
                gdot_sums += _row_sums(np.expm1(ts * self._neg_nu), self._neg_b)
        return g_sums, gdot_sums

    def _sum_at(self, s: float, g: bool, gdot: bool) -> tuple:
        """(g's, gdot's) sum of the K terms at the Python float s for _row: one row of _sums' table."""
        return tuple(None if sums is None else sums[0] for sums in self._sums([s], g, gdot))

    def matsubara_remainder(self, t: float) -> complex:
        """Exact value of the n > K part of g(t) that the truncation drops, the m-th term included: Re g of
        BrownianMatsubara less this engine's.

        DephaserError where BrownianMatsubara's constructor raises, and at K < m with gamma = nu_m exactly, where the
        m-th term is infinite.
        """
        t = _check_time(t)
        d = self._table
        if d.m > self.bath.matsubara_terms:
            _normal(d.nu_m * d.nu_m - self._gamma * self._gamma, f"nu_{d.m}^2 - gamma^2")
        return complex(BrownianMatsubara(self.bath).g(t).real - self.g(t).real, 0.0)


class HighTemperatureBrownian:
    """beta*gamma -> 0 closed form: g(t) = (2 eta/(beta gamma^2) - i eta/gamma) h(gamma t).

    g and gdot take a time, computed on Python floats with numpy's expm1,
    or a 1-d array of times, computed on the whole array, with the same
    bits at each time.  DephaserError where beta gamma^2, beta gamma or 2
    eta over either leaves the normal floats (magnitude below 2.2e-308, or
    infinite), where eta / gamma overflows, and at a time past
    _largest_time of its own amplitudes.
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
        ts, scalar = _check_times(t, self._t_max)
        hg = _h(self.bath.gamma * (ts.item() if scalar else ts))
        return _complex(self._g_amp * hg, self._im_g_amp * hg)

    def gdot(self, t):
        ts, scalar = _check_times(t, self._t_max)
        em = np.expm1(-self.bath.gamma * (ts.item() if scalar else ts))
        return _complex(self._gdot_amp * em, self.bath.eta * em)


class FrequencyQuadrature:
    """Adaptive integration of the spectral representation of g.

    Re g(t) = (1/pi) int (J/w^2) coth(beta w/2) (1 - cos w t) dw and the
    imaginary part analogously.  Below a split frequency the integrand is
    handled as written (1 - cos as 2 sin^2); above it the non-oscillatory
    factor decays like 1/w and the cos/sin moments are computed by the
    Fourier integrator, which is what makes the conditionally convergent
    tails reliable.  Constant tail moments are cached at construction.
    g and gdot take a time or a 1-d array of times, integrated one by one;
    a Brownian density raises DephaserError at 0 < t < 3e-4 / w_split and
    past its largest time, where w t or eta g would leave the floats.
    A Brownian density is integrated at eta = 1 and its g and gdot scaled
    by eta last (_eta_times), so that a small eta does not pass
    _quadrature's absolute test on a failed integral.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        self.bath = self.certified_bath = _brownian_bath(sd, beta)
        self._t_max = _FLOAT_MAX
        if self.bath is not None:
            self.w_split = _split_frequency(self.bath)
            self._t_min = _FOURIER_MIN_TW / self.w_split
            # the arguments w t of the integrals below w_split, and g's growth, Re g's 2 eta t / (beta gamma) and Im g's
            # eta t, as HighTemperatureBrownian's
            eta = self.bath.eta
            self._t_max = _largest_time(self.w_split, eta + 2.0 * eta / beta / self.bath.gamma, 0.0)
            # int_{w_split}^inf (J/w^2) coth dw and int_0^inf (J/w) dw
            self._tail_rc = integrate_to_inf(
                lambda w: self._f_rc(w), self.w_split, tag="coth tail moment"
            )
            self._j1_total = integrate_finite(
                lambda w: self._j_over_w(w), 0.0, self.w_split, tag="J/w"
            ) + integrate_to_inf(lambda w: self._j_over_w(w), self.w_split, tag="J/w tail")

    def _j_over_w(self, w):
        # at unit coupling: every integrand is linear in eta, which _eta_times puts in last, so that _quadrature's
        # absolute test, which a small eta would pass on a failed integral, meets the integral at eta = 1
        gamma = self.bath.gamma
        return 2.0 * gamma / (w * w + gamma * gamma)

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
        """row at every time of t after _check_times, which raises DephaserError past t_max; DephaserError at the first
        0 < t < t_min of a Brownian density."""
        ts, scalar = _check_times(t, self._t_max)
        for s in ts.tolist() if self.bath is not None else ():
            if 0.0 < s < self._t_min:
                raise DephaserError(
                    f"time {s!r} is below the validated domain of freq-quad, "
                    f"t >= {_FOURIER_MIN_TW:g} / w_split = {self._t_min!r}"
                )
        return _rows(row, ts, scalar)

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
        return self._eta_times(re, im)

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
        return self._eta_times(re, im)

    def _eta_times(self, re: float, im: float) -> complex:
        """eta (re - i im) / pi from the unit-coupling integrals re and im of a Brownian density."""
        eta = self.bath.eta
        return complex(eta * (re / math.pi), eta * (-im / math.pi))

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
    A Brownian density raises DephaserError past max(gamma, 2 pi / beta)
    t = _TQ_RATE_T (2500), where the rule starts to miss L's narrow part.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        self.bath = self.certified_bath = _brownian_bath(sd, beta)
        self._t_max = _FLOAT_MAX
        if self.bath is not None:
            self._corr = BrownianCorrelation(self.bath)
            self._t_max = _TQ_RATE_T / max(self.bath.gamma, _TWO_PI / beta)
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
        """int_0^t w(u) L(u) du with w = t - u (g) or 1 (gdot); Re and Im integrated apart.  DephaserError past t_max."""
        if t == 0.0:
            return 0j
        if t > self._t_max:
            raise DephaserError(
                f"time {t!r} is past the validated domain of time-quad, max(gamma, 2 pi / beta) t <= "
                f"{_TQ_RATE_T:g} (t <= {self._t_max!r})"
            )
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
