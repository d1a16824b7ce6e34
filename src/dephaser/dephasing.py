"""Lineshape (dephasing) function g(t) of a pure-dephasing two-level system.

g is the double time integral of the bath correlation function,

    g(t) = int_0^t dtau (t - tau) L(tau),

and its derivative gdot(t) = int_0^t dtau L(tau).  Four interchangeable
evaluators are provided:

  * BrownianMatsubara: the pole-plus-Matsubara series with the dropped
    n > K thermal remainder resummed exactly through digamma closed forms
    (include_tail=True, the default) or truncated strictly at K terms.
    Its digamma is spectral._digamma, so it and HighTemperatureBrownian
    load no scipy; only the two quadrature engines do.
  * HighTemperatureBrownian: the beta*gamma -> 0 closed form.
  * FrequencyQuadrature: direct adaptive integration of the spectral
    representation, with the oscillatory tails handled by a dedicated
    Fourier integrator.  Independent of the series route.
  * TimeDomainQuadrature: nested quadrature of (t - tau) L(tau) against
    the analytic correlation function.  Independent of both others.

The quadrature engines exist as cross-checks: on the default bath the
three routes agree to better than 1e-6 relative for t in [0.05, 20], the
range acceptance criterion 1 tests.  They are not validated below it:
from t of about 1e-5 down, each route is off by 1e-6 relative or more
(the series by cancellation in its tail, the quadratures by their
absolute tolerances and Fourier tails).  FrequencyQuadrature raises
DephaserError for a Brownian density at 0 < t < 3e-4 / w_split
(3e-5 on the default bath), where its Fourier tails lose Re g.

Every engine's g and gdot take a time (a float, giving a complex) or a
1-d array of times (giving a complex array), and check the times once
per call.  A time gets the same bits alone as inside an array.
BrownianMatsubara also remembers the values of its pointwise calls (one
to three times, as the two-interval kernels and the measure's curves
make them), up to _MEMO_TIMES times per function, and returns the same
bits from the memo as computed afresh.
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import integrate_finite, integrate_fourier_tail, integrate_to_inf
from .errors import DephaserError, ResonanceError
from .spectral import (
    _EXP_DEAD,
    _FOURIER_MIN_TW,
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    _brownian_bath,
    _check_beta,
    _check_time,
    _digamma,
    _split_frequency,
    _tabulated_grid,
    coth,
)

_BLOCK_CAP = 2_000_000
# elements of the times x explicit-terms table, or of a tail block, that BrownianMatsubara builds at once
_TABLE_BUDGET = 1 << 16
# n > K coefficients (of each of nu_n, c_n, -c_n nu_n) that a BrownianMatsubara keeps between calls
_TAIL_CACHE = 1 << 18
# times each of BrownianMatsubara's g and gdot remember from its pointwise calls; a full memo is cleared
_MEMO_TIMES = 1024
# the most times of a call the memo serves: the t1, t2, t1 + t2 of a two-interval call
_MEMO_CALL = 3
_TWO_PI = 2.0 * math.pi


def flip_exponent(g1, g2, g12):
    """Exponent 2 g(t1) + 2 g(t2) - g(t1+t2) of a coherence flipped between two intervals.

    The one object shared by the echo response and the flipped-coherence
    propagation kernel.  Takes g at t1, t2 and t1+t2 as scalars or
    broadcastable arrays.
    """
    return 2.0 * g1 + 2.0 * g2 - g12


def _as_times(t) -> tuple[np.ndarray, bool]:
    """(t as a 1-d float array, whether t is a scalar); a scalar is checked as _check_time does, an array is not."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return np.array([_check_time(t)]), True
    if ts.ndim != 1:
        raise ValueError(f"times must be a scalar or a 1-d array, got shape {ts.shape}")
    return ts, False


def _check_times(t) -> tuple[np.ndarray, bool]:
    """(t as a 1-d float array, whether t is a scalar); ValueError as _check_time at the first bad time.

    For an engine that computes on the whole array: the times are checked
    by two numpy reductions.
    """
    ts, scalar = _as_times(t)
    # min is nan if any time is, so the comparisons fail for nan, inf and negative times alike
    if not scalar and ts.size and not (np.minimum.reduce(ts) >= 0.0 and np.maximum.reduce(ts) < math.inf):
        _check_time(ts[np.argmax(~(np.isfinite(ts) & (ts >= 0.0)))])
    return ts, scalar


def _time_list(t) -> tuple[np.ndarray, list, bool]:
    """(t as a 1-d float array, the same times as a list of Python floats, whether t is a scalar).

    For an engine that steps through the times in Python: the times are
    checked on the list it needs anyway (ValueError as _check_time at the
    first bad time), which costs a few-time call far less than numpy
    reductions do.
    """
    ts, scalar = _as_times(t)
    times = ts.tolist()
    # a nan or infinite time makes the sum nan or inf, and with none of them min is the least time
    if not scalar and times and not (sum(times) < math.inf and min(times) >= 0.0):
        for s in times:
            _check_time(s)  # raises at the first bad time; none is bad when only the sum overflowed
    return ts, times, scalar


def _rows(row, times: list, scalar: bool, *columns: list):
    """row(t, *column values at t) -> complex at every time of the list times.

    A Python complex when the times were a scalar, a complex array otherwise.
    """
    values = list(map(row, times, *columns))
    return values[0] if scalar else np.fromiter(values, complex, len(values))


def _complex(re: np.ndarray, im: np.ndarray, scalar: bool):
    """re + i im: a Python complex when the times were a scalar, a complex array otherwise."""
    out = re.astype(complex)
    out.imag = im
    return complex(out[0]) if scalar else out


def _normal(value: float, what: str) -> float:
    """value when it is a normal float; DephaserError when the arithmetic that gave it over- or underflowed."""
    if not np.finfo(float).smallest_normal <= abs(value) < math.inf:
        raise DephaserError(f"{what} = {value!r} leaves the normal floats: the bath is outside this engine's range")
    return value


def _finite(value: float, what: str) -> float:
    """value when it is finite; DephaserError when the arithmetic that gave it overflowed."""
    if not math.isfinite(value):
        raise DephaserError(f"{what} = {value!r} overflows: the bath is outside this engine's range")
    return value


def _series_terms(neg_x, coef, derivative: bool):
    """Matsubara terms coef (expm1(-x) + x) of g, or coef expm1(-x) of gdot (over neg_x), from neg_x = -x."""
    if derivative:
        e = np.expm1(neg_x, out=neg_x)
    else:
        e = np.expm1(neg_x)
        e -= neg_x
    e *= coef
    return e


def _g_distinct(evaluator, times) -> np.ndarray:
    """Complex g at every time of the 1-d array times, from one evaluator call on the distinct values."""
    distinct, where = np.unique(times, return_inverse=True)
    return evaluator.g(distinct)[where]


class BrownianMatsubara:
    """Pole-plus-Matsubara series for the overdamped Brownian bath.

    g(t) = (eta/gamma) [cot(beta gamma / 2) - i] h(gamma t)
           + sum_{n=1}^{K} c_n h(nu_n t) + tail,
    h(x) = e^-x + x - 1,  nu_n = BathParams.matsubara_frequency(n).

    With include_tail=True (default) the n > K remainder is evaluated
    exactly: live exponentials are accumulated until they underflow and
    the linear-in-t rest has a digamma closed form (spectral._digamma).
    include_tail=False keeps exactly the K explicit terms;
    matsubara_remainder reports what that truncation drops.

    A pole degenerate with nu_m (BathParams.res_index = m) has its
    diverging cot and series terms replaced by their combined finite
    limit, which requires m <= K.

    The constructor raises DephaserError where a^2 (a = beta gamma / 2 pi,
    which S0 divides by) or nu_K^2 (in c_K) leaves the normal floats:
    beta gamma < 9.4e-154 or 2 pi K / beta > 1.3e154.  It also raises where
    an amplitude of the pole term overflows: eta / gamma, (eta / gamma)
    cot(beta gamma / 2) (eta 1e300, gamma 1e-8, beta 1e-20), eta
    cot(beta gamma / 2), or at resonance 2 eta / beta; and with its tail
    where a prefactor of the digamma sums does (eta 1e307, gamma 1, beta
    100).

    g and gdot take a time or a 1-d array of times.  The K explicit terms
    of all times are one times x K table, summed row by row; the pole
    term (math.expm1/exp) and the tail follow time by time, so a time
    gets the same bits alone as in an array.

    A call of at most _MEMO_CALL (3) times is pointwise: g and gdot each
    keep a memo, time -> value, of the times such calls computed, and
    skip the pole term and tail of the times it holds (and the table
    too when it holds them all).  An echo row repeats t1 and the rows
    share their t2 axis, and a Prepared(t1) curve asks for g(t1) at
    every point.  A memo holds at most _MEMO_TIMES (1024) times and is
    cleared when the times of a call could overfill it.  Larger calls
    (grids, the scan, distinct-time helpers, which do not repeat a time)
    neither read nor fill it, so memory does not grow with the grid.
    """

    def __init__(self, bath: BathParams, include_tail: bool = True):
        self.bath = bath
        self.beta = bath.beta
        self.include_tail = include_tail
        # the bath of the exact g, whose growth rate has one zero at most (measures); not with a truncated sum
        self.certified_bath = bath if include_tail else None
        eta, gamma, beta = bath.eta, bath.gamma, bath.beta
        k = bath.matsubara_terms
        m = self.res_index = bath.res_index
        if m > k:
            raise ResonanceError(
                f"bath pole gamma = {gamma:g} is degenerate with Matsubara frequency "
                f"nu_{m}; increase matsubara_terms to at least {m} (got {k})"
            )

        self._a = a = bath.pole_ratio
        a2 = _normal(a**2, "(beta gamma / 2 pi)^2")
        self.nu = bath.matsubara_frequency(np.arange(1.0, k + 1.0))
        if k:
            _normal(float(self.nu[-1]) * float(self.nu[-1]), "nu_K^2")
        with np.errstate(divide="ignore"):
            c = 4.0 * eta * gamma / (beta * self.nu * (self.nu**2 - gamma**2))
        if m:
            c[m - 1] = 0.0
            self.nu_res = float(self.nu[m - 1])
            self.cot_amp = 0.0
        else:
            self.cot_amp = 1.0 / math.tan(0.5 * beta * gamma)
        self.c = c
        self.cnu = c * self.nu
        # -nu_n and -c_n nu_n, the factors of the table rows, and the rows of one table
        self._neg_nu = -self.nu
        self._neg_cnu = -self.cnu
        self._table_rows = max(1, _TABLE_BUDGET // max(k, 1))
        # per-bath factors of the row, _tail and _live_stop formulas, each the value or product its formula starts
        # with (same bits)
        self._k = k
        self._gamma = gamma
        self._neg_gamma = -gamma
        self._im_g_amp = -_finite(eta / gamma, "eta / gamma")
        self._re_g_amp = _finite((eta / gamma) * self.cot_amp, "(eta / gamma) cot(beta gamma / 2)")
        self._re_gdot_amp = _finite(eta * self.cot_amp, "eta cot(beta gamma / 2)")
        self._res_row_amp = 2.0 * eta / beta
        if m:
            _finite(self._res_row_amp, "2 eta / beta")
        self._dead_beta = _EXP_DEAD * beta
        # the prefactors of the digamma sums of _tail_sums
        self._s1_amp = eta * gamma * beta / math.pi**2
        self._s0_amp = (eta * gamma * beta**2 / (2.0 * math.pi**3)) / a2
        if include_tail:
            self._check_tail_amps()
        self._s0_k, self._s1_k = self._tail_sums(k)
        # nu_n, c_n and -c_n nu_n for the first n > K, computed when a time first needs them
        self._tail_cache = {}
        # time -> g(t) and time -> gdot(t) of the pointwise calls
        self._g_memo = {}
        self._gdot_memo = {}

    def _check_tail_amps(self) -> None:
        """DephaserError where a prefactor of the digamma sums of _tail_sums overflows."""
        _finite(self._s1_amp, "eta gamma beta / pi^2")
        _finite(self._s0_amp, "eta gamma beta^2 / (2 pi^3 a^2)")

    def _tail_sums(self, m: int, derivative: bool = False) -> tuple[float, float]:
        """(S0, S1) with S0 = sum_{n>m} c_n and S1 = sum_{n>m} c_n nu_n; S0 is nan when derivative.

        c_n = 4 eta gamma / (beta nu_n (nu_n^2 - gamma^2)).  Both sums telescope
        to digamma differences; exact for any m >= the resonant index.  gdot
        needs S1 only, so derivative skips the digamma of S0.
        """
        a, n = self._a, m + 1.0
        above, below = _digamma(n + a), _digamma(n - a)
        s1 = self._s1_amp * (above - below) / (2.0 * a)
        s0 = math.nan if derivative else self._s0_amp * (_digamma(n) - 0.5 * (below + above))
        return s0, s1

    def _tail_terms(self, name: str, lo: int, hi: int, nu: np.ndarray | None = None) -> np.ndarray:
        """nu_n ("nu"), c_n ("c") or -c_n nu_n ("ncnu") for n = K+1+lo, ..., K+hi.

        A slice of the cache when it holds them, computed otherwise; a
        coefficient is computed from nu when given (those nu_n).  Every entry
        is computed on its own, so both give the same bits.
        """
        cached = self._tail_cache.get(name)
        if cached is not None and hi <= cached.size:
            return cached[lo:hi]
        p = self.bath
        if name == "nu":
            k = p.matsubara_terms
            return p.matsubara_frequency(np.arange(k + 1.0 + lo, k + 1.0 + hi))
        if nu is None:
            nu = self._tail_terms("nu", lo, hi)
        if name == "c":
            return 4.0 * p.eta * p.gamma / (p.beta * nu * (nu**2 - p.gamma**2))
        return -(4.0 * p.eta * p.gamma / (p.beta * (nu**2 - p.gamma**2)))

    def _live_stop(self, t: float) -> int:
        """Last n of the live block past K at time t, or 0 when every e^{-nu_n t} with n > K is dead.

        DephaserError at a time so small (subnormal, for beta near 1) that the last live n overflows.
        """
        k = self._k
        try:
            n_osc = math.ceil(self._dead_beta / (_TWO_PI * t))
        except OverflowError:
            raise DephaserError(f"time {t!r} is too small for the Matsubara tail: its live terms overflow") from None
        return 0 if n_osc <= k else min(n_osc, k + _BLOCK_CAP)

    def _tail(self, t: float, derivative: bool) -> float:
        """The n > K part of g(t), or of gdot(t): the live terms, then the digamma rest.

        The coefficients of the live terms are cached up to _TAIL_CACHE of
        them; the block is built and summed _TABLE_BUDGET terms at a time.
        """
        # ceil(x) <= K exactly when x <= K, so this is _live_stop(t) == 0 without its call
        if self._dead_beta / (_TWO_PI * t) <= self._k:
            return self._s1_k if derivative else t * self._s1_k - self._s0_k
        n_stop = self._live_stop(t)
        m = n_stop - self._k
        coef_name = "ncnu" if derivative else "c"
        for name in ("nu", coef_name):
            cached = self._tail_cache.get(name)
            if cached is None or cached.size < min(m, _TAIL_CACHE):
                self._tail_cache[name] = self._tail_terms(name, 0, min(m, _TAIL_CACHE))

        block = 0.0
        for lo in range(0, m, _TABLE_BUDGET):
            hi = min(lo + _TABLE_BUDGET, m)
            nu = self._tail_terms("nu", lo, hi)
            terms = _series_terms(nu * -t, self._tail_terms(coef_name, lo, hi, nu), derivative)
            block += float(np.add.reduce(terms))
        s0, s1 = self._tail_sums(n_stop, derivative)
        return block + s1 if derivative else block + t * s1 - s0

    def _explicit(self, ts: np.ndarray, derivative: bool) -> np.ndarray:
        """Sum of the K explicit terms at every time: c_n h(nu_n t), or -c_n nu_n expm1(-nu_n t) for gdot.

        The times x K table is built at most _TABLE_BUDGET elements at a
        time (one row when K alone exceeds it), and each row is summed as
        the 1-d sum of its K terms is.
        """
        rows = self._table_rows
        if ts.size > rows:
            return np.concatenate([self._explicit(ts[i : i + rows], derivative) for i in range(0, ts.size, rows)])
        coef = self._neg_cnu if derivative else self.c
        return np.add.reduce(_series_terms(ts[:, None] * self._neg_nu, coef, derivative), axis=1)

    def _g_row(self, t: float, explicit: float) -> complex:
        if t == 0.0:
            return 0j
        hg = math.expm1(self._neg_gamma * t) + self._gamma * t
        re = explicit
        if self.res_index:
            nu = self.nu_res
            re += self._res_row_amp * (
                -t * math.expm1(-nu * t) / nu
                - 1.5 * (math.expm1(-nu * t) + nu * t) / nu**2
            )
        else:
            re += self._re_g_amp * hg
        if self.include_tail:
            re += self._tail(t, False)
        return complex(re, self._im_g_amp * hg)

    def _gdot_row(self, t: float, explicit: float) -> complex:
        if t == 0.0:
            return 0j
        em = math.expm1(self._neg_gamma * t)
        re = explicit
        if self.res_index:
            nu = self.nu_res
            re += self._res_row_amp * (
                t * math.exp(-nu * t) + math.expm1(-nu * t) / (2.0 * nu)
            )
        else:
            re += self._re_gdot_amp * (-em)
        if self.include_tail:
            re += self._tail(t, True)
        return complex(re, self.bath.eta * em)

    def _values(self, t, memo: dict, derivative: bool):
        """g (or gdot, when derivative) at t, through memo when t has at most _MEMO_CALL times.

        A pointwise call returns at once when memo holds all its times;
        otherwise it builds the table of its times, as every call does,
        and the row step of each time memo lacks, which it stores.  A
        larger call leaves memo alone.  A time's value is its own table row
        and row step either way, so its bits do not depend on the path.
        """
        ts, times, scalar = _time_list(t)
        row = self._gdot_row if derivative else self._g_row
        if len(times) > _MEMO_CALL:
            return _rows(row, times, scalar, self._explicit(ts, derivative).tolist())
        values = list(map(memo.get, times))
        if None in values:
            # the table costs its few ufunc calls whatever its rows, so it is built for every time of the call
            explicit = self._explicit(ts, derivative).tolist()
            if len(memo) + len(times) > _MEMO_TIMES:
                memo.clear()
            for i, v in enumerate(values):
                if v is None:
                    s = times[i]
                    values[i] = memo[s] = row(s, explicit[i])
        return values[0] if scalar else np.fromiter(values, complex, len(values))

    def g(self, t):
        """g at a time (a complex) or at every time of a 1-d array (a complex array)."""
        return self._values(t, self._g_memo, derivative=False)

    def gdot(self, t):
        """gdot at a time (a complex) or at every time of a 1-d array (a complex array)."""
        return self._values(t, self._gdot_memo, derivative=True)

    def matsubara_remainder(self, t: float) -> complex:
        """Exact value of the n > K part of g(t) that strict truncation drops.

        DephaserError where a prefactor of the digamma sums overflows, which
        only the constructor of the engine with its tail checks.
        """
        t = _check_time(t)
        self._check_tail_amps()
        if t == 0.0:
            return 0j
        return complex(self._tail(t, False), 0.0)


class HighTemperatureBrownian:
    """beta*gamma -> 0 closed form: g(t) = (2 eta/(beta gamma^2) - i eta/gamma) h(gamma t).

    g and gdot take a time or a 1-d array of times, computed on the whole
    array.  DephaserError where beta gamma^2, beta gamma or 2 eta over either
    leaves the normal floats (magnitude below 2.2e-308, or infinite).
    """

    def __init__(self, bath: BathParams):
        self.bath = self.certified_bath = bath
        self.beta = bath.beta
        eta, gamma, beta = bath.eta, bath.gamma, bath.beta
        self._g_amp = _normal(2.0 * eta / _normal(beta * gamma**2, "beta gamma^2"), "2 eta / (beta gamma^2)")
        self._gdot_amp = _normal(-2.0 * eta / _normal(beta * gamma, "beta gamma"), "2 eta / (beta gamma)")

    def g(self, t):
        ts, scalar = _check_times(t)
        p = self.bath
        hg = np.expm1(-p.gamma * ts) + p.gamma * ts
        return _complex(self._g_amp * hg, -(p.eta / p.gamma) * hg, scalar)

    def gdot(self, t):
        ts, scalar = _check_times(t)
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
        return _rows(self._g, *self._times_in_domain(t))

    def gdot(self, t):
        return _rows(self._gdot, *self._times_in_domain(t))

    def _times_in_domain(self, t) -> tuple[list, bool]:
        """_time_list's times and scalar flag; DephaserError at the first 0 < t < t_min of a Brownian density."""
        _, times, scalar = _time_list(t)
        if self.bath is not None:
            for s in times:
                if 0.0 < s < self._t_min:
                    raise DephaserError(
                        f"time {s!r} is below the validated domain of freq-quad, "
                        f"t >= {_FOURIER_MIN_TW:g} / w_split = {self._t_min!r}"
                    )
        return times, scalar

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

    def g(self, t):
        return _rows(lambda s: self._integral(s, False), *_time_list(t)[1:])

    def gdot(self, t):
        return _rows(lambda s: self._integral(s, True), *_time_list(t)[1:])

    def _integral(self, t: float, derivative: bool) -> complex:
        """int_0^t w(u) L(u) du with w = t - u (g) or 1 (gdot); Re and Im integrated apart."""
        if t == 0.0:
            return 0j
        corr = self._corr
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
