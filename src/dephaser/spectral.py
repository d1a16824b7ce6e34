"""Bath spectral densities and finite-temperature correlation functions.

The environment is a harmonic bath with spectral density J(omega) at
inverse temperature beta (hbar = k_B = 1).  The bath correlation function

    L(t) = (1/pi) * int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is what every dephasing quantity downstream is built from.  For the
overdamped Brownian form

    J(w) = 2 eta w gamma / (w^2 + gamma^2)

L(t) has a pole-plus-Matsubara expansion (BrownianCorrelation): the
Matsubara terms next to the pole are summed exactly and the rest by
Euler-Maclaurin, at a bounded cost per call at any temperature.  Against a
40-digit Lerch-phi sum (tests/_oracle.py) Re L is within 1e-13 relative,
or 8 ulp of the sum of its terms' magnitudes where it is tiny against
them, from beta 0.1 to 1e6.  Tabulated spectral densities are integrated
on their own grid.

Re L(t) diverges logarithmically as t -> 0 for the Brownian form (the
integrand falls off only as 1/w), so L(0) raises DephaserError there;
lim_{t->0+} Im L(t) = -eta*gamma.  A tabulated density has a finite grid,
so its L(0) is the finite trapezoid sum, with Im L(0) = 0 by oddness.

BathParams makes every decision about the Brownian bath: the thermal frequencies nu_n, the pair of the
pole gamma with the nearest one, and the one table of its Dirichlet coefficients (DirichletTable), which
the analytic L here and the series engine of dephasing (BrownianMatsubara) read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._expint_fits import _E1_FIT, _EI_FIT
from ._quadrature import integrate_finite, integrate_fourier_tail
from .errors import DephaserError, ExtrapolationError

# t w_split below which the Brownian routes that hand the integral above w_split to the Fourier rule raise
# DephaserError.  Measured on log sweeps: freq-quad's Re g is off a 40-digit series by up to 4e-6 relative at 1e-4
# and by 3e10-6e10 at 1e-6, and QAWF segfaults at subnormal t.  The quadrature route of L (9 baths against the
# analytic route) agrees to 1e-9 or raises IntegrationError from 1e-4 to about 60; from 6e-5 down it also returns
# values 1e-9 to 8e-9 off, from 1e-152 down values 90 % off or worse, and it segfaults from about 1e-305 down.
_FOURIER_MIN_TW = 3e-4

# n > K terms (of each of nu_n, c_n, B_n) that a DirichletTable keeps between calls
_TAIL_KEPT = 1 << 18

# Exponentials e^-x are dead (below about 3e-20) past this x: L's direct sum and the Matsubara tail stop there.
_EXP_DEAD = 45.0

_L0_DIVERGES = "Re L(t) of the Brownian bath diverges logarithmically as t -> 0; L(0) is undefined"


# The Matsubara terms that BrownianCorrelation sums exactly on either side of the one nearest the pole below
# x = _DIRECT_X, so that its Euler-Maclaurin tails start 32.5 or more from the pole; from _DIRECT_X it sums the at
# most 225 live terms.  From _A_MAX on, the window's n - a are no longer exact.
_WINDOW = 32
_DIRECT_X = 0.2
_A_MAX = 2.0**52
# B_2k / (2k)! at j = 2k - 1 = 1, 3, ..., 9: the Euler-Maclaurin corrections of the tails, by the j-th derivative
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
_EULER_GAMMA = 0.57721566490153286061
# z from which e^-z Ei(z) and e^z E1(z) are their asymptotic series
_ASYMPTOTIC = 50.0
# 1 / (k k!) for k = 18, ..., 1: the terms of _exp_integral_series, of which the 19th and later leave out less than
# 0.01 ulp of e^z E1(z) and e^-z Ei(z) below z = 1
_SERIES = tuple(1 / (k * math.factorial(k)) for k in range(18, 0, -1))


def _check_time(t) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    return t


def _check_beta(beta) -> float:
    """beta as a float; ValueError unless positive and finite."""
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    return beta


def coth(x):
    """Hyperbolic cotangent, switching to the Laurent form 1/x + x/3 below |x| = 1e-4.

    One Python float (what the quadrature integrands pass) runs the same
    float operations without the array machinery, with the array path's
    bits: np.tanh, whose bits differ from math.tanh's, and +-inf at +-0.
    """
    if type(x) is float:
        if not abs(x) < 1e-4:
            return float(1.0 / np.tanh(x))
        return 1.0 / x + x / 3.0 if x else math.copysign(math.inf, x)
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    big = np.where(small, 1.0, x)
    tiny = np.where(small, x, 1.0)
    with np.errstate(divide="ignore"):
        out = np.where(small, 1.0 / tiny + tiny / 3.0, 1.0 / np.tanh(big))
    return float(out) if out.ndim == 0 else out


def _e1_scaled(z: float) -> float:
    """e^z E1(z) for z > 0, to a few ulp, at a fixed cost: its power series below 1, where it cancels by at most a
    factor 4, the piecewise polynomials of _E1_FIT (within about 1 ulp) on [1, _ASYMPTOTIC), and its asymptotic series
    from there."""
    if z < 1.0:
        return math.exp(z) * (-_EULER_GAMMA - math.log(z) - _exp_integral_series(-z))
    if z < _ASYMPTOTIC:
        return _fit(z, _E1_FIT)
    return 1.0 / z + _asymptotic_rest(z, -1.0)


def _ei_scaled(z: float) -> float:
    """e^-z Ei(z) for 0 < z < _ASYMPTOTIC, to a few ulp of max(|e^-z Ei(z)|, e^-z |log z|), at a fixed cost: its power
    series, of positive terms, below 1 and the piecewise polynomials of _EI_FIT above.  From _ASYMPTOTIC on,
    BrownianCorrelation._end sums the asymptotic series in its place."""
    if z < 1.0:
        return math.exp(-z) * (_EULER_GAMMA + math.log(z) + _exp_integral_series(z))
    return _fit(z, _EI_FIT)


def _exp_integral_series(w: float) -> float:
    """sum_{k >= 1} w^k / (k k!) for |w| < 1, which is Ei(w) - gamma - log w for w > 0 and -gamma - log |w| - E1(|w|)
    for w < 0 (A&S 5.1.10-11), by Horner's rule in its first 18 terms."""
    p = 0.0
    for c in _SERIES:
        p = p * w + c
    return p * w


def _fit(z: float, table: tuple) -> float:
    """The polynomial of the piece of z, 1 <= z < 56, in a table of _expint_fits: at s, z = 2^(e-3) (k + 1/2 + s)."""
    m, e = math.frexp(z)
    m *= 8.0
    k = int(m)
    s = m - k - 0.5  # exact
    p = 0.0
    for c in table[4 * e + k - 8]:
        p = p * s + c
    return p


def _asymptotic_rest(z: float, sign: float) -> float:
    """sum_{k >= 1} sign^k k! / z^(k+1), z >= _ASYMPTOTIC: the asymptotic series of e^-z Ei(z) (sign 1) or of
    e^z E1(z) (sign -1) less its first term 1 / z, to its first term below 1e-17 of the sum, which comes before the
    terms grow again at k = z (the smallest is 2e-19 of the sum at z = 50)."""
    term, s, k = sign / (z * z), 0.0, 1
    while abs(term) > 1e-17 * abs(s) and k < z:
        s += term
        k += 1
        term *= sign * k / z
    return s


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


def _pow(x: float, n: int) -> float:
    """x ** n with the bits of Python's float power, and inf where that raises OverflowError (x >= 0)."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def _cot_rest(z: float) -> float:
    """cot(z) - 1/z for |z| <= pi / 2.  Below |z| = 1/4, where cot(z) and 1/z would cancel, the first seven terms of
    -sum_k c_k z^(2k-1), c_k = 2^(2k) |B_2k| / (2k)! (A&S §4.3), which leave out less than 1e-16 of it."""
    if abs(z) >= 0.25:
        return 1.0 / math.tan(z) - 1.0 / z
    w = z * z
    high = 2 / 93555 + w * (1382 / 638512875 + w * (4 / 18243225))
    return -z * (1 / 3 + w * (1 / 45 + w * (2 / 945 + w * (1 / 4725 + w * high))))


def _digamma(x: float) -> float:
    """digamma(x) for x >= 1/2, the tail sums' arguments, within 8 ulp of max(|digamma|, 1): the asymptotic
    series above 10 and the recurrence psi(x) = psi(x + 1) - 1/x up to it."""
    acc = 0.0
    while x <= 10.0:
        acc -= 1.0 / x
        x += 1.0
    # The asymptotic series, its Horner polynomial in 1/x^2 written out: this is the engine's hot path.
    z = 1.0 / (x * x)
    s = 8.33333333333333333333e-2 * z - 2.10927960927960927961e-2
    s = s * z + 7.57575757575757575758e-3
    s = s * z - 4.16666666666666666667e-3
    s = s * z + 3.96825396825396825397e-3
    s = s * z - 8.33333333333333333333e-3
    s = z * (s * z + 8.33333333333333333333e-2)
    return acc + (math.log(x) - 0.5 / x - s)


@dataclass(frozen=True)
class BathParams:
    """Overdamped Brownian bath: coupling eta, cutoff gamma, inverse temperature beta.

    matsubara_terms is the number K of thermal poles kept explicitly in series evaluations downstream.
    The thermal frequencies nu_n and the Dirichlet table are derived here, once.
    """

    eta: float
    gamma: float
    beta: float
    matsubara_terms: int = 100

    def __post_init__(self):
        for name in ("eta", "gamma", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        k = self.matsubara_terms
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"matsubara_terms must be a nonnegative integer, got {k!r}")

    def matsubara_frequency(self, n):
        """n-th bosonic thermal frequency nu_n = 2 pi n / beta, for an index or an array of them."""
        return 2.0 * math.pi * np.asarray(n, dtype=float) / self.beta

    @property
    def pole_ratio(self) -> float:
        """a = beta gamma / (2 pi), the pole gamma in units of nu_1."""
        return self.beta * self.gamma / (2.0 * math.pi)

    def dirichlet(self) -> DirichletTable:
        """A new Dirichlet coefficient table of this bath, which its reader keeps."""
        return DirichletTable(self)


class DirichletTable:
    """Every coefficient of the Brownian bath's Dirichlet form Re gdot(t) = rate - sum_k B_k e^{-lambda_k t}, once.

    lambda_k runs over gamma and the nu_n: B_gamma = pole_b = eta cot(beta gamma / 2), B_n = c_n nu_n with
    c_n = 4 eta gamma / (beta nu_n (nu_n^2 - gamma^2)), and rate = sum_k B_k = 2 eta / (beta gamma).  So
    Re g(t) = rate t - sum_k (B_k / lambda_k)(1 - e^{-lambda_k t}) and Re L(t) = sum_k B_k lambda_k e^{-lambda_k t};
    Im g(t) = -pole_im h(gamma t), h(y) = e^-y + y - 1.  The pair: with a = beta gamma / 2 pi and m = round(a) >= 1,
    by the partial fractions of cot (A&S §4.3) B_gamma = P / (gamma - nu_m) + pole_rest and B_m = P / (nu_m - gamma)
    + m_rest, P = pair_amp = 2 eta / beta, pole_rest = eta (cot(pi eps) - 1 / (pi eps)), eps = a - m, m_rest = -P /
    (nu_m + gamma).  The engines sum both rests and P times a divided difference over [gamma, nu_m]: the parts of
    order 1 / (a - m) cancel in the algebra.  So c_m = B_m = 0 in explicit, tail and tail_sums, and the bare pole_b
    and pole_c serve only a < 1/2 (m = 0) and strict truncation without the m-th term.  The tail's B_n is 4 eta gamma
    / (beta (nu_n^2 - gamma^2)) where the K explicit terms take c_n nu_n.  DephaserError where a overflows.
    """

    def __init__(self, bath: BathParams):
        self.bath = bath
        eta, gamma, beta = bath.eta, bath.gamma, bath.beta
        a = _finite(bath.pole_ratio, "beta gamma / 2 pi")
        # the numerator of every c_n and B_n
        self.amp = 4.0 * eta * gamma
        self.cot = 1.0 / math.tan(0.5 * beta * gamma)
        self.rate = 2.0 * eta / (beta * gamma)
        self.pole_b = eta * self.cot
        self.pole_im = eta / gamma
        self.pole_c = self.pole_im * self.cot
        # the pair: the thermal frequency nearest the pole and the smooth constants of the two terms
        self.m = round(a)
        self.nu_m = float(bath.matsubara_frequency(self.m))
        self.pair_amp = 2.0 * eta / beta
        self.pole_rest = eta * _cot_rest(math.pi * (a - self.m))
        self.m_rest = -self.pair_amp / (self.nu_m + gamma)
        # the first n > K terms of tail, by name, once computed
        self._kept = {}

    @cached_property
    def explicit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nu_n, c_n, B_n) for n = 1, ..., K, with B_n = c_n nu_n and c_m = B_m = 0."""
        nu = self.bath.matsubara_frequency(np.arange(1.0, self.bath.matsubara_terms + 1.0))
        c = self._coefficient("c", nu, 1)
        return nu, c, c * nu

    def _coefficient(self, name: str, nu: np.ndarray, first: int) -> np.ndarray:
        """c_n ("c") or the tail's B_n ("b") at the frequencies nu of n = first, first + 1, ..., with the m-th 0.

        DephaserError where nu_n^2, a product of the denominator or the coefficient overflows.
        """
        beta, gamma = self.bath.beta, self.bath.gamma
        try:
            with np.errstate(divide="ignore", over="raise"):  # nu_m = gamma exactly: the entry the pair replaces
                coef = self.amp / (beta * nu * (nu**2 - gamma**2) if name == "c" else beta * (nu**2 - gamma**2))
        except FloatingPointError:
            raise DephaserError(
                f"a coefficient {name}_n of n = {first} to {first + nu.size - 1} overflows: the bath is outside this "
                "engine's range, or the time too small for its live Matsubara terms"
            ) from None
        if 0 <= self.m - first < coef.size:
            coef[self.m - first] = 0.0
        return coef

    def tail(self, name: str, lo: int, hi: int, nu: np.ndarray | None = None) -> np.ndarray:
        """nu_n ("nu"), c_n ("c") or B_n ("b") for n = K+1+lo, ..., K+hi, from nu when given, or the kept ones (keep).

        Each entry is computed on its own, so a kept one has the bits of one computed afresh.
        """
        kept = self._kept.get(name)
        if kept is not None and hi <= kept.size:
            return kept[lo:hi]
        k = self.bath.matsubara_terms
        if name == "nu":
            return self.bath.matsubara_frequency(np.arange(k + 1.0 + lo, k + 1.0 + hi))
        return self._coefficient(name, self.tail("nu", lo, hi) if nu is None else nu, k + 1 + lo)

    def keep(self, stop: int, *names: str) -> None:
        """Keep the first min(stop, _TAIL_KEPT) terms of tail(name, ...) of each name for later calls."""
        size = min(stop, _TAIL_KEPT)
        for name in names:
            if name not in self._kept or self._kept[name].size < size:
                self._kept[name] = self.tail(name, 0, size)

    @cached_property
    def tail_amps(self) -> tuple[float, float]:
        """The prefactors of S1 and of S0 in tail_sums."""
        eta, gamma, beta = self.bath.eta, self.bath.gamma, self.bath.beta
        s0_amp = (eta * gamma * _pow(beta, 2) / (2.0 * math.pi**3)) / self.bath.pole_ratio**2
        return eta * gamma * beta / math.pi**2, s0_amp

    def tail_sums(self, last: int, derivative: bool = False) -> tuple[float, float]:
        """(S0, S1), S0 = sum c_n and S1 = sum B_n over n > last but n = m, by digamma; S0 is nan when derivative.

        Where m > last, psi(last + 1 - a) = psi(a - last) + pi cot(pi a) (A&S 6.3.7) puts -eta cot(pi a) into S1 and
        -(eta / gamma) cot(pi a) into S0; with -B_m and -c_m they are the pair's constants, which replace them.
        """
        s1_amp, s0_amp = self.tail_amps
        a, n = self.bath.pole_ratio, last + 1.0
        paired = self.m > last
        above, below = _digamma(n + a), _digamma(a - last if paired else n - a)
        s1 = s1_amp * (above - below) / (2.0 * a)
        s0 = math.nan if derivative else s0_amp * (_digamma(n) - 0.5 * (below + above))
        if paired:
            gamma, nu = self.bath.gamma, self.nu_m
            s1 -= self.pole_rest + self.m_rest
            s0 -= self.pole_rest / gamma + self.m_rest / nu - self.pair_amp / gamma / nu
        return s0, s1


class OverdampedBrownian:
    """J(w) = 2 eta w gamma / (w^2 + gamma^2)."""

    def __init__(self, params: BathParams):
        self.params = params

    def j(self, omega):
        omega = np.asarray(omega, dtype=float)
        if np.any(omega <= 0.0):
            raise ValueError("spectral density is defined for omega > 0")
        p = self.params
        out = 2.0 * p.eta * omega * p.gamma / (omega**2 + p.gamma**2)
        return float(out) if out.ndim == 0 else out


class TabulatedSpectralDensity:
    """Spectral density sampled on an increasing frequency grid.

    Linear interpolation inside the grid; evaluation outside raises
    ExtrapolationError rather than guessing a tail.
    """

    def __init__(self, omega, values):
        omega = np.asarray(omega, dtype=float)
        values = np.asarray(values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or omega.size < 2:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if np.any(np.diff(omega) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if omega[0] <= 0.0:
            raise ValueError("spectral density is defined for omega > 0")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")
        self.omega = omega
        self.values = values

    def j(self, omega):
        w = np.asarray(omega, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("spectral density is defined for omega > 0")
        if np.any(w < self.omega[0]) or np.any(w > self.omega[-1]):
            raise ExtrapolationError(
                "frequency outside tabulated range "
                f"[{self.omega[0]:g}, {self.omega[-1]:g}]"
            )
        out = np.interp(w, self.omega, self.values)
        return float(out) if out.ndim == 0 else out


class BrownianCorrelation:
    """Fast analytic L(t) for the overdamped Brownian bath, from its Dirichlet table.

    Re L is c_log S(x) plus the pole's term, with x = 2 pi t / beta, a = beta gamma / 2 pi, c_log = 2 eta gamma / pi
    and S(x) = sum_{n >= 1, n != m} w_n e^{-n x}, w_n = n / ((n - a)(n + a)); the m-th term and the pole are read
    from BathParams.dirichlet() as its pair, gamma (pole_rest e^{-gamma t} - m_rest e^{-nu_m t} + P E[gamma, nu_m]
    of e^{-lambda t}), or as eta gamma cot(beta gamma / 2) e^{-gamma t} where m = 0.  From x = _DIRECT_X, S is its
    live terms, n <= ceil(_EXP_DEAD / x) <= 225.  Below it, S is the 2 _WINDOW + 1 terms around c = max(m, 1),
    exactly, and the Euler-Maclaurin sums of its tails n > c + _WINDOW and 1 <= n < c - _WINDOW (_tails), each a
    bounded amount of work at any temperature.  Raises DephaserError where a reaches _A_MAX or c_log overflows,
    where Re L overflows, at t = 0 and where x underflows to 0 (t below about 4e-325 beta), and ValueError at a
    negative, infinite or nan t.
    """

    def __init__(self, bath: BathParams):
        self.bath = bath
        d = self.table = bath.dirichlet()
        a = self._a = bath.pole_ratio
        if not a < _A_MAX:
            raise DephaserError(f"beta gamma / 2 pi = {a!r} is past 2^52, where the Matsubara terms' n - a are not exact")
        self.c_log = _finite(d.amp / (2.0 * math.pi), "2 eta gamma / pi")
        self._c = c = max(d.m, 1)
        self._window = self._weights(max(1, c - _WINDOW), c + _WINDOW)
        self._direct = self._weights(1, math.ceil(_EXP_DEAD / _DIRECT_X))
        self._pair_rates = (min(bath.gamma, d.nu_m), max(bath.gamma, d.nu_m))

    def _weights(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, w_n) for n = lo, ..., hi, with w_m = 0 (the pair's term)."""
        n = np.arange(float(lo), hi + 1.0)
        with np.errstate(divide="ignore"):  # n = a = m exactly
            w = n / ((n - self._a) * (n + self._a))
        if lo <= self.table.m <= hi:
            w[self.table.m - lo] = 0.0
        return n, w

    def _tails(self, x: float) -> float:
        """sum w_n e^{-n x} over n > c + _WINDOW and 1 <= n < c - _WINDOW, by Euler-Maclaurin (A&S 23.1.30)."""
        s = -self._end(self._c + _WINDOW + 1.0, x, -0.5)
        last = self._c - _WINDOW - 1.0
        if last >= 1.0:
            s += self._end(last, x, 0.5) - self._end(1.0, x, -0.5)
        return s

    def _end(self, u: float, x: float, half: float) -> float:
        """F(u) + half f(u) + sum_k B_2k / (2k)! f^(2k-1)(u), k <= 5, for f(u) = w_u e^{-u x} = (g_a + g_-a) / 2, g_b =
        e^{-u x} / (u - b), and F its antiderivative, which is 0 at infinity: -e^{-u x} e^{z} E1(z), z = (u - b) x,
        for u > b, and e^{-u x} e^{-z} Ei(z), z = (b - u) x, for u < b.  The derivatives of g_b are e^{-u x} h_j,
        h_0 = 1 / (u - b) and h_j = ((-x)^j - j h_{j-1}) / (u - b), from (u - b) g_b = e^{-u x}."""
        a = self._a
        ra, rb = 1.0 / (u - a), 1.0 / (u + a)
        below, above = (a - u) * x, (u + a) * x
        if below >= _ASYMPTOTIC:  # the 1 / z terms of e^-z Ei(z) and e^z E1(z) cancel to 2u / ((a - u)(a + u) x)
            big = 2.0 * u / ((a - u) * (a + u) * x) + _asymptotic_rest(below, 1.0) - _asymptotic_rest(above, -1.0)
        else:
            big = (_ei_scaled(below) if u < a else -_e1_scaled(-below)) - _e1_scaled(above)
        # h_1, ..., h_9 of g_a and g_-a: the corrections take the odd j, whose recurrences the even j feed
        b1, b3, b5, b7, b9 = _BERNOULLI
        w = -x
        p = w
        ha, hb = (p - ra) * ra, (p - rb) * rb
        big += b1 * (ha + hb)
        p *= w
        ha, hb = (p - 2.0 * ha) * ra, (p - 2.0 * hb) * rb
        p *= w
        ha, hb = (p - 3.0 * ha) * ra, (p - 3.0 * hb) * rb
        big += b3 * (ha + hb)
        p *= w
        ha, hb = (p - 4.0 * ha) * ra, (p - 4.0 * hb) * rb
        p *= w
        ha, hb = (p - 5.0 * ha) * ra, (p - 5.0 * hb) * rb
        big += b5 * (ha + hb)
        p *= w
        ha, hb = (p - 6.0 * ha) * ra, (p - 6.0 * hb) * rb
        p *= w
        ha, hb = (p - 7.0 * ha) * ra, (p - 7.0 * hb) * rb
        big += b7 * (ha + hb)
        p *= w
        ha, hb = (p - 8.0 * ha) * ra, (p - 8.0 * hb) * rb
        p *= w
        ha, hb = (p - 9.0 * ha) * ra, (p - 9.0 * hb) * rb
        big += b9 * (ha + hb)
        return math.exp(-u * x) * (0.5 * big + half * u / ((u - a) * (u + a)))

    def __call__(self, t: float) -> complex:
        # fails for nan as well as for negative and infinite times
        if not 0.0 <= t < math.inf:
            raise ValueError(f"correlation function is evaluated for finite t >= 0, got {t!r}")
        if t == 0.0:
            raise DephaserError(_L0_DIVERGES)
        p, d = self.bath, self.table
        x = 2.0 * math.pi * t / p.beta
        if x == 0.0:
            raise DephaserError(
                f"time {t!r} is too small for the correlation function at beta = {p.beta!r}: "
                "x = 2 pi t / beta underflows to 0"
            )
        if x >= _DIRECT_X:
            n, w = self._direct
            live = math.ceil(_EXP_DEAD / x)
            n, w = n[:live], w[:live]
        else:
            n, w = self._window
        # -x is exact, so these are the bits of sum(w exp(-n x)), in one temporary
        e = n * -x
        np.exp(e, out=e)
        e *= w
        s = float(np.add.reduce(e))
        if x < _DIRECT_X:
            s += self._tails(x)
        re = self.c_log * s
        decay = math.exp(-p.gamma * t)
        if d.m:
            decay_m = math.exp(-d.nu_m * t)
            re += p.gamma * (d.pole_rest * decay - d.m_rest * decay_m + d.pair_amp * _exp_divided_difference(*self._pair_rates, t))
        else:
            re += 0.25 * d.amp * d.cot * decay
        # amp / 4 is eta gamma exactly: L's pole term is eta gamma (cot - i) e^{-gamma t}, B_gamma gamma in Re
        return complex(_finite(re, "Re L(t)"), -0.25 * d.amp * decay)


def _exp_divided_difference(lo: float, hi: float, t: float) -> float:
    """E = (e^{-lo t} - e^{-hi t}) / (lo - hi), -t e^{-lo t} at lo = hi (0 < lo <= hi, t > 0), to a few ulp: as
    e^{-lo t} t expm1(-x) / x, x = (hi - lo) t (McCurdy, Ng and Parlett, Math. Comp. 43 (1984) 501-528).
    """
    x = (hi - lo) * t
    return math.exp(-lo * t) * (t * math.expm1(-x) / x if x else -t)


def _h_divided_difference(lo: float, hi: float, t: float) -> float:
    """Divided difference of h(lambda t) / lambda over [lo, hi] (lo <= hi), h(y) = e^-y + y - 1, as (lo E -
    expm1(-lo t)) / (lo hi); its terms cancel as those of h(lo t) do, to about 2 ulp / (lo t) relative."""
    return (lo * _exp_divided_difference(lo, hi, t) - math.expm1(-lo * t)) / lo / hi


def _split_frequency(bath: BathParams) -> float:
    """Frequency above which the Brownian quadratures hand the oscillatory tail to the Fourier rule."""
    return max(10.0 * bath.gamma, 10.0 / bath.beta)


def _brownian_quadrature(bath: BathParams, t: float) -> complex:
    eta, gamma, beta = bath.eta, bath.gamma, bath.beta
    ws = _split_frequency(bath)

    def j_func(w):
        return 2.0 * eta * w * gamma / (w * w + gamma * gamma)

    def f_therm(w):
        return j_func(w) * coth(0.5 * beta * w) / math.pi

    re = integrate_finite(lambda w: f_therm(w) * math.cos(w * t), 0.0, ws, tag="Re L")
    re += integrate_fourier_tail(f_therm, ws, t, "cos", tag="Re L tail")
    im = integrate_finite(lambda w: j_func(w) * math.sin(w * t) / math.pi, 0.0, ws, tag="Im L")
    im += integrate_fourier_tail(lambda w: j_func(w) / math.pi, ws, t, "sin", tag="Im L tail")
    return complex(re, -im)


def _brownian_bath(sd, beta: float) -> BathParams | None:
    """The Brownian bath of sd at inverse temperature beta; None when sd is tabulated, TypeError for any other sd."""
    if isinstance(sd, TabulatedSpectralDensity):
        return None
    if not isinstance(sd, OverdampedBrownian):
        raise TypeError(f"unsupported spectral density type {type(sd).__name__}")
    p = sd.params
    return BathParams(p.eta, p.gamma, beta, p.matsubara_terms)


def _tabulated_grid(sd: TabulatedSpectralDensity, therm, t: float) -> complex:
    """L(t) by the trapezoid rule on the grid of sd; therm = J(w) coth(beta w / 2) there."""
    w = sd.omega
    jw = sd.values
    re = np.trapezoid(therm * np.cos(w * t), w) / math.pi
    im = 0.0 if t == 0.0 else np.trapezoid(jw * np.sin(w * t), w) / math.pi
    return complex(re, -im)


def correlation_function(sd, beta: float, t: float, route: str | None = None) -> complex:
    """Bath correlation function L(t) for t >= 0.

    For the Brownian form, route "analytic" (default) uses the closed-form
    Matsubara resummation and "quadrature" integrates the spectral
    representation directly; the two serve as independent checks of each
    other.  Re L diverges at t = 0, so both routes raise DephaserError
    there.  The quadrature route also raises it at 0 < t < 3e-4 / w_split,
    w_split = max(10 gamma, 10 / beta); above that it agrees with the
    analytic route to 1e-9 relative or raises IntegrationError up to
    t w_split of about 60.  Past that, where |L| is small against the
    integrator's absolute tolerance, the quadrature route's own error
    grows: against a 40-digit Lerch-phi sum it is 1.4e-3 relative at
    t = 26 on (eta 0.5, gamma 1.2, beta 5), where the analytic route is
    1.4e-16 off.
    Tabulated densities always integrate on their own grid, where L(0) is
    finite.
    """
    t = _check_time(t)
    beta = _check_beta(beta)
    bath = _brownian_bath(sd, beta)
    if bath is None:
        return _tabulated_grid(sd, sd.values * coth(0.5 * beta * sd.omega), t)
    if route in (None, "analytic"):
        return BrownianCorrelation(bath)(t)
    if route == "quadrature":
        if t == 0.0:
            raise DephaserError(_L0_DIVERGES)
        t_min = _FOURIER_MIN_TW / _split_frequency(bath)
        if t < t_min:
            raise DephaserError(
                f"time {t!r} is below the validated domain of the quadrature route of L, "
                f"t >= {_FOURIER_MIN_TW:g} / w_split = {t_min!r}"
            )
        return _brownian_quadrature(bath, t)
    raise ValueError(f"unknown route {route!r}")
