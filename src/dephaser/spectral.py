"""Bath spectral densities and finite-temperature correlation functions.

The environment is a harmonic bath with spectral density J(omega) at
inverse temperature beta (hbar = k_B = 1).  The bath correlation function

    L(t) = (1/pi) * int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is what every dephasing quantity downstream is built from.  For the
overdamped Brownian form

    J(w) = 2 eta w gamma / (w^2 + gamma^2)

L(t) has a pole-plus-Matsubara expansion (BrownianCorrelation).  Below
x = 2 pi t / beta = 0.2 the Matsubara terms next to the pole are summed
exactly and the rest by Euler-Maclaurin, on the one node set of the
small-x sums of L, Re g and Re gdot (_SmallXSums), at a bounded cost per
call at any temperature; from 0.2 on, L, g and gdot sum their live terms
n <= 226 of one table (DirichletTable.live).
Against a 40-digit Lerch-phi sum (tests/_oracle.py) Re L is within 1e-13
relative, or 8 ulp of the sum of its terms' magnitudes where it is tiny
against them, from beta 0.1 to 1e6.  Tabulated spectral densities are
integrated on their own grid.

Re L(t) diverges logarithmically as t -> 0 for the Brownian form (the
integrand falls off only as 1/w), so L(0) raises DephaserError there;
lim_{t->0+} Im L(t) = -eta*gamma.  A tabulated density has a finite grid,
so its L(0) is the finite trapezoid sum, with Im L(0) = 0 by oddness.

BathParams makes every decision about the Brownian bath: the thermal frequencies nu_n, the pair of the
pole gamma with the nearest one, and the one table of its Dirichlet coefficients, live terms and small-x sums
(DirichletTable), which the analytic L here and the series engines of dephasing read.  Every Matsubara coefficient is
an amplitude over d_n = (n - a)(n + a), a = beta gamma / 2 pi: L's weight n / d_n, B_n = s1 / d_n and c_n = B_n /
nu_n.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._expint_fits import _E1_FIT
from ._quadrature import integrate_finite, integrate_fourier_tail
from .errors import DephaserError, ExtrapolationError

# t w_split below which the Brownian routes that hand the integral above w_split to the Fourier rule raise
# DephaserError.  Measured on log sweeps: freq-quad's Re g is off a 40-digit series by up to 4e-6 relative at 1e-4
# and by 3e10-6e10 at 1e-6, and QAWF segfaults at subnormal t.  The quadrature route of L (9 baths against the
# analytic route) agrees to 1e-9 or raises IntegrationError from 1e-4 to about 60; from 6e-5 down it also returns
# values 1e-9 to 8e-9 off, from 1e-152 down values 90 % off or worse, and it segfaults from about 1e-305 down.
_FOURIER_MIN_TW = 3e-4

# Exponentials e^-x are dead (below about 3e-20) past this x: L's direct sum and the Matsubara tail stop there.
_EXP_DEAD = 45.0

_L0_DIVERGES = "Re L(t) of the Brownian bath diverges logarithmically as t -> 0; L(0) is undefined"


# The Matsubara terms that the small-x sums of L and of Re g (_matsubara_nodes) take exactly on either side of the one
# nearest the pole below x = _DIRECT_X, so that their Euler-Maclaurin tails start 32.5 or more from the pole; from
# _DIRECT_X, L, g and gdot sum their live terms n <= ceil(_EXP_DEAD / x) <= 225 of the one table of n = 1, ...,
# _LIVE_STOP, one more for the rounding of x (DirichletTable.live).  From _A_MAX on, the window's n - a are no longer
# exact.
_WINDOW = 32
_DIRECT_X = 0.2
_LIVE_STOP = math.ceil(_EXP_DEAD / _DIRECT_X) + 1
_A_MAX = 2.0**52
# B_2k / (2k)! for k = 1, ..., 5: the Euler-Maclaurin corrections of the tails, by the (2k - 1)-th derivative
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
_EULER_GAMMA = 0.57721566490153286061
# z from which e^z E1(z) is its asymptotic series
_ASYMPTOTIC = 50.0
# 1 / (k k!) for k = 18, ..., 1: the terms of E1's series, of which the 19th and later leave out less than
# 0.01 ulp of e^z E1(z) below z = 1
_SERIES = tuple(1 / (k * math.factorial(k)) for k in range(18, 0, -1))
# y below which h(y) = e^-y + y - 1 is its Taylor series: expm1(-y) + y cancels to 2 ulp / y, 4 ulp at 1/2
_H_SERIES_TOP = 0.5
# (-1)^k / k! for k = 2, ..., 15: h's Taylor terms, of which the 16th and later leave out less than 6e-18 of h below 1/2
_H_TAYLOR = tuple((-1) ** k / math.factorial(k) for k in range(2, 16))
_H_TAYLOR_COLUMN = np.array(_H_TAYLOR)[:, None]
# the powers 15, ..., 2 of h's Taylor terms, highest first, as a column
_TAYLOR_POWERS = np.arange(len(_H_TAYLOR) + 1, 1, -1)[:, None]
# The 16-point Gauss-Legendre rule on [-1, 1], which is symmetric: its positive nodes and their weights; then the rule
# on [0, 1], nodes in increasing order
_GAUSS_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GAUSS_WEIGHTS = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553388, 0.09515851168249279, 0.062253523938647894, 0.027152459411754096,
)
_UNIT_NODES = 0.5 + 0.5 * np.array([-v for v in reversed(_GAUSS_NODES)] + list(_GAUSS_NODES))
_UNIT_WEIGHTS = 0.5 * np.array(_GAUSS_WEIGHTS[::-1] + _GAUSS_WEIGHTS)
# (i, j, coefficient) of the Euler-Maclaurin corrections sum_k B_2k / (2k)! f^(2k-1), k <= 5: the term of b_i in
# r^(j) of _end_coefficients, by Leibniz; (-1)^i for i >= 2 is that of the i-th derivative of e^-y, and of h(y) =
# e^-y + y - 1
_EM_TERMS = tuple(
    (i, j - i, bk * math.comb(j, i) * ((-1) ** i if i >= 2 else 1))
    for j, bk in zip(range(1, 10, 2), _BERNOULLI)
    for i in range(j + 1)
)
# How far past the pole's scale the upper integral of _matsubara_nodes runs, where its integrand has fallen by e^-40
_REACH = 20.0

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
        # sum_{k >= 1} (-z)^k / (k k!) = -gamma - log z - E1(z) (A&S 5.1.11), by Horner's rule in its first 18 terms
        p = 0.0
        for c in _SERIES:
            p = p * -z + c
        return math.exp(z) * (-_EULER_GAMMA - math.log(z) + z * p)
    if z >= _ASYMPTOTIC:
        return 1.0 / z + _asymptotic_rest(z)
    # the polynomial of z's piece of _E1_FIT, at s: z = 2^(e-3) (k + 1/2 + s)
    m, e = math.frexp(z)
    m *= 8.0
    k = int(m)
    s = m - k - 0.5  # exact
    p = 0.0
    for c in _E1_FIT[4 * e + k - 8]:
        p = p * s + c
    return p


def _asymptotic_rest(z: float) -> float:
    """sum_{k >= 1} (-1)^k k! / z^(k+1), z >= _ASYMPTOTIC: the asymptotic series of e^z E1(z) less its first term 1 / z,
    to its first term below 1e-17 of the sum, which comes before the terms grow again at k = z (the smallest is 2e-19
    of the sum at z = 50)."""
    term, s, k = -1.0 / (z * z), 0.0, 1
    while abs(term) > 1e-17 * abs(s) and k < z:
        s += term
        k += 1
        term *= -k / z
    return s


def _normal(value: float, what: str) -> float:
    """value when it is a normal float; DephaserError when the arithmetic that gave it over- or underflowed."""
    if not sys.float_info.min <= abs(value) < math.inf:
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


# (l, the (B_2k / (2k)! (2j + p)(2j + p + 1) ... (2j + 2k + p - 1), j) of k = 1, ..., l, j = l - k) of C_l, l = 5, ...,
# 0, of _zeta_tail_coefficients, by the power p = 3 (S0's sum) and p = 2 (S1's), at import: each constant is the float
# its term of the sum rounds to before a^(2j)
_ZETA_TERMS = {
    p: tuple(
        (
            l,
            tuple(
                (bk * math.prod(range(2 * j + p, 2 * l + p - 1)), j)
                for bk, j in zip(_BERNOULLI, range(l - 1, -1, -1))
            ),
        )
        for l in range(5, -1, -1)
    )
    for p in (2, 3)
}


def _zeta_tail_coefficients(a2: float, p: int) -> tuple:
    """(C_5, ..., C_0) of _zeta_tail at a^2 = a2 and the power p: C_l = a^(2l) / (2l + p - 1) + sum_{k=1}^{l} B_2k /
    (2k)! (2j + p)(2j + p + 1) ... (2j + 2k + p - 1) a^(2j), j = l - k."""
    powers = [a2**j for j in range(6)]
    coefficients = []
    for l, terms in _ZETA_TERMS[p]:
        s = 0.0
        for b, j in terms:
            s += b * powers[j]
        coefficients.append(powers[l] / (2 * l + p - 1) + s)
    return tuple(coefficients)


def _zeta_tail(n: float, a2: float, coefficients: tuple, p: int) -> float:
    """sum_{k >= n} 1 / (k^(p - 2) (k^2 - a^2)) for n >= 30, a^2 = a2 <= 1/4 and p = 3 or 2, within 4 ulp, with no
    1 / a^2: its Euler-Maclaurin sum (A&S 23.1.30) in w = 1 / n^2, whose sixth correction, about 1.6 / n^12, is below
    3e-18 of it from n = 30 on.

    That sum is sum_j a^(2j) zeta(2j + p, n) (ratio a^2 / n^2 <= 1 / 3600) with each Hurwitz zeta's asymptotic series,
    gathered by powers of w: n^(1 - p) (sum_l C_l w^l + 1 / (2 n (1 - a^2 w))), the last term half the first term's
    sum over j, with the C_l of _zeta_tail_coefficients.
    """
    c5, c4, c3, c2, c1, c0 = coefficients
    w = 1.0 / (n * n)
    # written out, as _digamma's series is
    s = ((((c5 * w + c4) * w + c3) * w + c2) * w + c1) * w + c0 + 0.5 / (n * (1.0 - a2 * w))
    return w * s if p == 3 else s / n


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

    lambda_k runs over gamma and the nu_n: B_gamma = pole_b = eta cot(beta gamma / 2), and with a = beta gamma / 2 pi
    and d_n = (n - a)(n + a), B_n = s1 / d_n and c_n = B_n / nu_n = s0 / (n d_n), s1 = eta gamma beta / pi^2 and s0 =
    eta gamma beta^2 / (2 pi^3) (amplitudes, which the sums of every n past the live terms and below _DIRECT_X take);
    rate = sum_k B_k = 2 eta / (beta gamma).  So Re g(t) = rate t - sum_k (B_k / lambda_k)(1 - e^{-lambda_k t}) and Re
    L(t) = sum_k B_k lambda_k e^{-lambda_k t}, whose n-th term is c_log (n / d_n) e^{-n x}, c_log = 2 eta gamma / pi, x
    = 2 pi t / beta; Im g(t) = -pole_im h(gamma t), h(y) = e^-y + y - 1.  The pair: with m = round(a) >= 1, by the
    partial fractions of cot (A&S §4.3) B_gamma = P / (gamma - nu_m) + pole_rest and B_m = P / (nu_m - gamma) + m_rest,
    P = pair_amp = 2 eta / beta, pole_rest = eta (cot(pi eps) - 1 / (pi eps)), eps = a - m, m_rest = -P / (nu_m +
    gamma).  The engines sum both rests and P times a divided difference over [gamma, nu_m]: the parts of order 1 / (a -
    m) cancel in the algebra.  So d_m = inf, which leaves c_m, B_m and L's m-th weight 0 in explicit, live and
    tail_sums, and the bare pole_b and pole_c serve only a < 1/2 (m = 0) and strict truncation without the m-th term.

    Every c_n, B_n and weight n / d_n is formed from one row of d_n: explicit's of the K terms, and live's of the
    terms n = 1, ..., _LIVE_STOP that L, g and gdot sum from x = _DIRECT_X on, built at its first read, as the sums
    below _DIRECT_X are (small_x).  Away from the pair |d_n| >= 3/4, and |d_n| >= (1 + a) / 2 where m >= 1, so with
    s1 = 2 eta a / pi, |B_n| < 4 eta / pi and |c_n| < 1.2 eta / gamma at any temperature: the coefficients need no
    finite s0 or s1 (_coefficients), and raise DephaserError only where one of them overflows.  amplitudes raises it
    where s0 or s1 overflows, and the constructor where a does.
    """

    def __init__(self, bath: BathParams):
        self.bath = bath
        eta, gamma, beta = bath.eta, bath.gamma, bath.beta
        # a = beta gamma / 2 pi, which every d_n reads
        a = self.a = _finite(bath.pole_ratio, "beta gamma / 2 pi")
        # 4 eta gamma, of the pole's term of L
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

    @cached_property
    def amplitudes(self) -> tuple[float, float]:
        """(s0, s1) = (eta gamma beta^2 / (2 pi^3), eta gamma beta / pi^2), the amplitudes of c_n and B_n in the sums
        past the live terms (tail_sums) and below _DIRECT_X; DephaserError where either overflows."""
        eta, gamma, beta = self.bath.eta, self.bath.gamma, self.bath.beta
        s1 = _finite(eta * gamma * beta / math.pi**2, "eta gamma beta / pi^2")
        return _finite(eta * gamma * _pow(beta, 2) / (2.0 * math.pi**3), "eta gamma beta^2 / (2 pi^3)"), s1

    def _denominators(self, n: np.ndarray) -> np.ndarray:
        """d_n = (n - a)(n + a) of the terms n = 1, ..., n.size, with d_m = inf for the pair's term."""
        d = (n - self.a) * (n + self.a)
        if 1 <= self.m <= d.size:
            d[self.m - 1] = math.inf
        return d

    def _coefficients(self, n: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nu_n, c_n, B_n) = (nu_n, B_n / nu_n, s1 / d_n) of the terms n with denominators d.

        s1 takes eta's power of 2 last (frexp), so that B_n has the roundings of s1 / d_n wherever eta gamma is normal
        and is finite where s1 is not (eta 1e307, gamma 1, beta 100).  DephaserError where a coefficient overflows.
        """
        bath = self.bath
        mantissa, exponent = math.frexp(bath.eta)
        nu = bath.matsubara_frequency(n)
        try:
            with np.errstate(over="raise"):
                b = np.ldexp(mantissa * bath.gamma * bath.beta / math.pi**2 / d, exponent)
                return nu, b / nu, b
        except FloatingPointError:
            raise DephaserError("a coefficient c_n or B_n overflows: the bath is outside this engine's range") from None

    @cached_property
    def explicit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nu_n, c_n, B_n) for n = 1, ..., K, with c_m = B_m = 0."""
        n = np.arange(1.0, self.bath.matsubara_terms + 1.0)
        return self._coefficients(n, self._denominators(n))

    @cached_property
    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d_n) of the live terms n = 1, ..., _LIVE_STOP from x = _DIRECT_X on, at the first read: L's weights are
        n / d_n (BrownianCorrelation), and the series' c_n and B_n those of live_terms."""
        n = np.arange(1.0, _LIVE_STOP + 1.0)
        return n, self._denominators(n)

    @cached_property
    def live_terms(self) -> np.ndarray:
        """The rows -nu_n, c_n and B_n of the live terms, at the first read."""
        nu, c, b = self._coefficients(*self.live)
        return np.stack((-nu, c, b))

    @cached_property
    def g1(self) -> memoryview:
        """G1[j] = S1(j), the sum of B_n over n > j but m, j = 0, ..., _LIVE_STOP, at the first read: a compensated
        running sum (_running_sums), down from S1(_LIVE_STOP) where there is no pair (_unpaired_tail), and with the pair
        up from its closed form G1[0] = rate - pole_rest - m_rest (the B_k sum to the rate), to which Re gdot cancels
        its terms late: on a cold bath S1 of the digamma sums left Re g and Re gdot 30 times further off the oracle.  It
        builds no S0."""
        b = self.live_terms[2]
        if self.m:
            return _held(_running_sums(self.rate - (self.pole_rest + self.m_rest), (-b).tolist()))
        return _held(_running_sums(self._unpaired_tail(2), b[::-1].tolist())[::-1])

    @cached_property
    def g0(self) -> memoryview:
        """G0[j] = S0(j), the sum of c_n over n > j but m, at the first read: the running sum down from S0(_LIVE_STOP)
        of tail_sums, as G1's."""
        return _held(_running_sums(self.tail_sums()[0], self.live_terms[1, ::-1].tolist())[::-1])

    @cached_property
    def small_x(self) -> _SmallXSums:
        """The Matsubara sums of g, gdot and L below x = _DIRECT_X, built at the first read."""
        return _SmallXSums(self.a, self.m)

    def tail_sums(self) -> tuple[float, float]:
        """(S0, S1), S0 = sum c_n and S1 = sum B_n over n > _LIVE_STOP but n = m, by digamma.

        Where m > _LIVE_STOP, psi(n - a) = psi(a - _LIVE_STOP) + pi cot(pi a) (A&S 6.3.7), n = _LIVE_STOP + 1, puts
        -eta cot(pi a) into S1 and -(eta / gamma) cot(pi a) into S0; with -B_m and -c_m they are the pair's constants,
        which replace them.  Where m = 0 (a < 1/2) no digamma runs: S0 and S1 are s0 and s1 times _zeta_tail's sum_{k
        >= n} 1 / (k (k^2 - a^2)) and sum_{k >= n} 1 / (k^2 - a^2), as their digamma differences psi(n) - (psi(n - a)
        + psi(n + a)) / 2 over a^2 and (psi(n + a) - psi(n - a)) / (2a) cancel as a -> 0.
        """
        if not self.m:
            return self._unpaired_tail(3), self._unpaired_tail(2)
        s0, s1 = self.amplitudes
        a, n = self.a, _LIVE_STOP + 1
        paired = self.m > _LIVE_STOP
        above, below = _digamma(n + a), _digamma(a - _LIVE_STOP if paired else n - a)
        s0 = s0 / a**2 * (_digamma(float(n)) - 0.5 * (below + above))
        s1 = s1 * (above - below) / (2.0 * a)
        if paired:
            gamma, nu = self.bath.gamma, self.nu_m
            s1 -= self.pole_rest + self.m_rest
            s0 -= self.pole_rest / gamma + self.m_rest / nu - self.pair_amp / gamma / nu
        return s0, s1

    def _unpaired_tail(self, p: int) -> float:
        """Where m = 0, tail_sums' S0 (p = 3) or S1 (p = 2), which G1 takes alone."""
        a2 = self.a**2
        return self.amplitudes[3 - p] * _zeta_tail(_LIVE_STOP + 1, a2, _zeta_tail_coefficients(a2, p), p)


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


def _check_pole_ratio(a: float) -> None:
    """DephaserError where a = beta gamma / 2 pi reaches _A_MAX, past which the window's n - a are not exact."""
    if not a < _A_MAX:
        raise DephaserError(f"beta gamma / 2 pi = {a!r} is past 2^52, where the Matsubara terms' n - a are not exact")


def _panels(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on each of the equal panels of [lo, hi], at most 2 wide, in
    increasing order."""
    nodes, weights = _unit_panels(max(1, math.ceil((hi - lo) / 2.0)))
    return lo + (hi - lo) * nodes, (hi - lo) * weights


@cache
def _unit_panels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on each of k equal panels of [0, 1]."""
    nodes = (np.arange(k)[:, None] + _UNIT_NODES).ravel() / k
    return nodes, np.tile(_UNIT_WEIGHTS / k, k)


def _q_derivatives(u: float, a: float) -> list:
    """[q(u), q'(u), ..., q^(9)(u)], q(v) = 1 / (v (v - a)(v + a)), for five corrections at an end u, from p q = 1."""
    p = u * (u - a) * (u + a)
    # p = v^3 - a^2 v: sum_i C(j, i) p^(i) q^(j-i) = 0 for j >= 1, with p' = 3 v^2 - a^2, p'' = 6 v and p''' = 6
    p1, p2 = 3.0 * u * u - a * a, 3.0 * u
    r = [1.0 / p]
    for j in range(1, 2 * len(_BERNOULLI)):
        s = j * p1 * r[j - 1]
        if j >= 2:
            s += j * (j - 1) * p2 * r[j - 2]
        if j >= 3:
            s += j * (j - 1) * (j - 2) * r[j - 3]
        r.append(-s / p)
    return r


def _end_coefficients(u: float, sign: float, r: list, power: int) -> tuple:
    """(u, b0, b1, b) of an end u of an Euler-Maclaurin sum of f(v) = phi(v x) v^power q(v), from q's derivatives r =
    _q_derivatives(u, a): phi = h (Re g, power 0) or phi(y) = e^-y (L, power 2), h(y) = e^-y + y - 1.

    Its term f(u) / 2 + sign sum_k B_2k / (2k)! f^(2k-1)(u), k <= 5, at any x, is h(y) b0 + x h'(y) b1 + x^2 e^-y
    sum_i b[i] x^i for h, y = u x, h' = 1 - e^-y, and e^-y (b0 - x b1 + x^2 sum_i b[i] x^i) for e^-y: by Leibniz,
    f^(j) = sum_i C(j, i) x^i phi^(i)(y) (v^power q)^(j-i)(u), with phi^(i) = (-1)^i e^-y for i >= 2 (_EM_TERMS).
    """
    if power:  # (v^2 q)^(j) = v^2 q^(j) + 2 j v q^(j-1) + j (j - 1) q^(j-2)
        shifted = zip(r, [0.0, *r], [0.0, 0.0, *r])
        r = [u * u * q + 2.0 * j * u * q1 + j * (j - 1) * q2 for j, (q, q1, q2) in enumerate(shifted)]
    b = [0.0] * len(r)
    for i, j, coef in _EM_TERMS:
        b[i] += coef * r[j]
    return u, sign * b[0] + 0.5 * r[0], sign * b[1], tuple(sign * v for v in b[2:])


# B_2k / (2k)! (2k - 1)! and (2k)! for k = 1, ..., 5 (index k; 0 unused), at import: the constants of
# _zero_end_coefficients, each the float or integer its term of the sum took before a's powers
_ZERO_END_B = (0.0, *(bk * math.factorial(2 * k - 1) for k, bk in enumerate(_BERNOULLI, 1)))
_ZERO_END_F = tuple(math.factorial(2 * k) for k in range(len(_BERNOULLI) + 1))


def _zero_end_coefficients(a: float) -> tuple:
    """(d_1, ..., d_5) of the Euler-Maclaurin corrections -sum_k B_2k / (2k)! f^(2k-1)(0), k <= 5, of f(u) = h(u x)
    q(u), q(u) = 1 / (u (u - a)(u + a)), at its lower end u = 0: sum_p d_p x^(2p).

    f(u) = -(1 / a^2) sum_{j >= 2} x^j u^(j-1) / j! sum_i (u / a)^(2i) near 0, so f^(2k-1)(0) = -((2k-1)! / a^2)
    sum_{p <= k} x^(2p) / ((2p)! a^(2k-2p)): terms of one sign.  L's f, e^-ux u^2 q(u), is the second derivative of
    this f in x, so its corrections are sum_p 2p (2p - 1) d_p x^(2p-2), and Re gdot's, the first, sum_p 2p d_p
    x^(2p-1).
    """
    return tuple(
        sum(_ZERO_END_B[k] / a ** (2 * k - 2 * p) for k in range(p, len(_ZERO_END_B))) / (_ZERO_END_F[p] * a * a)
        for p in range(1, len(_ZERO_END_B))
    )


# One rule for every small-x sum: panels at most 2 wide and five Euler-Maclaurin corrections at each end.  At 560
# times from t = 1e-9 to x = 0.2 on 100 baths (a from 1.6e-4 to 3000) it leaves Re g within 7.2e-14 of the oracle and
# Re gdot less dephasing._dead_weight within 1.6e-13.  L's e^-ux bends faster: with panels of 3 it was 1619 ulp off at
# (1, 0.5, 2e5), t = 1000, where panels of 2 leave it 0.7 ulp off, and the fifth correction's x^9 e^-y term at its ends
# and x^8 one at u = 0 reach 7 ulp of Re L.
def _matsubara_nodes(a: float, m: int) -> tuple:
    """(u, w, ends, zero_end, top) of the small-x sums of _SmallXSums: sum_{n >= 1, n != m} phi(n x) n^power q(n), q(u)
    = 1 / (u (u - a)(u + a)), for 0 < x < _DIRECT_X.

    Re g's Matsubara part over s0 = eta gamma beta^2 / (2 pi^3) is that of h(y) = e^-y + y - 1 and power 0; L's S is
    that of e^-y and power 2, its second derivative in x.  The 2 _WINDOW + 1 terms around c = max(m, 1) are exact.
    The tails n >= top = c + _WINDOW + 1 and 1 <= n <= last = c - _WINDOW - 1 are their Euler-Maclaurin sums (A&S
    23.1.30): the integral of f(u) = phi(u x) u^power q(u), half of f at each end and five corrections, which the
    reader forms for its power (_end_coefficients) from the (u, sign, q's derivatives) of top and last in ends.  f has
    no pole at u = 0, where h(u x) q(u) ~ -u x^2 / (2 a^2), so the lower tail is summed from n = 0, f(0) = 0, with the
    corrections there of _zero_end_coefficients (() with no lower tail).  The upper integral is that of phi(u x)
    u^(power-3), which the reader takes in closed form, plus that of phi(u x)(q(u) - u^-3) u^power, which falls as u^-3
    or faster past top and is a Gauss-Legendre sum (_panels) in tau = log((u - a) / (top - a)) up to log(a / (top - a))
    + _REACH.  The lower one is a sum in s = log((1 + u) / (a - u)), which resolves phi's bend at u x = 1 and the
    pole's scale a - u alike (in log(a - u) alone h's bend near u = 0 was missed by 1e-9 of Re g at t = 10 on beta
    933).  Their nodes join the window's n as the points u, in increasing order, with the weights w of power 0, so the
    sum is sum_i w_i u_i^power phi(u_i x) plus the end terms.  DephaserError where a reaches _A_MAX.
    """
    _check_pole_ratio(a)
    c = max(m, 1)
    n = np.arange(float(max(1, c - _WINDOW)), c + _WINDOW + 1.0)
    below = n - a
    if m:
        below[m - int(n[0])] = math.inf  # the pair's term is 0, also at n = a = m exactly
    q = 1.0 / (n * below * (n + a))
    top = c + _WINDOW + 1.0
    gap = top - a
    tau, w = _panels(0.0, max(0.0, math.log(a / gap)) + _REACH)
    upper = a + gap * np.exp(tau)
    # dtau = du / (u - a), so the integrand of phi(u x) is (q(u) - u^-3)(u - a) = a^2 / (u^3 (u + a))
    nodes, weights = [n, upper], [q, w * (a * a / (upper**3 * (upper + a)))]
    ends = [(top, -1.0, _q_derivatives(top, a))]
    last = c - _WINDOW - 1.0
    zero_end = ()
    if last >= 1.0:
        s, w = _panels(-math.log(a), math.log((1.0 + last) / (a - last)))
        e = np.exp(s)
        lower = (a * e - 1.0) / (1.0 + e)
        nodes.insert(0, lower)
        # du / ds = (1 + u)(a - u) / (a + 1), so the integrand of phi(u x) is -(1 + u) / ((a + 1) u (u + a))
        weights.insert(0, w * (1.0 + lower) / ((-1.0 - a) * lower * (lower + a)))
        ends.append((last, 1.0, _q_derivatives(last, a)))
        zero_end = _zero_end_coefficients(a)
    return np.concatenate(nodes), np.concatenate(weights), ends, zero_end, top


class _SmallXSums:
    """The Matsubara sums of one bath below x = 2 pi t / beta = _DIRECT_X, on the one node set of _matsubara_nodes:
    S(x) = sum_{n >= 1, n != m} h(n x) q(n), q(u) = 1 / (u (u - a)(u + a)), h(y) = e^-y + y - 1, Re g's Matsubara part
    over s0 = eta gamma beta^2 / (2 pi^3); S'(x) = sum_{n >= 1, n != m} (1 - e^-nx) n q(n), Re gdot's over s1 = eta
    gamma beta / pi^2; and S_L(x) = sum_{n >= 1, n != m} e^-nx n^2 q(n), Re L's over c_log = 2 eta gamma / pi.

    S is the weighted sum of h(u_i x) on the points and weights of _matsubara_nodes with their Euler-Maclaurin end
    terms.  The upper tail's integral of h(u x) u^-3 is x^2 M(top x), M(z) = int_z^inf h(v) v^-3 dv = h(z) / (2 z^2) +
    (1 - e^-z) / (2 z) + E1(z) / 2 (by parts; every term positive).  S' is its x-derivative term by term: w_i u_i (1 -
    e^-u_i x), whose factor 1 - e^-y = -expm1(-y) keeps its digits at every y, the end terms' and the zero end's
    derivatives, and the upper tail's int_top^inf (1 - e^-ux) u^-2 du = (1 - e^-z) / top + x E1(z), z = top x (by
    parts).  A call takes the one or both of them that its row step asks for, from one expm1(-u_i x) over the points,
    whose end terms and top share their exponentials: the row of a g miss takes both, and S' reads every point's e =
    expm1(-y) where S reads e + y from its first group past the Taylor series.

    h cancels at small y, so S's weighted sum is taken by groups, the points between consecutive powers of 4: the k
    groups whose largest y is below _H_SERIES_TOP are h's Taylor series (_H_TAYLOR) of their moments sum_i w_i u_i^j,
    each scaled by its group's largest u, kept from the first call that asks for S.  A call sums them as one polynomial
    in z = x top, top the k-th group's largest u, by Horner's rule on Python floats: its coefficients, built at the
    first call with k such groups (_taylor), rescale each group's moments by its ratio to top, at most 1.  From the
    first other group on, each term is w_i (expm1(-y_i) + y_i), whose y_i is at least 1/8 there, so that it cancels
    to 16 ulp at most.  Re g and Re gdot less dephasing._dead_weight are within 7.2e-14 and 1.6e-13 of
    tests/_oracle.reference on 14 baths (a from 1.6e-4 to 3000) from t = 1e-9 to x = 0.2, with no K or live term read.
    S_L (correlation) is sum_i u_i^2 w_i e^-u_i x, the end terms of power 2, the zero end's second x-derivative and
    E1(top x) for the upper tail's 1 / u part, on weights and ends built at its first call.  DephaserError where a
    reaches _A_MAX, past which the window's n - a are inexact.
    """

    def __init__(self, a: float, m: int):
        # the points, their weights of power 0, each end's (u, sign, q's derivatives), the zero end and top
        self._nodes, self._weights, self._q_ends, self._zero_end, self._top = _matsubara_nodes(a, m)
        # each sum's own tables, built at its first call: S's and S''s end terms (_power_0), S's groups and moments
        # (_group) and the coefficients of each count of Taylor groups (_taylor), S_L's
        self._ends = self._moments = self._correlation = None

    def _power_0(self) -> None:
        """S's and S''s end terms, and S''s weights u_i w_i and zero end's x-derivative over x."""
        self._slopes = self._nodes * self._weights
        self._zero_slope = tuple(2 * p * d for p, d in enumerate(self._zero_end, 1))
        # each end's u, b0, b1 and b_i of S, and u b0 + b1 and u b1 of S'; the top's b0 and b1 in S take the terms of
        # x^2 M(top x) in h(y) and in h'(y)
        ends = (_end_coefficients(*end, 0) for end in self._q_ends)
        ends = self._ends = [(v, b0, b1, b, v * b0 + b1, v * b1) for v, b0, b1, b in ends]
        top, b0, b1, b, d0, d1 = ends[0]
        ends[0] = (top, b0 + 0.5 / (top * top), b1 + 0.5 / top, b, d0, d1)

    def _group(self) -> None:
        """The groups, the points of each power of 4, at most a factor 4 apart: their largest u and first points, and
        their moments; and a slot for the coefficients of each count of groups."""
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
        for k in range(1, len(powers)):  # row by row: a multiply.accumulate down the short axis took twice as long
            powers[k] *= powers[k - 1]
        self._moments = _H_TAYLOR_COLUMN * np.add.reduceat(powers, starts[:-1], axis=1)
        # the coefficients of the first k groups, each built at its first use (_taylor): every count's at once, from a
        # table of all pairs of groups, cost a fresh engine's first g about 25 us on beta 933 (shared 2-core Xeon), and
        # one count about 4 us
        self._taylor_rows = [None] * len(self._top_list)

    def _taylor(self, k: int) -> list:
        """The coefficients of the first k groups' Taylor series as one polynomial in z = x top, top the k-th group's
        largest u, highest power first, as Horner's rule reads them: the sum over the groups j < k of (top_j / top)^i
        times their moments of r^i, i = 15, ..., 2.  Each ratio is at most 1, so no coefficient overflows at any a below
        _A_MAX, where powers of top itself would."""
        ratio = self._tops[:k] / self._tops[k - 1]
        return np.einsum("ij,ij->i", ratio ** _TAYLOR_POWERS, self._moments[::-1, :k]).tolist()

    def __call__(self, x: float, g: bool, gdot: bool) -> tuple:
        """(S(x) where g, S'(x) where gdot), each None where not asked for."""
        if self._ends is None:
            self._power_0()
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
        if k:  # the k groups' Taylor series, one polynomial in z = x times their largest u, by Horner's rule
            coefficients = self._taylor_rows[k - 1]
            if coefficients is None:
                coefficients = self._taylor_rows[k - 1] = self._taylor(k)
            z = self._top_list[k - 1] * x
            for c in coefficients:
                s = s * z + c
            s *= z * z
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

    def correlation(self, x: float) -> float:
        """S_L(x), L's Matsubara sum over c_log."""
        if self._correlation is None:
            ends = [_end_coefficients(*end, 2) for end in self._q_ends]
            zero_end = tuple(2 * p * (2 * p - 1) * d for p, d in enumerate(self._zero_end, 1))
            self._correlation = self._nodes**2 * self._weights, ends, zero_end
        w, ends, zero_end = self._correlation
        e = self._nodes * -x
        np.exp(e, out=e)
        s = float(np.dot(w, e))
        for v, b0, b1, b in ends:
            p = 0.0
            for bi in reversed(b):
                p = p * x + bi
            s += math.exp(-v * x) * (b0 - x * b1 + x * x * p)
        p = 0.0
        for d in reversed(zero_end):
            p = p * x * x + d
        # the upper tail's 1 / u part: int_top^inf e^-ux / u du = E1(top x)
        y = self._top * x
        return s + p + math.exp(-y) * _e1_scaled(y)


class BrownianCorrelation:
    """Fast analytic L(t) for the overdamped Brownian bath, from its Dirichlet table.

    Re L is c_log S(x) plus the pole's term, with x = 2 pi t / beta, a = beta gamma / 2 pi, c_log = 2 eta gamma / pi
    and S(x) = sum_{n >= 1, n != m} w_n e^{-n x}, w_n = n / d_n = n^2 q(n), d_n = (n - a)(n + a); the m-th term and
    the pole are read from BathParams.dirichlet() as its pair, gamma (pole_rest e^{-gamma t} - m_rest e^{-nu_m t} + P
    E[gamma, nu_m] of e^{-lambda t}), or as eta gamma cot(beta gamma / 2) e^{-gamma t} where m = 0.  From x =
    _DIRECT_X, S is its live terms, n <= ceil(_EXP_DEAD / x) <= 225, on the d_n of the table's live terms, whose B_n
    and c_n the series engine reads (DirichletTable.live); L builds neither.  Below it, S is its table's
    small_x.correlation, on the node set that Re g and Re gdot read, built at the first such call and kept: a bounded
    amount of work at any temperature.  Raises DephaserError where a reaches _A_MAX or c_log overflows, where Re L
    overflows, at t = 0 and where x underflows to 0 (t below about 4e-325 beta), and ValueError at a negative,
    infinite or nan t.
    """

    def __init__(self, bath: BathParams):
        self.bath = bath
        table = self.table = bath.dirichlet()
        _check_pole_ratio(table.a)
        self.c_log = _finite(table.amp / (2.0 * math.pi), "2 eta gamma / pi")
        # n and the weights n / d_n of the live terms, the pair's 0
        n, d = table.live
        self._weights = n, n / d
        self._pair_rates = (min(bath.gamma, table.nu_m), max(bath.gamma, table.nu_m))

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
            n, w = self._weights
            live = math.ceil(_EXP_DEAD / x)
            # -x is exact, so these are the bits of sum(w exp(-n x)), in one temporary
            e = n[:live] * -x
            np.exp(e, out=e)
            e *= w[:live]
            s = float(np.add.reduce(e))
        else:
            s = d.small_x.correlation(x)
        re = self.c_log * s
        decay = math.exp(-p.gamma * t)
        if d.m:
            decay_m = math.exp(-d.nu_m * t)
            re += p.gamma * (d.pole_rest * decay - d.m_rest * decay_m + d.pair_amp * _exp_divided_difference(*self._pair_rates, t))
        else:
            re += 0.25 * d.amp * d.cot * decay
        # amp / 4 is eta gamma exactly: L's pole term is eta gamma (cot - i) e^{-gamma t}, B_gamma gamma in Re
        return complex(_finite(re, "Re L(t)"), -0.25 * d.amp * decay)


def _h(y):
    """h(y) = e^-y + y - 1 at y >= 0, a Python float or an array of any shape, within 2 ulp: its Taylor series below
    _H_SERIES_TOP, where expm1(-y) + y would cancel, and expm1(-y) + y from there.

    An entry gets the same bits alone as in an array: Horner's rule runs on Python floats or elementwise on the array
    with the same roundings, and the expm1 of either is numpy's."""
    if type(y) is float:
        if y < _H_SERIES_TOP:
            p = 0.0
            for c in reversed(_H_TAYLOR):
                p = p * y + c
            return p * y * y
        return float(np.expm1(-y)) + y
    out = np.expm1(-y)
    out += y
    small = y < _H_SERIES_TOP
    if small.any():
        s = y[small]
        p = np.zeros_like(s)
        for c in reversed(_H_TAYLOR):
            p *= s
            p += c
        out[small] = p * s * s
    return out


def _exp_divided_difference(lo: float, hi: float, t: float) -> float:
    """E = (e^{-lo t} - e^{-hi t}) / (lo - hi), -t e^{-lo t} at lo = hi (0 < lo <= hi, t > 0), to a few ulp: as
    e^{-lo t} t expm1(-x) / x, x = (hi - lo) t (McCurdy, Ng and Parlett, Math. Comp. 43 (1984) 501-528).
    """
    x = (hi - lo) * t
    return math.exp(-lo * t) * (t * math.expm1(-x) / x if x else -t)


def _h_divided_difference(lo: float, hi: float, t: float, dd: float | None = None, em: float | None = None) -> float:
    """Divided difference of h(lambda t) / lambda over [lo, hi] (lo <= hi), h(y) = e^-y + y - 1, to a few ulp.

    Below hi t = _H_SERIES_TOP it is its series t^2 sum_{j >= 0} (-1)^j e_j / (j + 2)!, with e_j = sum_{i <= j} (lo t)^i
    (hi t)^(j - i) the complete homogeneous polynomial, the divided difference of lambda^(j + 1) (McCurdy, Ng and
    Parlett); from there (lo E - expm1(-lo t)) / (lo hi), whose terms cancel by at most a factor 5.  A caller that
    has E = _exp_divided_difference(lo, hi, t) or expm1(-lo t) passes them as dd and em, which then run once.
    """
    b = hi * t
    if b < _H_SERIES_TOP:
        a = lo * t
        e = power = 1.0
        s = _H_TAYLOR[0]
        for c in _H_TAYLOR[1:]:
            power *= a
            e = b * e + power
            s += c * e
        return t * t * s
    if dd is None:
        dd = _exp_divided_difference(lo, hi, t)
    return (lo * dd - (math.expm1(-lo * t) if em is None else em)) / lo / hi


def _split_frequency(bath: BathParams) -> float:
    """Frequency above which the Brownian quadratures hand the oscillatory tail to the Fourier rule."""
    return max(10.0 * bath.gamma, 10.0 / bath.beta)


def _brownian_quadrature(bath: BathParams, t: float) -> complex:
    """L(t) by quadrature at unit coupling, times eta last: L is linear in eta, and a small eta would pass _quadrature's
    absolute test on a failed integral (as FrequencyQuadrature's _eta_times)."""
    gamma, beta = bath.gamma, bath.beta
    ws = _split_frequency(bath)

    def j_func(w):
        return 2.0 * w * gamma / (w * w + gamma * gamma)

    def f_therm(w):
        return j_func(w) * coth(0.5 * beta * w) / math.pi

    re = integrate_finite(lambda w: f_therm(w) * math.cos(w * t), 0.0, ws, tag="Re L")
    re += integrate_fourier_tail(f_therm, ws, t, "cos", tag="Re L tail")
    im = integrate_finite(lambda w: j_func(w) * math.sin(w * t) / math.pi, 0.0, ws, tag="Im L")
    im += integrate_fourier_tail(lambda w: j_func(w) / math.pi, ws, t, "sin", tag="Im L tail")
    return complex(bath.eta * re, bath.eta * -im)


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
