"""Bath spectral densities and finite-temperature correlation functions.

The environment is a harmonic bath with spectral density J(omega) at
inverse temperature beta (hbar = k_B = 1).  The bath correlation function

    L(t) = (1/pi) * int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is what every dephasing quantity downstream is built from.  For the
overdamped Brownian form

    J(w) = 2 eta w gamma / (w^2 + gamma^2)

L(t) has a pole-plus-Matsubara expansion (BrownianCorrelation): the
Matsubara terms next to the pole are summed exactly and the rest by
Euler-Maclaurin, on the nodes that Re g's sum shares (_matsubara_nodes), at
a bounded cost per call at any temperature.  Against a
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
import sys
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

# n > K terms (of each of nu_n, c_n, B_n) that a DirichletTable keeps between calls
_TAIL_KEPT = 1 << 18

# Exponentials e^-x are dead (below about 3e-20) past this x: L's direct sum and the Matsubara tail stop there.
_EXP_DEAD = 45.0

_L0_DIVERGES = "Re L(t) of the Brownian bath diverges logarithmically as t -> 0; L(0) is undefined"


# The Matsubara terms that the small-x sums of L and of Re g (_matsubara_nodes) take exactly on either side of the one
# nearest the pole below x = _DIRECT_X, so that their Euler-Maclaurin tails start 32.5 or more from the pole; from
# _DIRECT_X, L sums its at most 225 live terms.  From _A_MAX on, the window's n - a are no longer exact.
_WINDOW = 32
_DIRECT_X = 0.2
_A_MAX = 2.0**52
# B_2k / (2k)! for k = 1, ..., 5: the Euler-Maclaurin corrections of the tails, by the (2k - 1)-th derivative
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
_EULER_GAMMA = 0.57721566490153286061
# z from which e^z E1(z) is its asymptotic series
_ASYMPTOTIC = 50.0
# 1 / (k k!) for k = 18, ..., 1: the terms of E1's series, of which the 19th and later leave out less than
# 0.01 ulp of e^z E1(z) below z = 1
_SERIES = tuple(1 / (k * math.factorial(k)) for k in range(18, 0, -1))
# n from which _cubic_tail's Euler-Maclaurin series serves, whose sixth correction, about 1.6 / n^12, is below 3e-18
# of it; DirichletTable keeps the sums from n < _CUBIC_X
_CUBIC_X = 30
# y below which h(y) = e^-y + y - 1 is its Taylor series: expm1(-y) + y cancels to 2 ulp / y, 4 ulp at 1/2
_H_SERIES_TOP = 0.5
# (-1)^k / k! for k = 2, ..., 15: h's Taylor terms, of which the 16th and later leave out less than 6e-18 of h below 1/2
_H_TAYLOR = tuple((-1) ** k / math.factorial(k) for k in range(2, 16))
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
# e^-y + y - 1.  The first k (k + 1) are those of the first k corrections.
_EM_TERMS = tuple(
    (i, j - i, bk * math.comb(j, i) * ((-1) ** i if i >= 2 else 1))
    for j, bk in zip(range(1, 10, 2), _BERNOULLI)
    for i in range(j + 1)
)
# (power, panel width, Euler-Maclaurin corrections) of _matsubara_nodes for Re g's sum and for L's.  At 312 times
# from t = 1e-9 to x = 0.2 on 74 baths, panels of 2, 3 and 4 left Re g within 7.1e-14 of the oracle and panels of 6
# left 3.9e-11.  L's e^-ux bends faster: with panels of 3 it was 1619 ulp off at (1, 0.5, 2e5), t = 1000, where
# panels of 2 leave it 0.7 ulp off.  At 32.5 or more from the pole the fifth correction, B_10 / 10! f^(9), is below
# 2e-16 of g's f; L's keeps it, whose x^9 e^-y term at its ends and x^8 one at u = 0 reach 7 ulp of Re L.
_G_RULE = (0, 3.0, 4)
_L_RULE = (2, 2.0, 5)
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


# (l, the (B_2k / (2k)! (2j + 3)(2j + 4) ... (2j + 2k + 1), j) of k = 1, ..., l, j = l - k) of C_l, l = 5, ..., 0, of
# _cubic_tail_coefficients, at import: each constant is the float its term of the sum rounds to before a^(2j)
_CUBIC_TERMS = tuple(
    (l, tuple((bk * math.prod(range(2 * j + 3, 2 * l + 2)), j) for bk, j in zip(_BERNOULLI, range(l - 1, -1, -1))))
    for l in range(5, -1, -1)
)


def _cubic_tail_coefficients(a2: float) -> tuple:
    """(C_5, ..., C_0) of _cubic_tail at a^2 = a2: C_l = a^(2l) / (2l + 2) + sum_{k=1}^{l} B_2k / (2k)! (2j + 3)(2j
    + 4) ... (2j + 2k + 1) a^(2j), j = l - k."""
    powers = [a2**j for j in range(6)]
    coefficients = []
    for l, terms in _CUBIC_TERMS:
        s = 0.0
        for b, j in terms:
            s += b * powers[j]
        coefficients.append(powers[l] / (2 * l + 2) + s)
    return tuple(coefficients)


def _cubic_tail(n: float, a2: float, coefficients: tuple) -> float:
    """sum_{k >= n} 1 / (k (k^2 - a^2)) for n >= _CUBIC_X and a^2 = a2 <= 1/4, within 4 ulp, with no 1 / a^2: its
    Euler-Maclaurin sum (A&S 23.1.30) in w = 1 / n^2.

    That sum is sum_j a^(2j) zeta(2j + 3, n) (ratio a^2 / n^2 <= 1 / 3600) with each Hurwitz zeta's asymptotic series,
    gathered by powers of w: w (sum_l C_l w^l + 1 / (2 n (1 - a^2 w))), the last term half the first term's sum over
    j, with the C_l of _cubic_tail_coefficients.
    """
    c5, c4, c3, c2, c1, c0 = coefficients
    w = 1.0 / (n * n)
    # written out, as _digamma's series is: this is the hot path of g from x = 0.2 on unpaired baths
    return w * (((((c5 * w + c4) * w + c3) * w + c2) * w + c1) * w + c0 + 0.5 / (n * (1.0 - a2 * w)))


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
        # a = beta gamma / 2 pi, which tail_sums reads at every call
        a = self.a = _finite(bath.pole_ratio, "beta gamma / 2 pi")
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
        s0_amp = (eta * gamma * _pow(beta, 2) / (2.0 * math.pi**3)) / self.a**2
        return eta * gamma * beta / math.pi**2, s0_amp

    @cached_property
    def _unpaired_s0(self) -> tuple[float, float, tuple]:
        """Where m = 0: the prefactor eta gamma beta^2 / (2 pi^3) of S0, a^2 and the coefficients of its _cubic_tail."""
        eta, gamma, beta = self.bath.eta, self.bath.gamma, self.bath.beta
        a2 = self.a**2
        return eta * gamma * _pow(beta, 2) / (2.0 * math.pi**3), a2, _cubic_tail_coefficients(a2)

    @cached_property
    def _unpaired_head(self) -> list:
        """Where m = 0: _cubic_tail at n = 1, ..., _CUBIC_X from that at _CUBIC_X and the terms below it, added from the
        smallest; built at the first tail_sums call that reads it, one with last < _CUBIC_X."""
        _, a2, coefficients = self._unpaired_s0
        head = [_cubic_tail(_CUBIC_X, a2, coefficients)]
        for n in range(_CUBIC_X - 1, 0, -1):
            head.append(head[-1] + 1.0 / (n * (n * n - a2)))
        return head[::-1]

    def tail_sums(self, last: int, derivative: bool = False) -> tuple[float, float]:
        """(S0, S1), S0 = sum c_n and S1 = sum B_n over n > last but n = m, by digamma; S0 is nan when derivative.

        Where m > last, psi(last + 1 - a) = psi(a - last) + pi cot(pi a) (A&S 6.3.7) puts -eta cot(pi a) into S1 and
        -(eta / gamma) cot(pi a) into S0; with -B_m and -c_m they are the pair's constants, which replace them.  Where
        m = 0 (a < 1/2), S0 is its prefactor times _cubic_tail, sum_{k >= n} 1 / (k (k^2 - a^2)), as its digamma
        difference psi(n) - (psi(n - a) + psi(n + a)) / 2 over a^2 cancels as a -> 0.
        """
        s1_amp, s0_amp = self.tail_amps
        a, n = self.a, last + 1.0
        paired = self.m > last
        above, below = _digamma(n + a), _digamma(a - last if paired else n - a)
        s1 = s1_amp * (above - below) / (2.0 * a)
        if derivative:
            s0 = math.nan
        elif self.m:
            s0 = s0_amp * (_digamma(n) - 0.5 * (below + above))
        else:
            amp, a2, coefficients = self._unpaired_s0
            s0 = amp * (self._unpaired_head[last] if last < _CUBIC_X else _cubic_tail(n, a2, coefficients))
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


def _check_pole_ratio(a: float) -> None:
    """DephaserError where a = beta gamma / 2 pi reaches _A_MAX, past which the window's n - a are not exact."""
    if not a < _A_MAX:
        raise DephaserError(f"beta gamma / 2 pi = {a!r} is past 2^52, where the Matsubara terms' n - a are not exact")


def _panels(lo: float, hi: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on each of the equal panels of [lo, hi], at most width
    wide, in increasing order."""
    nodes, weights = _unit_panels(max(1, math.ceil((hi - lo) / width)))
    return lo + (hi - lo) * nodes, (hi - lo) * weights


@cache
def _unit_panels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on each of k equal panels of [0, 1]."""
    nodes = (np.arange(k)[:, None] + _UNIT_NODES).ravel() / k
    return nodes, np.tile(_UNIT_WEIGHTS / k, k)


def _end_coefficients(u: float, a: float, sign: float, power: int, corrections: int) -> tuple:
    """(u, b0, b1, b) of an end u of an Euler-Maclaurin sum of f(v) = phi(v x) r(v), r(v) = v^power q(v), q(v) = 1 /
    (v (v - a)(v + a)), phi = h (Re g, power 0) or phi(y) = e^-y (L, power 2), h(y) = e^-y + y - 1.

    Its term f(u) / 2 + sign sum_k B_2k / (2k)! f^(2k-1)(u), k <= corrections, at any x, is h(y) b0 + x h'(y) b1 +
    x^2 e^-y sum_i b[i] x^i for h, y = u x, h' = 1 - e^-y, and e^-y (b0 - x b1 + x^2 sum_i b[i] x^i) for e^-y: by
    Leibniz, f^(j) = sum_i C(j, i) x^i phi^(i)(y) r^(j-i)(u), with phi^(i) = (-1)^i e^-y for i >= 2 (_EM_TERMS).  The
    derivatives of q follow from p q = 1, p = v^3 - a^2 v, and those of v^2 q from them by Leibniz.
    """
    p = u * (u - a) * (u + a)
    # sum_i C(j, i) p^(i) q^(j-i) = 0 for j >= 1, with p' = 3 v^2 - a^2, p'' = 6 v and p''' = 6
    p1, p2 = 3.0 * u * u - a * a, 3.0 * u
    r = [1.0 / p]
    for j in range(1, 2 * corrections):
        s = j * p1 * r[j - 1]
        if j >= 2:
            s += j * (j - 1) * p2 * r[j - 2]
        if j >= 3:
            s += j * (j - 1) * (j - 2) * r[j - 3]
        r.append(-s / p)
    if power:  # (v^2 q)^(j) = v^2 q^(j) + 2 j v q^(j-1) + j (j - 1) q^(j-2)
        shifted = zip(r, [0.0, *r], [0.0, 0.0, *r])
        r = [u * u * q + 2.0 * j * u * q1 + j * (j - 1) * q2 for j, (q, q1, q2) in enumerate(shifted)]
    b = [0.0] * (2 * corrections)
    for i, j, coef in _EM_TERMS[: corrections * (corrections + 1)]:
        b[i] += coef * r[j]
    return u, sign * b[0] + 0.5 * r[0], sign * b[1], tuple(sign * v for v in b[2:])


def _zero_end_coefficients(a: float, corrections: int) -> tuple:
    """(d_1, ..., d_c) of the Euler-Maclaurin corrections -sum_k B_2k / (2k)! f^(2k-1)(0), k <= c = corrections, of
    f(u) = h(u x) q(u), q(u) = 1 / (u (u - a)(u + a)), at its lower end u = 0: sum_p d_p x^(2p).

    f(u) = -(1 / a^2) sum_{j >= 2} x^j u^(j-1) / j! sum_i (u / a)^(2i) near 0, so f^(2k-1)(0) = -((2k-1)! / a^2)
    sum_{p <= k} x^(2p) / ((2p)! a^(2k-2p)): terms of one sign.  L's f, e^-ux u^2 q(u), is the second derivative of
    this f in x, so its corrections are sum_p 2p (2p - 1) d_p x^(2p-2).
    """
    bernoulli = _BERNOULLI[:corrections]
    return tuple(
        sum(bk * math.factorial(2 * k - 1) / a ** (2 * k - 2 * p) for k, bk in enumerate(bernoulli, 1) if k >= p)
        / (math.factorial(2 * p) * a * a)
        for p in range(1, corrections + 1)
    )


def _matsubara_nodes(a: float, m: int, power: int, width: float, corrections: int) -> tuple:
    """(u, w, ends, zero_end, top) of the small-x sums of Re g and L: sum_{n >= 1, n != m} phi(n x) n^power q(n), q(u) =
    1 / (u (u - a)(u + a)), for 0 < x < _DIRECT_X.

    Re g's Matsubara part over s0 = eta gamma beta^2 / (2 pi^3) is that of h(y) = e^-y + y - 1 and power 0; L's S is
    that of e^-y and power 2, its second derivative in x.  The 2 _WINDOW + 1 terms around c = max(m, 1) are exact.
    The tails n >= top = c + _WINDOW + 1 and 1 <= n <= last = c - _WINDOW - 1 are their Euler-Maclaurin sums (A&S
    23.1.30): the integral of f(u) = phi(u x) u^power q(u), half of f at each end and the corrections, the
    _end_coefficients of top and last in ends.  f has no pole at u = 0, where h(u x) q(u) ~ -u x^2 / (2 a^2), so the
    lower tail is summed from n = 0, f(0) = 0, with the corrections there of _zero_end_coefficients (() with no lower
    tail).  The upper integral is that of phi(u x) u^(power-3), which the reader takes in closed form, plus that of
    phi(u x)(q(u) - u^-3) u^power, which falls as u^-3 or faster past top and is a Gauss-Legendre sum (_panels) in tau
    = log((u - a) / (top - a)) up to log(a / (top - a)) + _REACH.  The lower one is a sum in s = log((1 + u) / (a -
    u)), which resolves phi's bend at u x = 1 and the pole's scale a - u alike (in log(a - u) alone h's bend near u =
    0 was missed by 1e-9 of Re g at t = 10 on beta 933).  The panels are at most width wide, and each end takes
    corrections terms.  Their nodes join the window's n as the points u, in increasing order, with weights w, so the
    sum is sum_i w_i phi(u_i x) plus the end terms.  DephaserError where a reaches _A_MAX.
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
    tau, w = _panels(0.0, max(0.0, math.log(a / gap)) + _REACH, width)
    upper = a + gap * np.exp(tau)
    # dtau = du / (u - a), so the integrand of phi(u x) u^power is (q(u) - u^-3)(u - a) u^power = a^2 u^power / (u^3
    # (u + a))
    nodes, weights = [n, upper], [q, w * (a * a / (upper**3 * (upper + a)))]
    ends = [_end_coefficients(top, a, -1.0, power, corrections)]
    last = c - _WINDOW - 1.0
    zero_end = ()
    if last >= 1.0:
        s, w = _panels(-math.log(a), math.log((1.0 + last) / (a - last)), width)
        e = np.exp(s)
        lower = (a * e - 1.0) / (1.0 + e)
        nodes.insert(0, lower)
        # du / ds = (1 + u)(a - u) / (a + 1), so the integrand of phi(u x) u^power is -(1 + u) u^power / ((a + 1) u
        # (u + a))
        weights.insert(0, w * (1.0 + lower) / ((-1.0 - a) * lower * (lower + a)))
        ends.append(_end_coefficients(last, a, 1.0, power, corrections))
        zero_end = _zero_end_coefficients(a, corrections)
    u, w = np.concatenate(nodes), np.concatenate(weights)
    if power:
        w *= u**power
    return u, w, ends, zero_end, top


class BrownianCorrelation:
    """Fast analytic L(t) for the overdamped Brownian bath, from its Dirichlet table.

    Re L is c_log S(x) plus the pole's term, with x = 2 pi t / beta, a = beta gamma / 2 pi, c_log = 2 eta gamma / pi
    and S(x) = sum_{n >= 1, n != m} w_n e^{-n x}, w_n = n / ((n - a)(n + a)) = n^2 q(n); the m-th term and the pole
    are read from BathParams.dirichlet() as its pair, gamma (pole_rest e^{-gamma t} - m_rest e^{-nu_m t} + P E[gamma,
    nu_m] of e^{-lambda t}), or as eta gamma cot(beta gamma / 2) e^{-gamma t} where m = 0.  From x = _DIRECT_X, S is
    its live terms, n <= ceil(_EXP_DEAD / x) <= 225.  Below it, S is summed on the points and weights of Re g's sum
    (_matsubara_nodes, power 2), built at the first such call and kept: sum_i w_i e^{-u_i x}, the Euler-Maclaurin end
    terms, the lower tail's corrections at u = 0 (a polynomial in x) and E1(top x) for the upper tail's 1 / u part, a
    bounded amount of work at any temperature.  Raises DephaserError where a reaches _A_MAX or c_log overflows, where
    Re L overflows, at t = 0 and where x underflows to 0 (t below about 4e-325 beta), and ValueError at a negative,
    infinite or nan t.
    """

    def __init__(self, bath: BathParams):
        self.bath = bath
        d = self.table = bath.dirichlet()
        a = d.a
        _check_pole_ratio(a)
        self.c_log = _finite(d.amp / (2.0 * math.pi), "2 eta gamma / pi")
        n = np.arange(1.0, math.ceil(_EXP_DEAD / _DIRECT_X) + 1.0)
        with np.errstate(divide="ignore"):  # n = a = m exactly
            w = n / ((n - a) * (n + a))
        if 1 <= d.m <= n.size:
            w[d.m - 1] = 0.0  # the pair's term
        self._direct = n, w
        self._pair_rates = (min(bath.gamma, d.nu_m), max(bath.gamma, d.nu_m))
        # the tables of S below x = _DIRECT_X, built at the first call there
        self._small_x = None

    def _small_x_sum(self, x: float) -> float:
        """S(x) for 0 < x < _DIRECT_X, on the tables of _matsubara_nodes."""
        if self._small_x is None:
            u, w, ends, zero_end, top = _matsubara_nodes(self.table.a, self.table.m, *_L_RULE)
            self._small_x = u, w, ends, tuple(2 * p * (2 * p - 1) * d for p, d in enumerate(zero_end, 1)), top
        u, w, ends, zero_end, top = self._small_x
        e = u * -x
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
        y = top * x
        return s + p + math.exp(-y) * _e1_scaled(y)

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
            # -x is exact, so these are the bits of sum(w exp(-n x)), in one temporary
            e = n[:live] * -x
            np.exp(e, out=e)
            e *= w[:live]
            s = float(np.add.reduce(e))
        else:
            s = self._small_x_sum(x)
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

    An entry gets the same bits alone as in an array of any size: Horner's rule runs on Python floats or elementwise
    on the array with the same roundings, and an array's expm1 is numpy's.  The array's Horner's rule costs two ufunc
    calls a term, and a Python float's one multiply-add a term, so up to as many entries as terms (the pointwise
    calls) every entry runs on Python floats."""
    if type(y) is float:
        if y < _H_SERIES_TOP:
            p = 0.0
            for c in reversed(_H_TAYLOR):
                p = p * y + c
            return p * y * y
        return math.expm1(-y) + y
    if y.size <= len(_H_TAYLOR):
        values = zip(y.ravel().tolist(), np.expm1(-y).ravel().tolist())
        return np.array([_h(s) if s < _H_SERIES_TOP else em + s for s, em in values]).reshape(y.shape)
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


def _h_divided_difference(lo: float, hi: float, t: float) -> float:
    """Divided difference of h(lambda t) / lambda over [lo, hi] (lo <= hi), h(y) = e^-y + y - 1, to a few ulp.

    Below hi t = _H_SERIES_TOP it is its series t^2 sum_{j >= 0} (-1)^j e_j / (j + 2)!, with e_j = sum_{i <= j} (lo t)^i
    (hi t)^(j - i) the complete homogeneous polynomial, the divided difference of lambda^(j + 1) (McCurdy, Ng and
    Parlett); from there (lo E - expm1(-lo t)) / (lo hi), whose terms cancel by at most a factor 5.
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
