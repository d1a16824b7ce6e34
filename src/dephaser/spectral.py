"""Bath spectral densities and finite-temperature correlation functions.

The environment is a harmonic bath with spectral density J(omega) at
inverse temperature beta (hbar = k_B = 1).  The bath correlation function

    L(t) = (1/pi) * int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is what every dephasing quantity downstream is built from.  For the
overdamped Brownian form

    J(w) = 2 eta w gamma / (w^2 + gamma^2)

L(t) has a pole-plus-Matsubara expansion (BrownianCorrelation), whose
n^-5 correction series is capped at 50 000 terms: too few at low
temperature, where against a 40-digit Lerch-phi sum (eta 1, gamma 0.5,
t 2) Re L is off by 2e-5 at beta = 2e5 (1e-4 of |L|) and by 0.27 at
beta = 1e6.  Tabulated spectral densities are integrated on their own grid.

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

# Exponentials e^-x are dead (below about 3e-20) past this x: the Li_3 series and the Matsubara tail stop there.
_EXP_DEAD = 45.0

_L0_DIVERGES = "Re L(t) of the Brownian bath diverges logarithmically as t -> 0; L(0) is undefined"


_ZETA3 = 1.2020569031595942854
_ZETA2 = math.pi * math.pi / 6.0
# zeta(3 - k) for k = 3..13; even negative arguments vanish.
_ZETA_TAIL = {
    3: -0.5,
    4: -1.0 / 12.0,
    6: 1.0 / 120.0,
    8: -1.0 / 252.0,
    10: 1.0 / 240.0,
    12: -1.0 / 132.0,
}


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


def trilog_exp(x: float) -> float:
    """Li_3(e^-x) for x > 0, accurate to machine precision.

    Direct series for x >= 1; for smaller x the series in x around zero,
    whose x^2 log x term carries the branch point.
    """
    if x >= 1.0:
        n = np.arange(1.0, math.ceil(_EXP_DEAD / x) + 1.0)
        return float(np.sum(np.exp(-n * x) / n**3))
    acc = 0.5 * x * x * (1.5 - math.log(x)) + _ZETA3 - _ZETA2 * x
    term = 0.5 * x * x  # (-x)^k / k! at k = 2
    for k in range(3, 14):
        term *= -x / k
        z = _ZETA_TAIL.get(k)
        if z is not None:
            acc += z * term
    return acc


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
        if self.matsubara_terms < 0:
            raise ValueError("matsubara_terms must be nonnegative")

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

    The Matsubara sum is split as nu/(nu^2 - g^2) = 1/nu + g^2/nu^3 + g^4 / (nu^3 (nu^2 - g^2)), whose
    first two pieces resum to -log(1 - e^-x) and Li_3(e^-x), x = 2 pi t / beta, leaving an n^-5 series of
    n_corr terms: enough for 1e-14 and past beta gamma / pi, but at most 50 000, too few at low temperature
    (see the module docstring).  At each t it stops at its live terms, n <= ceil(_EXP_DEAD / x), as the
    Li_3 series does, and sums them in one temporary, exp and product in place, so that a call of 50 000
    live terms allocates one array, whose pages the allocator keeps from call to call.  Every amplitude is
    read from BathParams.dirichlet(): the pole and the m-th term are its pair, gamma (pole_rest e^{-gamma t}
    - m_rest e^{-nu_m t} + P E[gamma, nu_m] of e^{-lambda t}), with the m-th pieces of the three series
    taken out.  Raises DephaserError where a coefficient of the split
    overflows, at t = 0 and where x underflows to 0 (t below about 4e-325 beta).
    """

    _TAIL_TOL = 1e-14

    def __init__(self, bath: BathParams):
        self.bath = bath
        d = self.table = bath.dirichlet()
        gamma, beta, a = bath.gamma, bath.beta, bath.pole_ratio

        two_pi = 2.0 * math.pi
        self.c_log = d.amp / two_pi
        self.c_li3 = _finite(d.amp * _pow(gamma, 2) / beta * _pow(beta / two_pi, 3), "the Li_3 coefficient")
        coef5 = _finite(d.amp * _pow(gamma, 4) / beta * _pow(beta / two_pi, 5), "the n^-5 coefficient")

        n_corr = max(
            math.ceil((abs(coef5) / (4.0 * self._TAIL_TOL)) ** 0.25) + 10,
            math.ceil(2.0 * a) + 10,
            30,
        )
        n_corr = min(n_corr, 50000)
        n = np.arange(1.0, n_corr + 1.0)
        with np.errstate(divide="ignore"):
            w5 = coef5 / (n**3 * (n**2 - _pow(a, 2)))
        if 1 <= d.m <= n_corr:
            w5[d.m - 1] = 0.0
        # the m-th term's pieces of the log and Li_3 resummations, amp / (beta nu_m) (1 + (gamma / nu_m)^2)
        self._m_split = d.amp / beta * (1.0 + (gamma / d.nu_m) ** 2) / d.nu_m if d.m else 0.0
        self._pair_rates = (min(gamma, d.nu_m), max(gamma, d.nu_m))
        self._n = n
        self._w5 = w5

    def __call__(self, t: float) -> complex:
        if t < 0.0:
            raise ValueError("correlation function is evaluated for t >= 0")
        if t == 0.0:
            raise DephaserError(_L0_DIVERGES)
        p, d = self.bath, self.table
        x = 2.0 * math.pi * t / p.beta
        if x == 0.0:
            raise DephaserError(
                f"time {t!r} is too small for the correlation function at beta = {p.beta!r}: "
                "x = 2 pi t / beta underflows to 0"
            )
        decay = math.exp(-p.gamma * t)
        re = self.c_log * (-math.log(-math.expm1(-x))) + self.c_li3 * trilog_exp(x)
        live = math.ceil(_EXP_DEAD / x) if x * self._n.size > _EXP_DEAD else self._n.size
        # the n^-5 series in one temporary: -x is exact, so these are the bits of sum(w5 exp(-n x))
        e = self._n[:live] * -x
        np.exp(e, out=e)
        e *= self._w5[:live]
        re += float(np.add.reduce(e))
        if d.m:
            decay_m = math.exp(-d.nu_m * t)
            pair = d.pole_rest * decay - d.m_rest * decay_m + d.pair_amp * _exp_divided_difference(*self._pair_rates, t)
            re += p.gamma * pair - self._m_split * decay_m
        else:
            re += 0.25 * d.amp * d.cot * decay
        # amp / 4 is eta gamma exactly: L's pole term is eta gamma (cot - i) e^{-gamma t}, B_gamma gamma in Re
        return complex(re, -0.25 * d.amp * decay)


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
    t w_split of about 60; past that, where |L| is small against the
    integrator's absolute tolerance, the gap can grow.
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
