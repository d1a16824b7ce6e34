"""Bath spectral densities and finite-temperature correlation functions.

The environment is a harmonic bath with spectral density J(omega) at
inverse temperature beta (hbar = k_B = 1).  The bath correlation function

    L(t) = (1/pi) * int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is what every dephasing quantity downstream is built from.  For the
overdamped Brownian form

    J(w) = 2 eta w gamma / (w^2 + gamma^2)

L(t) has a pole-plus-Matsubara expansion whose thermal sum this module
evaluates in closed form (a log term, a trilogarithm term, and a fast
n^-5 correction series), so the analytic route costs microseconds per
point at machine accuracy.  Tabulated spectral densities are integrated
on their own grid.

Re L(t) diverges logarithmically as t -> 0 for the Brownian form (the
integrand falls off only as 1/w); evaluation at t = 0 returns a finite
truncated value and emits a RuntimeWarning.  Im L(0) is exactly zero by
oddness of the integrand, while lim_{t->0+} Im L(t) = -eta*gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quadrature import integrate_finite, integrate_fourier_tail
from .errors import ExtrapolationError

# Relative detuning below which a bath pole is treated as degenerate with
# a Matsubara frequency and the resonant term is replaced by its limit.
RESONANCE_RTOL = 1e-6

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


def coth(x):
    """Hyperbolic cotangent, switching to the Laurent form 1/x + x/3 below |x| = 1e-4."""
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
        n = np.arange(1.0, math.ceil(45.0 / x) + 1.0)
        return float(np.sum(np.exp(-n * x) / n**3))
    acc = 0.5 * x * x * (1.5 - math.log(x)) + _ZETA3 - _ZETA2 * x
    term = 0.5 * x * x  # (-x)^k / k! at k = 2
    for k in range(3, 14):
        term *= -x / k
        z = _ZETA_TAIL.get(k)
        if z is not None:
            acc += z * term
    return acc


@dataclass(frozen=True)
class BathParams:
    """Overdamped Brownian bath: coupling eta, cutoff gamma, inverse temperature beta.

    matsubara_terms is the number K of thermal poles kept explicitly in
    series evaluations downstream.
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
        """n-th bosonic thermal frequency nu_n = 2 pi n / beta."""
        return 2.0 * math.pi * np.asarray(n, dtype=float) / self.beta


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
    """Fast analytic L(t) for the overdamped Brownian bath.

    The Matsubara sum over nu_n = 2 pi n / beta is split as

        nu/(nu^2 - g^2) = 1/nu + g^2/nu^3 + g^4 / (nu^3 (nu^2 - g^2))

    whose first two pieces resum to -log(1 - e^-x) and Li_3(e^-x) with
    x = 2 pi t / beta, leaving an n^-5 correction series that converges
    in a few hundred terms independently of t.  A pole degenerate with a
    thermal frequency is replaced by the finite limit of the combined
    resonant pair.
    """

    _TAIL_TOL = 1e-14

    def __init__(self, eta: float, gamma: float, beta: float):
        if min(eta, gamma, beta) <= 0.0:
            raise ValueError("eta, gamma, beta must be positive")
        self.eta = eta
        self.gamma = gamma
        self.beta = beta
        self.a = beta * gamma / (2.0 * math.pi)
        m = round(self.a)
        self.res_index = m if (m >= 1 and abs(m - self.a) < RESONANCE_RTOL * self.a) else 0

        two_pi = 2.0 * math.pi
        self.c_log = 2.0 * eta * gamma / math.pi
        self.c_li3 = 4.0 * eta * gamma**3 / beta * (beta / two_pi) ** 3
        coef5 = 4.0 * eta * gamma**5 / beta * (beta / two_pi) ** 5

        n_corr = max(
            math.ceil((abs(coef5) / (4.0 * self._TAIL_TOL)) ** 0.25) + 10,
            math.ceil(2.0 * self.a) + 10,
            30,
        )
        n_corr = min(n_corr, 50000)
        n = np.arange(1.0, n_corr + 1.0)
        with np.errstate(divide="ignore"):
            w5 = coef5 / (n**3 * (n**2 - self.a**2))
        if self.res_index:
            w5[self.res_index - 1] = 0.0
        self._n = n
        self._w5 = w5
        if not self.res_index:
            self._cot_amp = eta * gamma / math.tan(0.5 * beta * gamma)

    def _real_at_zero(self) -> float:
        # Truncated stand-in for the log-divergent t -> 0 limit.
        warnings.warn(
            "Re L(t) diverges as t -> 0; returning a truncated value at t = 0",
            RuntimeWarning,
            stacklevel=3,
        )
        n = np.arange(1.0, 100001.0)
        nu = 2.0 * math.pi * n / self.beta
        terms = 4.0 * self.eta * self.gamma / self.beta * nu / (nu**2 - self.gamma**2)
        if self.res_index:
            terms[self.res_index - 1] = 0.0
            return float(terms.sum() + self.eta / self.beta)
        return float(self._cot_amp + terms.sum())

    def __call__(self, t: float) -> complex:
        if t < 0.0:
            raise ValueError("correlation function is evaluated for t >= 0")
        if t == 0.0:
            return complex(self._real_at_zero(), 0.0)
        x = 2.0 * math.pi * t / self.beta
        decay = math.exp(-self.gamma * t)
        re = self.c_log * (-math.log(-math.expm1(-x))) + self.c_li3 * trilog_exp(x)
        re += float(np.sum(self._w5 * np.exp(-self._n * x)))
        if self.res_index:
            nu = 2.0 * math.pi * self.res_index / self.beta
            re += 2.0 * self.eta / self.beta * math.exp(-nu * t) * (0.5 - nu * t)
            re -= (
                4.0 * self.eta * self.gamma / self.beta
                * (1.0 / nu + self.gamma**2 / nu**3)
                * math.exp(-nu * t)
            )
        else:
            re += self._cot_amp * decay
        return complex(re, -self.eta * self.gamma * decay)


def _brownian_quadrature(params: BathParams, t: float) -> complex:
    eta, gamma, beta = params.eta, params.gamma, params.beta
    ws = max(10.0 * gamma, 10.0 / beta)

    def j_func(w):
        return 2.0 * eta * w * gamma / (w * w + gamma * gamma)

    def f_therm(w):
        return j_func(w) * coth(0.5 * beta * w) / math.pi

    if t == 0.0:
        warnings.warn(
            "Re L(t) diverges as t -> 0; returning a truncated value at t = 0",
            RuntimeWarning,
            stacklevel=3,
        )
        w_cap = max(1e6 * gamma, 1e6 / beta)
        re = integrate_finite(f_therm, 0.0, ws, tag="Re L(0)")
        re += integrate_finite(f_therm, ws, w_cap, epsrel=1e-10, tag="Re L(0) tail")
        return complex(re, 0.0)

    re = integrate_finite(lambda w: f_therm(w) * math.cos(w * t), 0.0, ws, tag="Re L")
    re += integrate_fourier_tail(f_therm, ws, t, "cos", tag="Re L tail")
    im = integrate_finite(lambda w: j_func(w) * math.sin(w * t) / math.pi, 0.0, ws, tag="Im L")
    im += integrate_fourier_tail(lambda w: j_func(w) / math.pi, ws, t, "sin", tag="Im L tail")
    return complex(re, -im)


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
    representation directly; the two agree to better than 1e-10 relative
    and serve as independent checks of each other.  Tabulated densities
    always integrate on their own grid.
    """
    if t < 0.0:
        raise ValueError("correlation function is evaluated for t >= 0")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if isinstance(sd, TabulatedSpectralDensity):
        return _tabulated_grid(sd, sd.values * coth(0.5 * beta * sd.omega), t)
    if not isinstance(sd, OverdampedBrownian):
        raise TypeError(f"unsupported spectral density type {type(sd).__name__}")
    p = sd.params
    if route in (None, "analytic"):
        return BrownianCorrelation(p.eta, p.gamma, beta)(t)
    if route == "quadrature":
        return _brownian_quadrature(BathParams(p.eta, p.gamma, beta), t)
    raise ValueError(f"unknown route {route!r}")
