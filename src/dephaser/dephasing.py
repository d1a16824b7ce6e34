"""Lineshape (dephasing) function g(t) of a pure-dephasing two-level system.

g is the double time integral of the bath correlation function,

    g(t) = int_0^t dtau (t - tau) L(tau),

and its derivative gdot(t) = int_0^t dtau L(tau).  Four interchangeable
evaluators are provided:

  * BrownianMatsubara: the pole-plus-Matsubara series with the dropped
    n > K thermal remainder resummed exactly through digamma closed forms
    (include_tail=True, the default) or truncated strictly at K terms.
  * HighTemperatureBrownian: the beta*gamma -> 0 closed form.
  * FrequencyQuadrature: direct adaptive integration of the spectral
    representation, with the oscillatory tails handled by a dedicated
    Fourier integrator.  Independent of the series route.
  * TimeDomainQuadrature: nested quadrature of (t - tau) L(tau) against
    the analytic correlation function.  Independent of both others.

The quadrature engines exist as cross-checks: all routes agree to better
than 1e-6 relative (in practice 1e-10) over gamma t in (0, 10].
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import integrate_finite, integrate_fourier_tail, integrate_to_inf
from .errors import ResonanceError
from .spectral import (
    RESONANCE_RTOL,
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    _check_beta,
    _check_time,
    _tabulated_grid,
    coth,
)

ENGINE_NAMES = ("analytic", "hight", "freq-quad", "time-quad")

# Matsubara exponentials e^{-nu_n t} are dead below this weight.
_EXP_DEAD = 45.0
_BLOCK_CAP = 2_000_000


def flip_exponent(g1, g2, g12):
    """Exponent 2 g(t1) + 2 g(t2) - g(t1+t2) of a coherence flipped between two intervals.

    The one object shared by the echo response and the flipped-coherence
    propagation kernel.  Takes g at t1, t2 and t1+t2 as scalars or
    broadcastable arrays.
    """
    return 2.0 * g1 + 2.0 * g2 - g12


def _g_distinct(evaluator, times) -> np.ndarray:
    """Complex g at every time of the 1-d array times, with one evaluator call per distinct value."""
    distinct, where = np.unique(times, return_inverse=True)
    return np.array([evaluator.g(float(t)) for t in distinct])[where]


class BrownianMatsubara:
    """Pole-plus-Matsubara series for the overdamped Brownian bath.

    g(t) = (eta/gamma) [cot(beta gamma / 2) - i] h(gamma t)
           + sum_{n=1}^{K} c_n h(nu_n t) + tail,
    h(x) = e^-x + x - 1,  nu_n = 2 pi n / beta.

    With include_tail=True (default) the n > K remainder is evaluated
    exactly: live exponentials are accumulated until they underflow and
    the linear-in-t rest has a digamma closed form.  include_tail=False
    keeps exactly the K explicit terms; matsubara_remainder reports what
    that truncation drops.

    A pole degenerate with nu_m (relative detuning below 1e-6) has its
    diverging cot and series terms replaced by their combined finite
    limit, which requires m <= K.
    """

    def __init__(self, params: BathParams, include_tail: bool = True):
        self.params = params
        self.bath = params
        self.beta = params.beta
        self.include_tail = include_tail
        eta, gamma, beta = params.eta, params.gamma, params.beta
        k = params.matsubara_terms
        # bound here, once, so that importing dephaser loads no scipy
        from scipy.special import digamma

        self._digamma = digamma

        self.a = beta * gamma / (2.0 * math.pi)
        m = round(self.a)
        self.res_index = m if (m >= 1 and abs(m - self.a) < RESONANCE_RTOL * self.a) else 0
        if self.res_index and self.res_index > k:
            raise ResonanceError(
                f"bath pole gamma = {gamma:g} is degenerate with Matsubara frequency "
                f"nu_{m}; increase matsubara_terms to at least {m} (got {k})"
            )

        n = np.arange(1.0, k + 1.0)
        self.nu = 2.0 * math.pi * n / beta
        if k:
            with np.errstate(divide="ignore"):
                c = 4.0 * eta * gamma / (beta * self.nu * (self.nu**2 - gamma**2))
        else:
            c = np.zeros(0)
        if self.res_index:
            c[self.res_index - 1] = 0.0
            self.nu_res = 2.0 * math.pi * self.res_index / beta
            self.cot_amp = 0.0
        else:
            self.cot_amp = 1.0 / math.tan(0.5 * beta * gamma)
        self.c = c
        self.cnu = c * self.nu
        self._s0_k, self._s1_k = self._tail_sums(k)

    def _tail_sums(self, m: int) -> tuple[float, float]:
        """(S0, S1) with S0 = sum_{n>m} c_n and S1 = sum_{n>m} c_n nu_n.

        c_n = 4 eta gamma / (beta nu_n (nu_n^2 - gamma^2)).  Both sums telescope
        to digamma differences; exact for any m >= the resonant index.
        """
        p, a, digamma = self.params, self.a, self._digamma
        eta, gamma, beta = p.eta, p.gamma, p.beta
        s1 = (eta * gamma * beta / math.pi**2) * (digamma(m + 1 + a) - digamma(m + 1 - a)) / (2.0 * a)
        s0 = (eta * gamma * beta**2 / (2.0 * math.pi**3)) / a**2 * (
            digamma(m + 1.0) - 0.5 * (digamma(m + 1 - a) + digamma(m + 1 + a))
        )
        return s0, s1

    def _tail_g(self, t: float) -> float:
        p = self.params
        k = p.matsubara_terms
        n_osc = math.ceil(_EXP_DEAD * p.beta / (2.0 * math.pi * t))
        if n_osc <= k:
            return t * self._s1_k - self._s0_k
        n_stop = min(n_osc, k + _BLOCK_CAP)
        n = np.arange(k + 1.0, n_stop + 1.0)
        nu = 2.0 * math.pi * n / p.beta
        c = 4.0 * p.eta * p.gamma / (p.beta * nu * (nu**2 - p.gamma**2))
        x = nu * t
        explicit = float(np.sum(c * (np.expm1(-x) + x)))
        s0, s1 = self._tail_sums(n_stop)
        return explicit + t * s1 - s0

    def _tail_gdot(self, t: float) -> float:
        p = self.params
        k = p.matsubara_terms
        n_osc = math.ceil(_EXP_DEAD * p.beta / (2.0 * math.pi * t))
        if n_osc <= k:
            return self._s1_k
        n_stop = min(n_osc, k + _BLOCK_CAP)
        n = np.arange(k + 1.0, n_stop + 1.0)
        nu = 2.0 * math.pi * n / p.beta
        cnu = 4.0 * p.eta * p.gamma / (p.beta * (nu**2 - p.gamma**2))
        explicit = float(np.sum(-cnu * np.expm1(-nu * t)))
        _, s1 = self._tail_sums(n_stop)
        return explicit + s1

    def g(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        p = self.params
        hg = math.expm1(-p.gamma * t) + p.gamma * t
        x = self.nu * t
        re = float(np.sum(self.c * (np.expm1(-x) + x)))
        if self.res_index:
            nu = self.nu_res
            re += (2.0 * p.eta / p.beta) * (
                -t * math.expm1(-nu * t) / nu
                - 1.5 * (math.expm1(-nu * t) + nu * t) / nu**2
            )
        else:
            re += (p.eta / p.gamma) * self.cot_amp * hg
        if self.include_tail:
            re += self._tail_g(t)
        return complex(re, -(p.eta / p.gamma) * hg)

    def gdot(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        p = self.params
        em = math.expm1(-p.gamma * t)
        re = float(np.sum(-self.cnu * np.expm1(-self.nu * t)))
        if self.res_index:
            nu = self.nu_res
            re += (2.0 * p.eta / p.beta) * (
                t * math.exp(-nu * t) + math.expm1(-nu * t) / (2.0 * nu)
            )
        else:
            re += p.eta * self.cot_amp * (-em)
        if self.include_tail:
            re += self._tail_gdot(t)
        return complex(re, p.eta * em)

    def matsubara_remainder(self, t: float) -> complex:
        """Exact value of the n > K part of g(t) that strict truncation drops."""
        t = _check_time(t)
        if t == 0.0:
            return 0j
        return complex(self._tail_g(t), 0.0)


class HighTemperatureBrownian:
    """beta*gamma -> 0 closed form: g(t) = (2 eta/(beta gamma^2) - i eta/gamma) h(gamma t)."""

    def __init__(self, params: BathParams):
        self.params = params
        self.bath = params
        self.beta = params.beta

    def g(self, t: float) -> complex:
        t = _check_time(t)
        p = self.params
        hg = math.expm1(-p.gamma * t) + p.gamma * t
        return complex(2.0 * p.eta / (p.beta * p.gamma**2) * hg, -(p.eta / p.gamma) * hg)

    def gdot(self, t: float) -> complex:
        t = _check_time(t)
        p = self.params
        em = math.expm1(-p.gamma * t)
        return complex(-2.0 * p.eta / (p.beta * p.gamma) * em, p.eta * em)


class FrequencyQuadrature:
    """Adaptive integration of the spectral representation of g.

    Re g(t) = (1/pi) int (J/w^2) coth(beta w/2) (1 - cos w t) dw and the
    imaginary part analogously.  Below a split frequency the integrand is
    handled as written (1 - cos as 2 sin^2); above it the non-oscillatory
    factor decays like 1/w and the cos/sin moments are computed by the
    Fourier integrator, which is what makes the conditionally convergent
    tails reliable.  Constant tail moments are cached at construction.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        if isinstance(sd, OverdampedBrownian):
            p = sd.params
            self.bath = BathParams(p.eta, p.gamma, beta, p.matsubara_terms)
            self._tabulated = False
            self.w_split = max(10.0 * p.gamma, 10.0 / beta)
            # int_{w_split}^inf (J/w^2) coth dw and int_0^inf (J/w) dw
            self._tail_rc = integrate_to_inf(
                lambda w: self._f_rc(w), self.w_split, tag="coth tail moment"
            )
            self._j1_total = integrate_finite(
                lambda w: self._j_over_w(w), 0.0, self.w_split, tag="J/w"
            ) + integrate_to_inf(lambda w: self._j_over_w(w), self.w_split, tag="J/w tail")
        elif isinstance(sd, TabulatedSpectralDensity):
            self.bath = None
            self._tabulated = True
        else:
            raise TypeError(f"unsupported spectral density type {type(sd).__name__}")

    def _j_over_w(self, w):
        p = self.sd.params
        return 2.0 * p.eta * p.gamma / (w * w + p.gamma * p.gamma)

    def _f_rc(self, w):
        # (J/w^2) coth(beta w / 2)
        return self._j_over_w(w) / w * coth(0.5 * self.beta * w)

    def _f_r1(self, w):
        return self._j_over_w(w) * coth(0.5 * self.beta * w)

    def g(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        if self._tabulated:
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

    def gdot(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        if self._tabulated:
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
    rule resolves the integrable log singularity of Re L at u = 0.
    """

    def __init__(self, sd, beta: float):
        beta = _check_beta(beta)
        self.sd = sd
        self.beta = beta
        if isinstance(sd, OverdampedBrownian):
            p = sd.params
            self.bath = BathParams(p.eta, p.gamma, beta, p.matsubara_terms)
            self._corr = BrownianCorrelation(p.eta, p.gamma, beta)
        elif isinstance(sd, TabulatedSpectralDensity):
            self.bath = None
            therm = sd.values * coth(0.5 * beta * sd.omega)
            self._corr = lambda u: _tabulated_grid(sd, therm, u)
        else:
            raise TypeError(f"unsupported spectral density type {type(sd).__name__}")

    def g(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        corr = self._corr
        re = integrate_finite(
            lambda u: (t - u) * corr(u).real, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag="Re g"
        )
        im = integrate_finite(
            lambda u: (t - u) * corr(u).imag, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag="Im g"
        )
        return complex(re, im)

    def gdot(self, t: float) -> complex:
        t = _check_time(t)
        if t == 0.0:
            return 0j
        corr = self._corr
        re = integrate_finite(
            lambda u: corr(u).real, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag="Re gdot"
        )
        im = integrate_finite(
            lambda u: corr(u).imag, 0.0, t, epsabs=1e-11, epsrel=1e-11, tag="Im gdot"
        )
        return complex(re, im)


def make_evaluator(engine: str, params: BathParams):
    """Construct a g(t) evaluator for the Brownian bath by engine name.

    engine is one of "analytic", "hight", "freq-quad", "time-quad".
    """
    if engine == "analytic":
        return BrownianMatsubara(params)
    if engine == "hight":
        return HighTemperatureBrownian(params)
    if engine == "freq-quad":
        return FrequencyQuadrature(OverdampedBrownian(params), params.beta)
    if engine == "time-quad":
        return TimeDomainQuadrature(OverdampedBrownian(params), params.beta)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
