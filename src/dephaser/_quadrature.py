"""Thin wrappers around adaptive quadrature with a uniform failure policy.

All routines return the integral estimate and raise IntegrationError when
the reported residual is too large to trust.  The oscillatory tail helper
uses the dedicated Fourier transform integrator, which handles integrands
decaying only algebraically (the conditionally convergent case) where a
plain upper cutoff would not converge.

scipy.integrate is imported on the first call, so the series and
closed-form routes never load it.
"""

from __future__ import annotations

from .errors import IntegrationError

_LIMIT = 400
_LIMLST = 200


def _quad(f, a, b, tag, **options):
    from scipy.integrate import quad

    value, abserr = quad(f, a, b, limit=_LIMIT, full_output=1, **options)[:2]
    # quad error estimates are pessimistic; only bail out when the residual
    # is large on the scale of the result itself.
    if abserr > 1e-7 * (1.0 + abs(value)):
        raise IntegrationError(
            f"quadrature for {tag} did not converge (residual {abserr:.3e})",
            residual=abserr,
        )
    return value


def integrate_finite(f, a, b, *, epsabs=1e-12, epsrel=1e-12, tag="integral"):
    return _quad(f, a, b, tag, epsabs=epsabs, epsrel=epsrel)


def integrate_to_inf(f, a, *, tag="integral"):
    return _quad(f, a, float("inf"), tag, epsabs=1e-12, epsrel=1e-12)


def integrate_fourier_tail(f, a, freq, kind, *, tag="integral"):
    """Integral of f(w) cos(freq w) or f(w) sin(freq w) over [a, inf)."""
    return _quad(f, a, float("inf"), tag, weight=kind, wvar=freq, epsabs=1e-13, limlst=_LIMLST)
