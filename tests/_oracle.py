"""Reference values of the lineshape engines to 40 digits or more: Re g(t), Re gdot(t), the digamma tail sums, Re L(t).

reference gives Re g(t) and Re gdot(t) for a Brownian bath at any detuning of the pole gamma from its nearest
Matsubara frequency nu_m, m = round(beta gamma / 2 pi) >= 1, exact float resonance included.

With nu_1 = 2 pi / beta, x = nu_1 t, r = (beta gamma / (2 pi))^2 and
P = 4 eta gamma / (beta nu_1^3), the Matsubara part of Re g is
sum_n P h(n x) / (n (n^2 - r)), h(y) = e^-y + y - 1, and that of Re gdot
is sum_n P nu_1 (1 - e^-nx) / (n^2 - r).  The exact splits (J = 4)

    1 / (n (n^2 - r)) = sum_{j<J} r^j / n^(2j+3) + r^J / (n^(2J+1) (n^2 - r))
    1 / (n^2 - r)     = sum_{j<J} r^j / n^(2j+2) + r^J / (n^(2J) (n^2 - r))

give Li_3, Li_5, Li_7, Li_9 (and Li_2 ... Li_8) of e^-x in closed form
plus remainders whose terms fall off as n^-11 and n^-10.  The
remainders are summed over their first N terms, in fixed point as
correlation's sum is (_remainders).  For N^2 >= 4r the
rest is at most P r^J x^2 / (3 J N^(2J)) in Re g and
2 P nu_1 r^J x / (3 J N^(2J)) in Re gdot (from h(y) <= y^2/2 and
1 - e^-y <= y).  N grows in steps of CHUNK terms until N^2 >= 4r and
both bounds are within 1e-13 of the values: 1 000 terms serve the warm
baths, about 20 000 the cold ones (beta gamma / (2 pi) near 270).

The working precision follows what cancels (_digits).  Each bracket of
the closed form, Li_s(e^-x) + x zeta(s - 1) - zeta(s), is O(x^2) out of
O(1), and r^3 = a^6 scales the last ones, so the split loses about
2 log10(1/x) + 6 log10(a) digits: 40 digits, plus 2 per decade of x below
1 and 6 per decade of a above 1.  Near resonance the pole term, with
cot(beta gamma / 2), and the m-th remainder term each grow as 1 / (a - m),
a = beta gamma / 2 pi, and cancel; the rounding of the reduced argument of
cot, and of k^2 - r, moves each by a relative 10^-dps that the cancellation
scales by 1 / (a - m)^2.  So 2 digits more per decade of |a - m| below
1e-3.  A test pins the rule: 20 digits more move no value by 1e-15.

reference is independent of every engine: no quadrature, no digamma, no
float64.  tail_sums gives the digamma differences that
DirichletTable.tail_sums evaluates in floats.

correlation gives Re L(t) = (2 eta gamma / pi) sum_{n >= 1} n q^n / (n^2 - a^2)
+ eta gamma cot(beta gamma / 2) e^{-gamma t}, q = e^-x, with a = beta gamma / 2 pi
exact, not the engine's float.  Below x = LERCH_X the sum runs in fixed point
(integers scaled by 2^(prec + 64)) to n0 = ceil(a) + 2, and the rest is
q^(n0+1) (Phi(q, 1, n0 + 1 - a) + Phi(q, 1, n0 + 1 + a)) / 2 by mpmath.lerchphi;
from LERCH_X on, the fixed-point sum runs until q^n is 0 in it.  Near resonance
it takes _digits' precision, as reference does.  It shares nothing with the
engine's Euler-Maclaurin tails and exponential integrals.  No loss like the
split's is known there, so it takes only the detuning's digits.
"""

from __future__ import annotations

import math

import mpmath

# terms of the remainders summed between two checks of the bound
CHUNK = 1000
# polylogarithm orders of the closed-form part of Re g; Re gdot takes one less each
_ORDERS = (3, 5, 7, 9)
# x = 2 pi t / beta below which correlation hands the terms past n0 to mpmath.lerchphi (about 80 ms a call); from it
# the fixed-point sum takes at most about 14 000 more terms
LERCH_X = 0.01


def reference(eta: float, gamma: float, beta: float, t: float) -> tuple[float, float]:
    """(Re g(t), Re gdot(t)) of the bath (eta, gamma, beta) at t > 0, to 40 digits or more, rounded to floats."""
    re_g, re_gdot, _ = reference_with_bounds(eta, gamma, beta, t)
    return re_g, re_gdot


def reference_with_bounds(eta: float, gamma: float, beta: float, t: float, min_terms: int = CHUNK):
    """reference's values, then (bound on Re g, bound on Re gdot, N) of the remainders, with N >= min_terms."""
    a = beta * gamma / (2.0 * math.pi)
    with mpmath.workdps(_digits(a) + _split_digits(a, 2.0 * math.pi * t / beta)):
        eta, gamma, beta, t = (mpmath.mpf(v) for v in (eta, gamma, beta, t))
        nu1 = 2 * mpmath.pi / beta
        x, r = nu1 * t, (gamma / nu1) ** 2
        nj = len(_ORDERS)
        q = mpmath.exp(-x)
        series_g = series_gdot = mpmath.mpf(0)
        for j, s in enumerate(_ORDERS):
            series_g += r**j * (mpmath.polylog(s, q) + x * mpmath.zeta(s - 1) - mpmath.zeta(s))
            series_gdot += r**j * (mpmath.zeta(s - 1) - mpmath.polylog(s - 1, q))
        pref = 4 * eta * gamma / (beta * nu1**3)
        cot = mpmath.cot(beta * gamma / 2)
        remainders = _remainders(x, r, q, 2 * nj)
        n = 0
        while True:
            rest_g, rest_gdot = next(remainders)
            n += CHUNK
            re_g = (eta / gamma) * cot * (mpmath.expm1(-gamma * t) + gamma * t) + pref * (series_g + r**nj * rest_g)
            re_gdot = -eta * cot * mpmath.expm1(-gamma * t) + pref * nu1 * (series_gdot + r**nj * rest_gdot)
            bound_g = pref * r**nj * x**2 / (3 * nj * n ** (2 * nj))
            bound_gdot = 2 * pref * nu1 * r**nj * x / (3 * nj * n ** (2 * nj))
            within = bound_g <= 1e-13 * abs(re_g) and bound_gdot <= 1e-13 * abs(re_gdot)
            if n >= min_terms and n * n >= 4 * r and within:
                return float(re_g), float(re_gdot), (float(bound_g), float(bound_gdot), n)


def _digits(a: float) -> int:
    """The working precision at a = beta gamma / 2 pi: 40 digits, and 2 more per digit of 1 / (a - m) below 1e-3.

    a - m is the float one, floored at 1e-18 a: the detuning of the float inputs is not resolved below that.
    """
    detuning = max(abs(a - round(a)), 1e-18 * a)
    return 40 + 2 * max(0, math.ceil(-math.log10(detuning)) - 3) if round(a) >= 1 else 40


def _split_digits(a: float, x: float) -> int:
    """The digits reference's exact split loses at a = beta gamma / 2 pi and x = 2 pi t / beta, which it works with
    on top of _digits: 2 per decade of x below 1 and 6 per decade of a above 1 (module docstring)."""
    return math.ceil(2.0 * max(0.0, -math.log10(x)) + 6.0 * max(0.0, math.log10(a)))


def _remainders(x, r, q, p: int):
    """(sum of h(kx) / (k^(p+1) (k^2 - r)), sum of (1 - q^k) / (k^p (k^2 - r))) over k = 1, ..., n, yielded at
    n = CHUNK, 2 CHUNK, ...; h(y) = e^-y + y - 1 and q = e^-x.

    Kept, as _fixed_point_sum's sums are, in integers scaled by 2^bits, bits 64 more than the working precision: q^k
    is off by at most k 2^-bits and h(kx), about (kx)^2 / 2, by at most 2k 2^-bits, which _split_digits' 2 digits per
    decade of x below 1 keep 64 bits below the precision of h; each term adds at most 2^-bits for its division.
    """
    bits = mpmath.mp.prec + 64
    one = 1 << bits
    q_fixed, x_fixed, r_fixed = int(mpmath.floor(q * one)), int(mpmath.nint(x * one)), int(mpmath.nint(r * one))
    rest_g = rest_gdot = 0
    q_k, k = one, 0
    while True:
        for k in range(k + 1, k + CHUNK + 1):
            q_k = q_k * q_fixed >> bits
            den = k**p * (k * k * one - r_fixed)
            rest_g += ((q_k + k * x_fixed - one) << bits) // (k * den)
            rest_gdot += ((one - q_k) << bits) // den
        yield mpmath.mpf(rest_g) / one, mpmath.mpf(rest_gdot) / one


def tail_sums(eta: float, gamma: float, beta: float, a: float, last: int) -> tuple[float, float]:
    """(S0, S1) of DirichletTable.tail_sums at last, to 40 digits or more, rounded to floats.

    S0 = sum c_n and S1 = sum B_n over n > last but n = m = round(a), the pair's term, which the sums leave out:
    the digamma differences S0 = eta gamma beta^2 / (2 pi^3 a^2) (psi(n) - (psi(n - a) + psi(n + a)) / 2) and
    S1 = eta gamma beta / pi^2 (psi(n + a) - psi(n - a)) / (2 a), n = last + 1, less c_m and B_m where m > last.
    a is the engine's BathParams.pole_ratio, and the digamma arguments are its floats: n + a, and n - a or, where
    m > last, a - last, with psi(n - a) = psi(a - last) + pi cot(pi (a - last)) at that float.  So only its
    digamma, its arithmetic on the digamma values and the pair's constants in place of cot, c_m and B_m differ.
    Where m = 0 the engine's S0 takes no digamma, and S0 here is the exact sum of c_n at the float a, (eta gamma
    beta^2 / (2 pi^3)) sum_j a^(2j) zeta(2j + 3, n), whose ratio a^2 / n^2 is at most 1/4.
    """
    n = last + 1.0
    m = round(a)
    reflected = m > last
    with mpmath.workdps(_digits(a)):
        above = mpmath.digamma(n + a)
        if reflected:
            x = mpmath.mpf(a - last)
            below = mpmath.digamma(x) + mpmath.pi * mpmath.cot(mpmath.pi * x)
        else:
            below = mpmath.digamma(n - a)
        eta, gamma, beta, a, n = (mpmath.mpf(v) for v in (eta, gamma, beta, a, n))
        s1 = eta * gamma * beta / mpmath.pi**2 * (above - below) / (2 * a)
        s0 = eta * gamma * beta**2 / (2 * mpmath.pi**3 * a**2) * (mpmath.digamma(n) - (below + above) / 2)
        if reflected:
            nu = 2 * mpmath.pi * m / beta
            b_m = 4 * eta * gamma / (beta * (nu**2 - gamma**2))
            s0, s1 = s0 - b_m / nu, s1 - b_m
        if not m:
            series = mpmath.nsum(lambda j: a ** (2 * j) * mpmath.zeta(2 * j + 3, n), [0, mpmath.inf])
            s0 = eta * gamma * beta**2 / (2 * mpmath.pi**3) * series
        return float(s0), float(s1)


def correlation(eta: float, gamma: float, beta: float, t: float) -> tuple[float, float]:
    """(Re L(t), the sum of the absolute values of its terms) of the bath (eta, gamma, beta) at t > 0, each to 40
    digits or more and rounded to a float (module docstring)."""
    with mpmath.workdps(_digits(beta * gamma / (2.0 * math.pi))):
        eta, gamma, beta, t = (mpmath.mpf(v) for v in (eta, gamma, beta, t))
        a = beta * gamma / (2 * mpmath.pi)
        x = 2 * mpmath.pi * t / beta
        q = mpmath.exp(-x)
        if x < LERCH_X:
            n0 = int(mpmath.ceil(a)) + 2
            s, below = _fixed_point_sum(a, q, n0)
            s += q ** (n0 + 1) * (mpmath.lerchphi(q, 1, n0 + 1 - a) + mpmath.lerchphi(q, 1, n0 + 1 + a)) / 2
        else:
            s, below = _fixed_point_sum(a, q, None)
        c_log = 2 * eta * gamma / mpmath.pi
        pole = eta * gamma * mpmath.cot(beta * gamma / 2) * mpmath.exp(-gamma * t)
        return float(c_log * s + pole), float(c_log * (s - 2 * below) + abs(pole))


def _fixed_point_sum(a, q, stop: int | None):
    """(sum of n q^n / (n^2 - a^2), sum of its terms n < a) over n = 1, ..., stop, or until q^(n-1) is 0 in fixed
    point when stop is None; the terms n < a are the negative ones.

    The sums of n q^(n-1) / (n^2 - a^2) are kept in integers scaled by 2^bits, bits 64 more than the working precision,
    and multiplied by q at the end, so that each term is off by at most 2^-bits of the first and q^(n-1) by at most
    n 2^-bits, however small q is: about 1 us a term, where an mpf term takes about 12.
    """
    bits = mpmath.mp.prec + 64
    one = 1 << bits
    q_fixed, a_fixed = int(mpmath.floor(q * one)), int(mpmath.nint(a * one))
    total = below = 0
    q_n, n = one, 0
    while n != stop and (q_n or stop is not None):
        n += 1
        total += (n * q_n << 2 * bits) // ((n << bits) ** 2 - a_fixed * a_fixed)
        q_n = q_n * q_fixed >> bits
        if n << bits < a_fixed:
            below = total
    return q * mpmath.mpf(total) / one, q * mpmath.mpf(below) / one


def measure(eta: float, gamma: float, beta: float, t1: float) -> tuple[float, float]:
    """(N, t*) of the Prepared(t1) scenario on the bath (eta, gamma, beta) from reference alone: the non-Markovianity
    of Laine, Piilo and Breuer (PRA 81, 062115, 2010) for the antipodal equatorial pair, N = e^{-E(t*)} - e^{-E(0)}.

    E(t) = 2 Re g(t1) + 2 Re g(t) - Re g(t1 + t) is the flip exponent, E(0) = Re g(t1), and t* is the one zero of its
    rate 2 Re gdot(t) - Re gdot(t1 + t), negative below it.  t* is bracketed by doubling from t1 and bisected on the
    sign of that rate to a relative width of 1e-9.  The rate vanishes at t*, so the error of t* moves N only at second
    order, and floats suffice for the bisection.
    """

    def rate(t: float) -> float:
        return 2.0 * reference(eta, gamma, beta, t)[1] - reference(eta, gamma, beta, t1 + t)[1]

    lo, hi = 0.0, t1
    while rate(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if rate(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    g1 = reference(eta, gamma, beta, t1)[0]
    e_star = 2.0 * g1 + 2.0 * reference(eta, gamma, beta, t_star)[0] - reference(eta, gamma, beta, t1 + t_star)[0]
    return math.exp(-e_star) - math.exp(-g1), t_star
