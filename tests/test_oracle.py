"""The oracles of tests/_oracle.py prove their own digits: 20 more digits of working precision move no value.

reference's exact split loses about 2 log10(1/x) + 6 log10(a) digits to cancellation, which its
working precision adds to 40; these tests pin that rule where the loss is largest, and correlation the same way.
"""

import math

import _oracle
import mpmath
import pytest
from test_spectral import _ORACLE_POINTS

# the rule's value and the value at 20 more digits agree to this relative distance
DIGITS_RTOL = 1e-15

# corners of (a = beta gamma / 2 pi, t) on gamma = 0.5: a from 0.1 to 300, which covers the cold baths of the
# benchmark (a up to 278), and t from 10 down to 1e-9; a = 299.5 keeps the detuning's digits out of it
_CORNERS = [(a, t) for a in (0.1, 299.5) for t in (1e-9, 10.0)]


def _with_more_digits(monkeypatch, oracle, *args):
    """oracle(*args) with 20 more digits than the rule gives it."""
    rule = _oracle._digits
    with monkeypatch.context() as m:
        m.setattr(_oracle, "_digits", lambda a: rule(a) + 20)
        return oracle(*args)


@pytest.mark.parametrize("a, t", _CORNERS, ids=[f"a {a:g}, t {t:g}" for a, t in _CORNERS])
def test_reference_holds_its_digits_at_the_corners(monkeypatch, a, t):
    args = (1.0, 0.5, 2.0 * math.pi * a / 0.5, t)
    for got, want in zip(_oracle.reference(*args), _with_more_digits(monkeypatch, _oracle.reference, *args)):
        assert abs(got - want) <= DIGITS_RTOL * abs(want), (got, want)


def test_reference_on_the_cold_bath_at_1e_9_is_its_90_digit_value():
    # a = 267, x = 6.7e-12: at a fixed 40 digits Re g was 2.4e-6 off this
    re_g, _ = _oracle.reference(1.3, 1.8, 933.0, 1e-9)
    assert abs(re_g - 1.5685145965668415e-17) <= DIGITS_RTOL * 1.5685145965668415e-17


@pytest.mark.parametrize("point", _ORACLE_POINTS.values(), ids=_ORACLE_POINTS.keys())
def test_correlation_holds_its_digits_at_pinned_points(monkeypatch, point):
    got, want = _oracle.correlation(*point), _with_more_digits(monkeypatch, _oracle.correlation, *point)
    assert abs(got[0] - want[0]) <= DIGITS_RTOL * abs(want[0]), (got, want)


@pytest.mark.parametrize("beta", [1e-40, 6e-152])
def test_reference_on_hot_baths_is_the_high_temperature_closed_form(beta):
    # (1, 0.5, beta) at x = 9: gamma t is 3.6e-40 and 4.3e-151, where expm1(-gamma t) + gamma t at the working precision
    # left Re g 18 % off at beta 1e-40 and a factor of about 1e151 off at 6e-152.  The Matsubara terms add about a^2 =
    # (beta gamma / 2 pi)^2 of Re g to the closed form (2 eta / (beta gamma^2)) h(gamma t), below 1e-80 here
    eta, gamma = 1.0, 0.5
    t = 9.0 * beta / (2.0 * math.pi)
    with mpmath.workdps(400):  # h(y) = expm1(-y) + y cancels to y / 2 of y
        y = mpmath.mpf(gamma) * t
        want = (2 * eta / (beta * gamma**2) * (mpmath.expm1(-y) + y), -2 * eta / (beta * gamma) * mpmath.expm1(-y))
    for got, w in zip(_oracle.reference(eta, gamma, beta, t), want):
        assert abs(got - w) <= DIGITS_RTOL * abs(w), (got, w)
