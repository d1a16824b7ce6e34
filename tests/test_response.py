"""Echo and linear response kernels against the propagation layer."""

import cmath
import math

import numpy as np
import pytest

from dephaser.dephasing import BrownianMatsubara, HighTemperatureBrownian
from dephaser.dynamics import DensityMatrix2, SystemParams, coherence_flip, propagate_single, two_time_map
from dephaser.response import echo_response, flip_exponent_grid
from dephaser.spectral import BathParams

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)
STATE = DensityMatrix2(0.4, 0.3 * np.exp(0.7j))

# interior maximum of |R(1, .)|, shared root with the trace-distance
# growth endpoint (same rate balance); see test_measures for provenance
RIDGE_T2 = 0.62233387513238


def test_modulus_ties_response_to_flip_kernel():
    # the echo kernel against the coherence carried through a flip junction
    ev = BrownianMatsubara(BATH)
    system = SystemParams(epsilon=1.3)
    ts = np.linspace(0.25, 5.0, 20)
    worst = 0.0
    for t1 in ts:
        for t2 in ts:
            r = abs(echo_response(ev, float(t1), float(t2)))
            out = two_time_map(system, ev, coherence_flip(), float(t1), float(t2))(STATE)
            k = abs(out.c12) / abs(STATE.c12)
            worst = max(worst, abs(r - k) / k)
    assert worst < 1e-14


def test_echo_response_equals_the_grid_kernel_bit_for_bit():
    # one two-interval call and the grid route take g from different calls, but every bit agrees
    ev = BrownianMatsubara(BathParams(1.3, 0.7, 2.0))
    ts = np.linspace(0.0, 6.0, 61)
    grid = np.exp(-flip_exponent_grid(ev, ts))
    got = np.array([[echo_response(ev, t1, t2) for t2 in ts.tolist()] for t1 in ts.tolist()])
    assert got.tobytes() == grid.tobytes()


def test_echo_symmetric_in_intervals():
    ev = BrownianMatsubara(BATH)
    for t1, t2 in ((0.3, 1.7), (2.0, 0.1), (4.0, 4.0)):
        assert echo_response(ev, t1, t2) == echo_response(ev, t2, t1)


def test_zero_second_interval_reduces_to_free_decay():
    ev = BrownianMatsubara(BATH)
    sys0 = SystemParams(epsilon=0.0)
    for t in (0.5, 1.0, 3.0):
        r = echo_response(ev, t, 0.0)
        assert r == pytest.approx(complex(np.exp(-ev.g(t))), rel=1e-13)
        free = propagate_single(STATE, sys0, ev, t)
        assert abs(r) == pytest.approx(abs(free.c12) / abs(STATE.c12), rel=1e-13)


def test_echo_ridge_peaks_at_frozen_root():
    ev = BrownianMatsubara(BATH)
    peak = abs(echo_response(ev, 1.0, RIDGE_T2))
    assert abs(echo_response(ev, 1.0, RIDGE_T2 - 1e-3)) < peak
    assert abs(echo_response(ev, 1.0, RIDGE_T2 + 1e-3)) < peak


def test_hot_peak_height_closed_form():
    # exponent at the peak from the closed-form lineshape alone
    ht = HighTemperatureBrownian(BATH)
    eta, gamma, beta = BATH.eta, BATH.gamma, BATH.beta
    t2 = 2.0 * math.log(2.0 - math.exp(-gamma * 1.0))

    def g_re(t):
        return 2.0 * eta / (beta * gamma**2) * (math.expm1(-gamma * t) + gamma * t)

    e_star = 2.0 * g_re(1.0) + 2.0 * g_re(t2) - g_re(1.0 + t2)
    assert abs(echo_response(ht, 1.0, t2)) == pytest.approx(math.exp(-e_star), rel=1e-12)


def test_asymptotic_echo_decay_rate():
    # for large t2 the kernel decays at the stationary dephasing rate
    ev = BrownianMatsubara(BATH)
    t2 = np.linspace(10.0, 20.0, 40)
    logs = [math.log(abs(echo_response(ev, 1.0, float(t)))) for t in t2]
    slope = np.polyfit(t2, logs, 1)[0]
    rate = 2.0 * BATH.eta / (BATH.beta * BATH.gamma)
    assert slope == pytest.approx(-rate, rel=1e-2)


def test_echo_kernel_does_not_factorize():
    # a memoryless kernel would make this log cross-ratio vanish
    ev = BrownianMatsubara(BATH)
    a, b, c, d = 0.5, 1.5, 1.0, 0.7
    cross = (
        np.log(echo_response(ev, a, b))
        + np.log(echo_response(ev, c, d))
        - np.log(echo_response(ev, a, d))
        - np.log(echo_response(ev, c, b))
    )
    assert abs(cross) > 1e-2


def test_linear_response_phase_and_decay():
    # the one-interval kernel e^{-i eps t - g(t)}, applied to c12 = <1|rho|2> as its conjugate
    ev = BrownianMatsubara(BATH)
    t = 1.3
    bare = propagate_single(STATE, SystemParams(epsilon=0.0), ev, t).c12
    split = propagate_single(STATE, SystemParams(epsilon=2.0), ev, t).c12
    assert split == pytest.approx(bare * np.exp(2j * t), rel=1e-13)
    assert abs(bare) == pytest.approx(abs(STATE.c12) * math.exp(-ev.g(t).real), rel=1e-13)
    assert bare == pytest.approx(STATE.c12 * np.exp(-np.conj(ev.g(t))), rel=1e-13)


def test_negative_times_rejected():
    ev = HighTemperatureBrownian(BATH)
    with pytest.raises(ValueError):
        echo_response(ev, -0.1, 1.0)
    with pytest.raises(ValueError):
        echo_response(ev, 1.0, -0.1)
    with pytest.raises(ValueError):
        flip_exponent_grid(ev, [0.0, -1.0])


def test_cmath_exp_has_numpy_exp_bits():
    # echo_response and dynamics._kernel take cmath.exp of one Python complex, where they took complex(np.exp(z))
    rng = np.random.default_rng(1606)
    n = 100_000
    zs = (rng.uniform(-50.0, 5.0, n) + 1j * rng.uniform(-100.0, 100.0, n)).tolist()
    # signed zeros, subnormal and tiny phases, multiples of pi, and magnitudes down to underflow and up to e^708
    zs += [
        complex(re, im)
        for re in (-760.0, -745.0, -708.0, -50.0, -0.0, 0.0, 5.0, 700.0, 708.0)
        for im in (0.0, -0.0, 5e-324, -1e-300, 1.0, math.pi, -math.pi, 100.0, -100.0)
    ]
    got = np.array([cmath.exp(z) for z in zs])
    want = np.array([complex(np.exp(z)) for z in zs])
    assert got.tobytes() == want.tobytes()


class _GrowingBath:
    """g(t) = -400 t, so the flip exponent 2 g(t1) + 2 g(t2) - g(t1 + t2) is -400 (t1 + t2)."""

    def g(self, t):
        return -400.0 * np.asarray(t, dtype=complex)


def test_exp_overflow_raises_where_numpy_returned_inf():
    z = complex(710.0, 1.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cmath.isinf(complex(np.exp(z)))
    with pytest.raises(OverflowError):
        cmath.exp(z)
    # |R| = e^800: an error, where np.exp gave inf behind a RuntimeWarning
    with pytest.raises(OverflowError):
        echo_response(_GrowingBath(), 1.0, 1.0)
    with pytest.raises(OverflowError):
        two_time_map(SystemParams(), _GrowingBath(), coherence_flip(), 1.0, 1.0)
    assert abs(echo_response(_GrowingBath(), 0.5, 0.5)) == pytest.approx(math.exp(400.0), rel=1e-15)
