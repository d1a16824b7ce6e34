"""States, superoperators, one- and two-interval propagation, trace distance."""

import math
import warnings

import numpy as np
import pytest

from dephaser import dynamics
from dephaser.dephasing import BrownianMatsubara, HighTemperatureBrownian, flip_exponent
from dephaser.dynamics import (
    DensityMatrix2,
    LiouvilleOp,
    SystemParams,
    _kernel,
    coherence_flip,
    identity_op,
    propagate_single,
    propagate_two_time,
    trace_distance,
    trace_distance_eigen,
    two_time_map,
)
from dephaser.errors import SuperoperatorError
from dephaser.response import echo_response
from dephaser.spectral import BathParams

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)
SYS = SystemParams(epsilon=2.0)

# Re g(T_HALF) = ln 2 for the bath above; root of the resummed series,
# cross-checked against the frequency-domain engine to 8e-16.
T_HALF = 0.86020006940684646


def random_state(rng):
    p = rng.uniform(0.0, 1.0)
    mag = math.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 1.0)
    return DensityMatrix2(p, mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def test_state_validation_and_derived_population():
    st = DensityMatrix2(0.3, 0.2 + 0.1j)
    assert st.p22 == pytest.approx(0.7)
    with pytest.raises(ValueError):
        DensityMatrix2(1.5, 0.0)
    with pytest.raises(ValueError):
        DensityMatrix2(-0.2, 0.0)
    with pytest.raises(ValueError):
        DensityMatrix2(0.5, 0.6)  # |c| above the positivity bound
    with pytest.raises(ValueError):
        DensityMatrix2(math.nan, 0.0)


def test_state_roundoff_is_clamped_with_warning():
    with pytest.warns(UserWarning):
        st = DensityMatrix2(0.5, 0.5 + 1e-12)
    assert abs(st.c12) <= 0.5
    with pytest.warns(UserWarning):
        st = DensityMatrix2(-1e-12, 0.0)
    assert st.p11 == 0.0


def test_state_vector_roundtrip():
    st = DensityMatrix2(0.3, 0.2 - 0.1j)
    v = st.to_vector()
    assert v[0] == 0.3 and v[3] == pytest.approx(0.7)
    assert v[2] == np.conj(v[1])
    back = DensityMatrix2.from_vector(v)
    assert back.p11 == st.p11 and back.c12 == st.c12
    m = st.as_matrix()
    assert m[0, 1] == st.c12 and m[1, 0] == np.conj(st.c12)
    assert np.trace(m) == pytest.approx(1.0)


def test_from_vector_rejects_malformed_input():
    with pytest.raises(ValueError):
        DensityMatrix2.from_vector([0.3, 0.1, 0.1j, 0.8])  # trace 1.1
    with pytest.raises(ValueError):
        DensityMatrix2.from_vector([0.5, 0.1 + 0.2j, 0.1 + 0.2j, 0.5])  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix2.from_vector([0.5, 0.0, 0.0])


def test_propagate_single_freezes_populations_and_dephases():
    ev = BrownianMatsubara(BATH)
    st = DensityMatrix2(0.3, 0.25 * np.exp(0.4j))
    t = 1.3
    out = propagate_single(st, SYS, ev, t)
    assert out.p11 == st.p11
    g = ev.g(t)
    expected = st.c12 * np.exp(1j * SYS.epsilon * t - np.conj(g))
    assert out.c12 == pytest.approx(expected, rel=1e-14)
    assert abs(out.c12) / abs(st.c12) == pytest.approx(math.exp(-g.real), rel=1e-14)


def test_half_life_of_coherence():
    ev = BrownianMatsubara(BATH)
    assert ev.g(T_HALF).real == pytest.approx(math.log(2.0), rel=1e-12)
    st = DensityMatrix2(0.5, 0.5 + 0j)
    out = propagate_single(st, SYS, ev, T_HALF)
    assert abs(out.c12) == pytest.approx(0.25, rel=1e-12)


def test_liouville_validation():
    identity_op()
    coherence_flip()
    bad_trace = np.eye(4, dtype=complex)
    bad_trace[0, 0] = 0.5  # loses population weight
    with pytest.raises(SuperoperatorError):
        LiouvilleOp(bad_trace)
    bad_herm = np.eye(4, dtype=complex)
    bad_herm[1, 1] = 1.0j  # coherence rows no longer conjugate partners
    with pytest.raises(SuperoperatorError):
        LiouvilleOp(bad_herm)
    with pytest.raises(SuperoperatorError):
        LiouvilleOp(np.eye(3))


def test_liouville_rejects_non_finite_entries():
    # a nan defect compares False against the tolerance, so it must not reach those checks
    with pytest.raises(SuperoperatorError, match="finite"):
        LiouvilleOp(np.full((4, 4), np.nan))
    for i in range(4):
        for j in range(4):
            for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)):
                m = np.eye(4, dtype=complex)
                m[i, j] = bad
                with pytest.raises(SuperoperatorError, match="finite"):
                    LiouvilleOp(m)


def _perturbed_identity(entries):
    m = np.eye(4, dtype=complex)
    for (i, j), d in entries:
        m[i, j] += d
    return m


# each checked entry of a 4x4 map and perturbations of the identity that give it a defect of d.  A trace
# column is checked first, so its message names it even where keeping m[0, 2] = conj(m[0, 1]) and the
# other column's trace costs a hermiticity defect.  The population rows' hermiticity entries come in pairs
# of equal defect, which the trace check ties together.
_TRACE_DEFECTS = {
    f"trace column {j}": (lambda d, j=j: [((0, j), d)] + ([((0, 3 - j), d), ((3, 3 - j), -d)] if j in (1, 2) else []))
    for j in range(4)
}
_HERM_DEFECTS = {
    **{f"m[2, {j}] vs conj(m[1, {k}])": (lambda d, j=j: [((2, j), d)]) for j, k in ((0, 0), (1, 2), (2, 1), (3, 3))},
    "Im m[0, 0] and Im m[3, 0]": lambda d: [((0, 0), 1j * d), ((3, 0), -1j * d)],
    "Im m[0, 3] and Im m[3, 3]": lambda d: [((0, 3), 1j * d), ((3, 3), -1j * d)],
    "m[0, 2] vs conj(m[0, 1]) and m[3, 2] vs conj(m[3, 1])": lambda d: [((0, 2), d), ((3, 2), -d)],
}


@pytest.mark.parametrize(
    "entries, message",
    [(f, "trace preserving") for f in _TRACE_DEFECTS.values()] + [(f, "hermiticity") for f in _HERM_DEFECTS.values()],
    ids=[*_TRACE_DEFECTS, *_HERM_DEFECTS],
)
def test_liouville_tolerance_at_each_checked_entry(entries, message):
    LiouvilleOp(_perturbed_identity(entries(0.5e-12)))
    with pytest.raises(SuperoperatorError, match=message):
        LiouvilleOp(_perturbed_identity(entries(2e-12)))


def test_from_vector_tolerance_at_each_checked_entry():
    base = np.array([0.5, 0.25j, -0.25j, 0.5])
    scale = 1.0 + abs(base[1])  # the hermiticity bound is relative to 1 + |v[1]|
    for entries, message in (
        ([(0, 1.0)], "trace"),
        ([(3, 1.0)], "trace"),
        ([(2, scale)], "hermitian"),
        ([(0, 1j), (3, -1j)], "imaginary"),
    ):
        for d, ok in ((0.5e-12, True), (2e-12, False)):
            v = base.copy()
            for k, unit in entries:
                v[k] += d * unit
            if ok:
                DensityMatrix2.from_vector(v)
            else:
                with pytest.raises(ValueError, match=message):
                    DensityMatrix2.from_vector(v)


def test_liouville_matrix_is_readonly():
    op = identity_op()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_coherence_flip_is_an_involution():
    f = coherence_flip()
    assert np.array_equal(f.matrix @ f.matrix, np.eye(4))
    st = DensityMatrix2(0.3, 0.2 + 0.1j)
    flipped = f(st)
    assert flipped.p11 == st.p11
    assert flipped.c12 == np.conj(st.c12)


def test_two_time_kernels_identities():
    # |2><1| amplitudes of the two-interval map: kept through the junction
    # (row 2, column 2 for the identity) and flipped (row 1, column 2)
    ev = BrownianMatsubara(BATH)
    t1, t2 = 0.7, 1.9
    keep = two_time_map(SYS, ev, identity_op(), t1, t2).matrix
    fused = two_time_map(SYS, ev, identity_op(), t1 + t2, 0.0).matrix
    assert keep[2, 2] == fused[2, 2]
    single = two_time_map(SYS, ev, identity_op(), 0.0, t2).matrix
    flip_now = two_time_map(SYS, ev, coherence_flip(), 0.0, t2).matrix
    assert flip_now[1, 2] == pytest.approx(single[2, 2], rel=1e-14)
    flip = two_time_map(SYS, ev, coherence_flip(), t1, t2).matrix
    expo = 2.0 * ev.g(t1).real + 2.0 * ev.g(t2).real - ev.g(t1 + t2).real
    assert abs(flip[1, 2]) == pytest.approx(math.exp(-expo), rel=1e-14)
    assert flip[2, 1] == np.conj(flip[1, 2])


def _numpy_scalar_map(system, g, uprime, t1, t2):
    """The two-interval map built from numpy scalars (np.conj, u[i, j]) and g = (g(t1), g(t2), g(t1 + t2)), the
    reference for two_time_map's bits."""
    g1, g2, g12 = g
    eps = system.epsilon
    k1 = _kernel(eps, t1, g1)
    k2 = _kernel(eps, t2, g2)
    kk = _kernel(eps, t1 + t2, g12)
    kf = _kernel(eps, t2 - t1, flip_exponent(g1, g2, g12))
    u = uprime.matrix
    return np.array(
        [
            [u[0, 0], np.conj(k1) * u[0, 1], k1 * u[0, 2], u[0, 3]],
            [np.conj(k2) * u[1, 0], np.conj(kk) * u[1, 1], kf * u[1, 2], np.conj(k2) * u[1, 3]],
            [k2 * u[2, 0], np.conj(kf) * u[2, 1], kk * u[2, 2], k2 * u[2, 3]],
            [u[3, 0], np.conj(k1) * u[3, 1], k1 * u[3, 2], u[3, 3]],
        ]
    )


def random_junction(rng):
    """A 4x4 map that is trace preserving and hermiticity preserving, with general complex entries."""
    a, c = rng.uniform(0.0, 1.0, 2)
    b, p, q, r, s = (complex(*rng.normal(size=2)) for _ in range(5))
    return LiouvilleOp(
        [
            [a, b, b.conjugate(), c],
            [p, q, r, s],
            [p.conjugate(), r.conjugate(), q.conjugate(), s.conjugate()],
            [1.0 - a, -b, -b.conjugate(), 1.0 - c],
        ]
    )


def test_two_time_map_matches_the_numpy_scalar_build_bit_for_bit():
    ev = BrownianMatsubara(BATH)
    rng = np.random.default_rng(29)
    junctions = [identity_op(), coherence_flip()] + [random_junction(rng) for _ in range(3)]
    times = [(0.0, 0.0), (0.0, 1.1), (2.3, 0.0)] + [tuple(rng.uniform(0.0, 5.0, 2)) for _ in range(10)]
    for eps in (0.0, 2.0, -0.7):
        system = SystemParams(eps)
        for uprime in junctions:
            for t1, t2 in times:
                got = two_time_map(system, ev, uprime, t1, t2).matrix
                want = _numpy_scalar_map(system, ev.g(np.array([t1, t2, t1 + t2])).tolist(), uprime, t1, t2)
                assert got.tobytes() == want.tobytes()


def test_identity_junction_composes_exactly():
    ev = BrownianMatsubara(BATH)
    rng = np.random.default_rng(11)
    for _ in range(30):
        t1, t2 = rng.uniform(0.0, 5.0, 2)
        st = random_state(rng)
        via = propagate_two_time(st, SYS, ev, identity_op(), t1, t2)
        direct = propagate_single(st, SYS, ev, t1 + t2)
        assert np.max(np.abs(via.to_vector() - direct.to_vector())) < 1e-12


def test_flip_junction_with_no_preparation():
    # t1 = 0: the flip acts on the fresh state, then one free interval
    ev = BrownianMatsubara(BATH)
    st = DensityMatrix2(0.4, 0.3 * np.exp(0.7j))
    t2 = 1.1
    out = propagate_two_time(st, SYS, ev, coherence_flip(), 0.0, t2)
    k_flip = np.exp(-1j * SYS.epsilon * t2) * echo_response(ev, 0.0, t2)
    assert out.c12 == pytest.approx(k_flip * np.conj(st.c12), rel=1e-13)
    assert abs(out.c12) == pytest.approx(abs(st.c12) * math.exp(-ev.g(t2).real), rel=1e-13)


def test_flip_junction_rephases():
    # after the flip the coherence magnitude recovers beyond its value at
    # the junction: the bath undoes part of the earlier dephasing
    ev = BrownianMatsubara(BATH)
    st = DensityMatrix2(0.5, 0.5 + 0j)
    t1 = 1.0
    at_junction = propagate_two_time(st, SYS, ev, coherence_flip(), t1, 0.0)
    later = propagate_two_time(st, SYS, ev, coherence_flip(), t1, 0.62)
    assert abs(later.c12) > abs(at_junction.c12)


def test_two_time_map_validates_as_superoperator():
    ev = BrownianMatsubara(BATH)
    op = two_time_map(SYS, ev, coherence_flip(), 0.8, 1.4)
    m = op.matrix
    # populations ride through untouched
    assert m[0, 0] == 1.0 and m[3, 3] == 1.0
    assert m[0, 1] == 0.0 and m[3, 1] == 0.0


class _NanBath:
    """An evaluator whose g is nan at every time."""

    def g(self, t):
        return np.full(np.shape(t), complex(math.nan, 0.0))


def test_two_time_map_runs_the_map_checks_on_the_rows_it_builds(monkeypatch):
    for uprime in (identity_op(), coherence_flip()):
        with pytest.raises(SuperoperatorError, match="^map entries must be finite$"):
            two_time_map(SYS, _NanBath(), uprime, 0.5, 1.0)
    # its rows are Python complex numbers already, so only a matrix from outside is converted (_complex_rows)
    ev, flip, converted = BrownianMatsubara(BATH), coherence_flip(), []
    rows = dynamics._complex_rows
    monkeypatch.setattr(dynamics, "_complex_rows", lambda m: converted.append(m) or rows(m))
    two_time_map(SYS, ev, flip, 0.5, 1.0)
    assert converted == []
    LiouvilleOp(np.eye(4))
    assert len(converted) == 1


def _identity_rows_with(i, j, value):
    rows = np.eye(4).tolist()
    rows[i][j] = value
    return rows


# matrices from outside that _complex_rows cannot convert entry by entry, with what LiouvilleOp raises for them
_MALFORMED = {
    "rows of three": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], SuperoperatorError, "^expected a 4x4 matrix$"),
    "three rows": (np.eye(4)[:3].tolist(), SuperoperatorError, "^expected a 4x4 matrix$"),
    "ragged": ([[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ValueError, "inhomogeneous"),
    "nested entry": (_identity_rows_with(0, 0, [1.0]), ValueError, "inhomogeneous"),
    "string": (_identity_rows_with(0, 0, "a"), ValueError, "malformed string"),
    "None": (_identity_rows_with(1, 2, None), SuperoperatorError, "^map entries must be finite$"),
    "nan": (_identity_rows_with(1, 2, math.nan), SuperoperatorError, "^map entries must be finite$"),
    "int past the floats": (_identity_rows_with(0, 0, 10**400), OverflowError, "too large"),
    "3-d array": (np.zeros((4, 4, 1)), SuperoperatorError, "^expected a 4x4 matrix$"),
    "array with inf": (np.where(np.eye(4) > 0, np.inf, 0.0), SuperoperatorError, "^map entries must be finite$"),
}


@pytest.mark.parametrize("matrix, error, message", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_liouville_rejects_malformed_matrices(matrix, error, message):
    with pytest.raises(error, match=message):
        LiouvilleOp(matrix)


def test_propagated_states_stay_physical():
    ev = BrownianMatsubara(BATH)
    rng = np.random.default_rng(23)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary states may clamp at roundoff
        for _ in range(50):
            st = random_state(rng)
            t1, t2 = rng.uniform(0.0, 4.0, 2)
            out = propagate_two_time(st, SYS, ev, coherence_flip(), t1, t2)
            assert 0.0 <= out.p11 <= 1.0
            assert abs(out.c12) ** 2 <= out.p11 * out.p22 + 1e-15


def test_trace_distance_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_state(rng), random_state(rng)
        assert abs(trace_distance(a, b) - trace_distance_eigen(a, b)) < 1e-12


def test_trace_distance_metric_axioms():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b, c = (random_state(rng) for _ in range(3))
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert dab == dba
        assert dab >= 0.0
        assert trace_distance(a, a) == 0.0
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def test_distance_insensitive_to_level_splitting():
    ev = HighTemperatureBrownian(BATH)
    a = DensityMatrix2(0.5, 0.5 + 0j)
    b = DensityMatrix2(0.5, -0.5 + 0j)
    d0 = trace_distance(
        propagate_single(a, SystemParams(0.0), ev, 1.2),
        propagate_single(b, SystemParams(0.0), ev, 1.2),
    )
    d3 = trace_distance(
        propagate_single(a, SystemParams(3.0), ev, 1.2),
        propagate_single(b, SystemParams(3.0), ev, 1.2),
    )
    assert d0 == pytest.approx(d3, abs=1e-15)


def test_negative_intervals_rejected():
    ev = HighTemperatureBrownian(BATH)
    st = DensityMatrix2(0.5, 0.0)
    with pytest.raises(ValueError):
        propagate_single(st, SYS, ev, -1.0)
    with pytest.raises(ValueError):
        propagate_two_time(st, SYS, ev, identity_op(), -0.1, 1.0)
    with pytest.raises(ValueError):
        propagate_two_time(st, SYS, ev, identity_op(), 1.0, -0.1)
