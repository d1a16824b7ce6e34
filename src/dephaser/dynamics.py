"""Two-level pure-dephasing propagation over one and two time intervals.

States live in the Liouville basis (|1><1|, |1><2|, |2><1|, |2><2|) as
length-4 vectors.  Free evolution over one interval multiplies the
coherences by exp(-i eps t - g(t)) and leaves populations untouched.

For two intervals separated by an instantaneous intervention U' (a
superoperator acting at the junction), the bath memory across the
junction shows up as kernels that depend on both interval lengths:
the |2><1| coherence amplitude either keeps its sense through the
junction, picking up exp(-i eps (t1+t2) - g(t1+t2)), or is flipped by
U', picking up

    exp(-i eps (t2 - t1)) * exp(-flip_exponent(g(t1), g(t2), g(t1+t2))),

the partial rephasing (echo) kernel.  Populations propagate through U'
unchanged by the bath.  trace_distance has a closed form in this basis;
an eigenvalue route is kept alongside as an independent check.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dephasing import _FLOAT_MAX, _check_time, _g_two_interval, flip_exponent
from .errors import SuperoperatorError

POSITIVITY_TOL = 1e-10
_MAP_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Two-level splitting eps (rotating at its own frequency when zero)."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")


@dataclass(frozen=True)
class DensityMatrix2:
    """Qubit state: excited population p11 and coherence c12 = <1|rho|2>.

    Positivity requires |c12|^2 <= p11 (1 - p11).  Violations up to
    POSITIVITY_TOL (roundoff from propagation) are clamped back to the
    physical set with a warning; larger ones raise ValueError.
    """

    p11: float
    c12: complex

    def __post_init__(self):
        p = float(self.p11)
        c = complex(self.c12)
        if not (math.isfinite(p) and math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("state entries must be finite")
        if p < -POSITIVITY_TOL or p > 1.0 + POSITIVITY_TOL:
            raise ValueError(f"population p11 = {p!r} outside [0, 1]")
        if p < 0.0 or p > 1.0:
            warnings.warn("clamping population roundoff onto [0, 1]", stacklevel=3)
            p = min(max(p, 0.0), 1.0)
        bound = p * (1.0 - p)
        mag2 = c.real * c.real + c.imag * c.imag
        if mag2 > bound:
            if mag2 > bound + POSITIVITY_TOL:
                raise ValueError(
                    f"coherence magnitude {math.sqrt(mag2):g} exceeds the positivity "
                    f"bound {math.sqrt(bound):g} for p11 = {p:g}"
                )
            warnings.warn("clamping coherence roundoff onto the positivity bound", stacklevel=3)
            c = c * math.sqrt(bound / mag2) if mag2 > 0.0 else 0j
        object.__setattr__(self, "p11", p)
        object.__setattr__(self, "c12", c)

    @property
    def p22(self) -> float:
        return 1.0 - self.p11

    def to_vector(self) -> np.ndarray:
        return np.array([self.p11, self.c12, self.c12.conjugate(), self.p22], dtype=complex)

    @classmethod
    def from_vector(cls, v) -> "DensityMatrix2":
        v = np.asarray(v, dtype=complex)
        if v.shape != (4,):
            raise ValueError("expected a length-4 Liouville vector")
        return cls._from_entries(*v.tolist())

    @classmethod
    def _from_entries(cls, v0: complex, v1: complex, v2: complex, v3: complex) -> "DensityMatrix2":
        """The state of the Liouville vector (v0, v1, v2, v3) of Python complex numbers, after from_vector's checks."""
        if abs(v0 + v3 - 1.0) > _MAP_TOL:
            raise ValueError(f"vector trace {v0 + v3:.17g} is not 1")
        if abs(v2 - v1.conjugate()) > _MAP_TOL * (1.0 + abs(v1)):
            raise ValueError("vector is not hermitian: v[2] != conj(v[1])")
        if abs(v0.imag) > _MAP_TOL:
            raise ValueError("population entry has an imaginary part")
        return cls(v0.real, v1)

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.p11, self.c12], [np.conj(self.c12), self.p22]], dtype=complex
        )


def _complex_rows(matrix) -> list:
    """The rows of a 4x4 matrix as lists of Python complex numbers, through numpy, which raises its own error for what
    it cannot convert; SuperoperatorError for another shape."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise SuperoperatorError("expected a 4x4 matrix")
    return m.tolist()


class LiouvilleOp:
    """A 4x4 map on Liouville vectors, validated at construction.

    Trace preservation: each column of the population rows sums to the
    trace of the corresponding basis element.  Hermiticity propagation:
    the |2><1| row is the conjugate of the |1><2| row with the coherence
    columns swapped, and the population rows map hermitian inputs to real
    outputs.  Non-finite entries and violations beyond 1e-12 raise
    SuperoperatorError.  The map is kept as its rows of Python complex
    numbers, on which the checks run and which a call applies to a state;
    the read-only ndarray .matrix is built from them where it is read.  A
    matrix passed in is converted to them (_complex_rows); two_time_map's
    rows, built so, take the same checks alone (_from_rows).
    """

    def __init__(self, matrix):
        self._check(_complex_rows(matrix))

    @classmethod
    def _from_rows(cls, rows: list) -> "LiouvilleOp":
        """The map of rows, four lists of four Python complex numbers, with __init__'s checks and no conversion."""
        op = cls.__new__(cls)
        op._check(rows)
        return op

    def _check(self, rows: list) -> None:
        r0, r1, r2, r3 = rows
        # a nan defect compares False below, so non-finite entries are rejected first
        if not all(map(cmath.isfinite, r0 + r1 + r2 + r3)):
            raise SuperoperatorError("map entries must be finite")
        trace_defect = max(
            abs(r0[0] + r3[0] - 1.0), abs(r0[1] + r3[1]), abs(r0[2] + r3[2]), abs(r0[3] + r3[3] - 1.0)
        )
        if trace_defect > _MAP_TOL:
            raise SuperoperatorError(f"map is not trace preserving (max defect {trace_defect:.3e})")
        herm_defect = max(
            abs(r2[0] - r1[0].conjugate()),
            abs(r2[1] - r1[2].conjugate()),
            abs(r2[2] - r1[1].conjugate()),
            abs(r2[3] - r1[3].conjugate()),
            abs(r0[0].imag),
            abs(r0[3].imag),
            abs(r0[2] - r0[1].conjugate()),
            abs(r3[0].imag),
            abs(r3[3].imag),
            abs(r3[2] - r3[1].conjugate()),
        )
        if herm_defect > _MAP_TOL:
            raise SuperoperatorError(
                f"map does not preserve hermiticity (max defect {herm_defect:.3e})"
            )
        self._rows = rows
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = np.array(self._rows, dtype=complex)
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def __call__(self, state: DensityMatrix2) -> DensityMatrix2:
        """The map applied to the state's Liouville vector (p11, c12, conj c12, p22), then from_vector's checks.

        The products and sums run on Python complex numbers, in one order on every machine; numpy's matrix product
        (BLAS) may sum a row in another, and differ by roundoff where a row has more than one nonzero product.
        """
        c12 = state.c12
        v0, v1, v2, v3 = complex(state.p11), c12, c12.conjugate(), complex(state.p22)
        return DensityMatrix2._from_entries(*[a * v0 + b * v1 + c * v2 + d * v3 for a, b, c, d in self._rows])


def identity_op() -> LiouvilleOp:
    return LiouvilleOp(np.eye(4))


def coherence_flip() -> LiouvilleOp:
    """Swap |1><2| and |2><1| while leaving populations alone.

    The junction operation that reverses the sense of the coherence and
    thereby lets the second interval partially undo the first (echo).
    """
    return LiouvilleOp(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _kernel(epsilon: float, t: float, expo) -> complex:
    """Coherence amplitude factor e^{-i eps t - expo}.

    cmath.exp has np.exp's bits over the engines' range; it raises
    OverflowError where the factor overflows (Re expo below about -709.78),
    where np.exp gave inf behind a RuntimeWarning.
    """
    return cmath.exp(-1j * epsilon * t - expo)


def propagate_single(state: DensityMatrix2, system: SystemParams, evaluator, t: float) -> DensityMatrix2:
    """Free evolution for time t; populations frozen, coherence dephased."""
    t = _check_time(t)
    k = _kernel(system.epsilon, t, evaluator.g(t))
    return DensityMatrix2(state.p11, state.c12 * np.conj(k))


def two_time_map(system: SystemParams, evaluator, uprime: LiouvilleOp, t1: float, t2: float) -> LiouvilleOp:
    """Total map for interval t1, junction operation uprime, interval t2.

    Because the bath is not reset at the junction, the result is not a
    composition of single-interval maps: the coherence routes through
    uprime carry kernels depending jointly on t1 and t2.  The |2><1|
    amplitude kept through the junction fuses the intervals; the flipped
    one carries the flip exponent.  The times are checked as echo_response
    checks them, and the 16 entries, built as Python complex numbers, take
    LiouvilleOp's checks without its conversion (LiouvilleOp._from_rows).
    """
    if not (type(t1) is type(t2) is float and 0.0 <= t1 <= _FLOAT_MAX >= t2 >= 0.0):
        t1, t2 = _check_time(t1), _check_time(t2)
    eps = system.epsilon
    g1, g2, g12 = _g_two_interval(evaluator, t1, t2)
    k1 = _kernel(eps, t1, g1)
    k2 = _kernel(eps, t2, g2)
    kk = _kernel(eps, t1 + t2, g12)
    kf = _kernel(eps, t2 - t1, flip_exponent(g1, g2, g12))
    # Python complex products use numpy's formula, so these entries have the bits of numpy scalar products
    k1c, k2c, kkc, kfc = k1.conjugate(), k2.conjugate(), kk.conjugate(), kf.conjugate()
    u0, u1, u2, u3 = uprime._rows
    m = [
        [u0[0], k1c * u0[1], k1 * u0[2], u0[3]],
        [k2c * u1[0], kkc * u1[1], kf * u1[2], k2c * u1[3]],
        [k2 * u2[0], kfc * u2[1], kk * u2[2], k2 * u2[3]],
        [u3[0], k1c * u3[1], k1 * u3[2], u3[3]],
    ]
    return LiouvilleOp._from_rows(m)


def propagate_two_time(
    state: DensityMatrix2,
    system: SystemParams,
    evaluator,
    uprime: LiouvilleOp,
    t1: float,
    t2: float,
) -> DensityMatrix2:
    """Evolve for t1, apply uprime instantaneously, evolve for t2."""
    return two_time_map(system, evaluator, uprime, t1, t2)(state)


def trace_distance(a: DensityMatrix2, b: DensityMatrix2) -> float:
    """D(a, b) = sqrt(dp^2 + |dc|^2) for qubit states (closed form)."""
    dp = a.p11 - b.p11
    dc = a.c12 - b.c12
    return math.sqrt(dp * dp + dc.real * dc.real + dc.imag * dc.imag)


def trace_distance_eigen(a: DensityMatrix2, b: DensityMatrix2) -> float:
    """Trace distance through the eigenvalues of the difference matrix.

    Same quantity as trace_distance; kept as an independent route so the
    closed form stays checkable.
    """
    diff = a.as_matrix() - b.as_matrix()
    ev = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.sum(np.abs(ev)))
