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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dephasing import _check_time, flip_exponent
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
        return np.array([self.p11, self.c12, np.conj(self.c12), self.p22], dtype=complex)

    @classmethod
    def from_vector(cls, v) -> "DensityMatrix2":
        v = np.asarray(v, dtype=complex)
        if v.shape != (4,):
            raise ValueError("expected a length-4 Liouville vector")
        if abs(v[0] + v[3] - 1.0) > _MAP_TOL:
            raise ValueError(f"vector trace {v[0] + v[3]:.17g} is not 1")
        if abs(v[2] - np.conj(v[1])) > _MAP_TOL * (1.0 + abs(v[1])):
            raise ValueError("vector is not hermitian: v[2] != conj(v[1])")
        if abs(v[0].imag) > _MAP_TOL:
            raise ValueError("population entry has an imaginary part")
        return cls(v[0].real, complex(v[1]))

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.p11, self.c12], [np.conj(self.c12), self.p22]], dtype=complex
        )


class LiouvilleOp:
    """A 4x4 map on Liouville vectors, validated at construction.

    Trace preservation: each column of the population rows sums to the
    trace of the corresponding basis element.  Hermiticity propagation:
    the |2><1| row is the conjugate of the |1><2| row with the coherence
    columns swapped, and the population rows map hermitian inputs to real
    outputs.  Violations beyond 1e-12 raise SuperoperatorError.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise SuperoperatorError("expected a 4x4 matrix")
        trace_in = np.array([1.0, 0.0, 0.0, 1.0])
        col_tr = m[0] + m[3]
        if np.max(np.abs(col_tr - trace_in)) > _MAP_TOL:
            raise SuperoperatorError(
                f"map is not trace preserving (max defect {np.max(np.abs(col_tr - trace_in)):.3e})"
            )
        herm_defect = max(
            abs(m[2, 0] - np.conj(m[1, 0])),
            abs(m[2, 1] - np.conj(m[1, 2])),
            abs(m[2, 2] - np.conj(m[1, 1])),
            abs(m[2, 3] - np.conj(m[1, 3])),
            abs(m[0, 0].imag),
            abs(m[0, 3].imag),
            abs(m[0, 2] - np.conj(m[0, 1])),
            abs(m[3, 0].imag),
            abs(m[3, 3].imag),
            abs(m[3, 2] - np.conj(m[3, 1])),
        )
        if herm_defect > _MAP_TOL:
            raise SuperoperatorError(
                f"map does not preserve hermiticity (max defect {herm_defect:.3e})"
            )
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def __call__(self, state: DensityMatrix2) -> DensityMatrix2:
        return DensityMatrix2.from_vector(self._matrix @ state.to_vector())


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
    """Coherence amplitude factor e^{-i eps t - expo}."""
    return complex(np.exp(-1j * epsilon * t - expo))


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
    one carries the flip exponent.
    """
    t1 = _check_time(t1)
    t2 = _check_time(t2)
    eps = system.epsilon
    g1, g2, g12 = evaluator.g(t1), evaluator.g(t2), evaluator.g(t1 + t2)
    k1 = _kernel(eps, t1, g1)
    k2 = _kernel(eps, t2, g2)
    kk = _kernel(eps, t1 + t2, g12)
    kf = _kernel(eps, t2 - t1, flip_exponent(g1, g2, g12))
    u = uprime.matrix
    m = np.array(
        [
            [u[0, 0], np.conj(k1) * u[0, 1], k1 * u[0, 2], u[0, 3]],
            [np.conj(k2) * u[1, 0], np.conj(kk) * u[1, 1], kf * u[1, 2], np.conj(k2) * u[1, 3]],
            [k2 * u[2, 0], np.conj(kf) * u[2, 1], kk * u[2, 2], k2 * u[2, 3]],
            [u[3, 0], np.conj(k1) * u[3, 1], k1 * u[3, 2], u[3, 3]],
        ]
    )
    return LiouvilleOp(m)


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
