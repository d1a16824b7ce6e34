"""Trace-distance dynamics and the non-Markovianity of pure dephasing.

For a pair of qubit states evolving under the same dephasing channel the
trace distance is

    D(t) = sqrt(dp^2 + |dc|^2 e^{-2 E(t)}),

with dp, dc the initial population and coherence differences and E(t)
the decay exponent of the channel:

  * one free interval:          E(t) = Re g(t)
  * flip at the junction after
    a preparation interval t1:  E(t) = Re flip_exponent(g(t1), g(t), g(t1+t))

The second form can decrease in t (the bath rephases the coherence it
just dephased), so D can grow: that is the memory effect measured here.
The measure integrates sigma = dD/dt over the regions where it is
positive, which by the formula above are exactly the regions where
E decreases, independent of the pair as long as dc != 0.  The antipodal
equatorial pair (p = 1/2, c = +-1/2) maximizes every interval's gain
simultaneously (dp = 0 and |dc| = 1 are both extremal), so its value is
the measure itself; a brute-force pair grid is provided as a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephasing import _check_time, flip_exponent
from .dynamics import DensityMatrix2, SystemParams

__all__ = [
    "AnalyticPair",
    "GridSearch",
    "GrowthInterval",
    "NonMarkovResult",
    "Prepared",
    "SingleTime",
    "StatePair",
    "decay_exponent",
    "decay_exponent_rate",
    "growth_intervals",
    "non_markovianity",
    "pair_distance",
    "sigma",
]


# rows of the pair table built at once by the grid search
_CHUNK = 128


@dataclass(frozen=True)
class StatePair:
    a: DensityMatrix2
    b: DensityMatrix2


@dataclass(frozen=True)
class SingleTime:
    """One free interval starting from the initial states."""


@dataclass(frozen=True)
class Prepared:
    """Free interval of length t1, coherence flip, then the scanned interval."""

    t1: float

    def __post_init__(self):
        _check_time(self.t1)


def analytic_pair() -> StatePair:
    """The maximizing pair: equal populations, antipodal unit coherence difference."""
    return StatePair(DensityMatrix2(0.5, 0.5 + 0j), DensityMatrix2(0.5, -0.5 + 0j))


def decay_exponent(evaluator, scenario, t: float) -> float:
    """E(t) such that the coherence difference shrinks by e^{-E(t)}."""
    t = _check_time(t)
    if isinstance(scenario, SingleTime):
        return evaluator.g(t).real
    if isinstance(scenario, Prepared):
        t1 = scenario.t1
        return flip_exponent(evaluator.g(t1), evaluator.g(t), evaluator.g(t1 + t)).real
    raise TypeError(f"unknown scenario {scenario!r}")


def decay_exponent_rate(evaluator, scenario, t: float) -> float:
    """dE/dt of decay_exponent; negative values mark rephasing."""
    t = _check_time(t)
    if isinstance(scenario, SingleTime):
        return evaluator.gdot(t).real
    if isinstance(scenario, Prepared):
        return 2.0 * evaluator.gdot(t).real - evaluator.gdot(scenario.t1 + t).real
    raise TypeError(f"unknown scenario {scenario!r}")


def pair_distance(pair: StatePair, evaluator, scenario, t: float) -> float:
    """Trace distance of the propagated pair at time t into the scanned interval."""
    dp = pair.a.p11 - pair.b.p11
    dc = pair.a.c12 - pair.b.c12
    e = decay_exponent(evaluator, scenario, t)
    return math.sqrt(dp * dp + abs(dc) ** 2 * math.exp(-2.0 * e))


def sigma(pair: StatePair, evaluator, scenario, t: float) -> float:
    """Time derivative of the pair trace distance.

    The level splitting only rotates the coherence phase, which drops out
    of the distance, so no system parameters enter.
    """
    dp = pair.a.p11 - pair.b.p11
    dc2 = abs(pair.a.c12 - pair.b.c12) ** 2
    if dc2 == 0.0:
        return 0.0
    e = decay_exponent(evaluator, scenario, t)
    rate = decay_exponent_rate(evaluator, scenario, t)
    weight = dc2 * math.exp(-2.0 * e)
    d = math.sqrt(dp * dp + weight)
    if d == 0.0:
        return 0.0
    return -rate * weight / d


@dataclass(frozen=True)
class GrowthInterval:
    """Maximal interval on which the pair trace distance increases."""

    t_start: float
    t_end: float
    delta_d: float


@dataclass(frozen=True)
class AnalyticPair:
    """Use the closed-form maximizer (p = 1/2, c = +-1/2)."""


@dataclass(frozen=True)
class GridSearch:
    """Brute-force maximization over a grid of state pairs.

    Populations on a uniform grid, coherence magnitude as a fraction of
    the positivity bound, phases uniform on the circle.  Exists to verify
    the analytic maximizer, not to beat it.
    """

    n_population: int = 50
    n_coherence: int = 50
    n_phase: int = 8


@dataclass(frozen=True)
class NonMarkovResult:
    n_value: float
    intervals: tuple
    pair: StatePair
    scenario: object
    t_max: float
    truncated: bool
    search: str


def _bisect_sign_change(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Root of f in [lo, hi] given a sign change, bisected to width tol."""
    neg_lo = f_lo < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _growth_runs(evaluator, scenario, t_max: float, n_scan: int, refine_tol: float):
    """Maximal (start, end) regions with dE/dt < 0, plus a truncation flag.

    Grid scan for sign changes followed by bisection of each crossing.
    Points where the rate is exactly zero count as non-growth, so grazing
    contacts contribute nothing.
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError("t_max must be positive and finite")
    if n_scan < 10:
        raise ValueError("n_scan must be at least 10")
    ts = np.linspace(0.0, t_max, n_scan + 1)
    rate = np.array([decay_exponent_rate(evaluator, scenario, float(t)) for t in ts])
    neg = rate < 0.0

    f = lambda t: decay_exponent_rate(evaluator, scenario, t)
    runs = []
    i = 0
    while i <= n_scan:
        if not neg[i]:
            i += 1
            continue
        j = i
        while j + 1 <= n_scan and neg[j + 1]:
            j += 1
        if i == 0:
            start = 0.0
        else:
            start = _bisect_sign_change(f, ts[i - 1], ts[i], rate[i - 1], refine_tol)
        if j == n_scan:
            end = t_max
        else:
            end = _bisect_sign_change(f, ts[j], ts[j + 1], rate[j], refine_tol)
        runs.append((start, end))
        i = j + 1
    truncated = bool(neg[-1])
    return runs, truncated


def _weights(evaluator, scenario, runs):
    """e^{-2E} at the ends and at the starts of the growth runs."""
    w_end = [math.exp(-2.0 * decay_exponent(evaluator, scenario, e)) for _, e in runs]
    w_start = [math.exp(-2.0 * decay_exponent(evaluator, scenario, s)) for s, _ in runs]
    return w_end, w_start


def _gain(dp2, dc2, w_end, w_start):
    """Distance gained over one interval, sqrt(dp^2 + dc^2 w_end) - sqrt(dp^2 + dc^2 w_start).

    Elementwise on scalars and arrays (dp2, dc2 may be pair tables).
    """
    return np.sqrt(dp2 + dc2 * w_end) - np.sqrt(dp2 + dc2 * w_start)


def _total_gain(dp2, dc2, w_end, w_start):
    """Sum of _gain over one or more intervals, accumulated in place in interval order."""
    total = _gain(dp2, dc2, w_end[0], w_start[0])
    for a, b in zip(w_end[1:], w_start[1:]):
        total += _gain(dp2, dc2, a, b)
    return total


def _growth_records(runs, pair: StatePair, w_end, w_start) -> tuple:
    """GrowthInterval records of the runs with the distance gained by pair."""
    dp = pair.a.p11 - pair.b.p11
    dc2 = abs(pair.a.c12 - pair.b.c12) ** 2
    return tuple(
        GrowthInterval(s, e, float(_gain(dp * dp, dc2, a, b)))
        for (s, e), a, b in zip(runs, w_end, w_start)
    )


def growth_intervals(
    evaluator,
    scenario,
    t_max: float,
    pair: StatePair | None = None,
    n_scan: int = 10000,
    refine_tol: float = 1e-10,
):
    """Growth intervals of the pair trace distance on (0, t_max).

    Returns GrowthInterval records carrying the distance gained by the
    given pair (the analytic maximizer by default) over each interval.
    """
    runs, _ = _growth_runs(evaluator, scenario, t_max, n_scan, refine_tol)
    records = _growth_records(runs, pair or analytic_pair(), *_weights(evaluator, scenario, runs))
    return list(records)


def _grid_states(search: GridSearch):
    p = np.linspace(0.0, 1.0, search.n_population)
    # stay strictly inside the positivity bound so state construction
    # cannot trip the roundoff clamp at |c|^2 = p(1-p)
    frac = np.linspace(0.0, 1.0, search.n_coherence) * (1.0 - 1e-12)
    phase = np.linspace(0.0, 2.0 * math.pi, search.n_phase, endpoint=False)
    pp, ff, hh = np.meshgrid(p, frac, phase, indexing="ij")
    pf = pp.ravel()
    cf = ff.ravel() * np.sqrt(pf * (1.0 - pf)) * np.exp(1j * hh.ravel())
    return pf, cf


def _grid_search(search: GridSearch, weights_end, weights_start):
    """Maximize the summed interval gains over all grid state pairs.

    weights_end/weights_start are e^{-2E} at the interval endpoints.
    Chunked so the pairwise difference tables stay modest in memory.
    """
    pf, cf = _grid_states(search)
    best = -np.inf
    best_ij = (0, 0)
    n = pf.size
    for i0 in range(0, n, _CHUNK):
        sl = slice(i0, min(i0 + _CHUNK, n))
        dp2 = (pf[sl, None] - pf[None, :]) ** 2
        dc2 = np.abs(cf[sl, None] - cf[None, :]) ** 2
        gain = _total_gain(dp2, dc2, weights_end, weights_start)
        k = int(np.argmax(gain))
        if gain.flat[k] > best:
            best = float(gain.flat[k])
            best_ij = (i0 + k // n, k % n)
        # free this chunk's tables before the next chunk builds its own
        del dp2, dc2, gain
    ia, ib = best_ij
    pair = StatePair(
        DensityMatrix2(float(pf[ia]), complex(cf[ia])),
        DensityMatrix2(float(pf[ib]), complex(cf[ib])),
    )
    return best, pair


def non_markovianity(
    system: SystemParams,
    evaluator,
    scenario,
    t_max: float | None = None,
    search=None,
    n_scan: int = 10000,
    refine_tol: float = 1e-10,
) -> NonMarkovResult:
    """Summed trace-distance gains over all growth intervals in (0, t_max).

    t_max defaults to ten bath memory times (10 / gamma) when the
    evaluator carries Brownian bath parameters.  search selects the pair:
    AnalyticPair (default) uses the closed-form maximizer, GridSearch
    scans a discrete family and returns its best pair, which can only
    approach the analytic value from below.  The level splitting in
    system drops out of the distance.
    """
    if search is None:
        search = AnalyticPair()
    if not isinstance(search, (AnalyticPair, GridSearch)):
        raise TypeError(f"unknown search strategy {search!r}")
    if t_max is None:
        if getattr(evaluator, "bath", None) is None:
            raise ValueError("t_max is required when the evaluator has no bath parameters")
        t_max = 10.0 / evaluator.bath.gamma
    runs, truncated = _growth_runs(evaluator, scenario, t_max, n_scan, refine_tol)
    label = "grid" if isinstance(search, GridSearch) else "analytic"

    if not runs:
        return NonMarkovResult(0.0, (), analytic_pair(), scenario, t_max, truncated, label)

    w_end, w_start = _weights(evaluator, scenario, runs)
    if isinstance(search, GridSearch):
        n_value, pair = _grid_search(search, w_end, w_start)
    else:
        pair = analytic_pair()
        n_value = _total_gain(0.0, 1.0, w_end, w_start)
    intervals = _growth_records(runs, pair, w_end, w_start)
    return NonMarkovResult(float(n_value), intervals, pair, scenario, t_max, truncated, label)
