"""Trace-distance dynamics and the non-Markovianity of pure dephasing.

For a pair of qubit states evolving under the same dephasing channel the
trace distance is

    D(t) = sqrt(dp^2 + |dc|^2 e^{-2 E(t)}),

with dp, dc the initial population and coherence differences and E(t)
the decay exponent of the channel after a preparation interval t1 and a
flip at the junction (the scenario Prepared(t1)):

    E(t) = Re flip_exponent(g(t1), g(t), g(t1+t)).

It can decrease in t (the bath rephases the coherence it just dephased),
so D can grow: that is the memory effect measured here.  t1 = 0 is one
free interval, E(t) = Re g(t) exactly, because the flip acts before the
bath has correlated with the system; SingleTime() is Prepared(0.0).  The
initial correlations are thus t1 alone: N is one function of it, and
N(0) = 0 for the exact bath, whose Re gdot is positive.
The measure integrates sigma = dD/dt over the regions where it is
positive, which by the formula above are exactly the regions where
E decreases, independent of the pair as long as dc != 0.  The antipodal
equatorial pair (p = 1/2, c = +-1/2) maximizes every interval's gain
simultaneously (dp = 0 and |dc| = 1 are both extremal), so its value is
the measure itself; an exhaustive pair grid, GridSearch, is the check.
On equispaced phases a pair's |dc|^2 = m_a^2 + m_b^2 - 2 m_a m_b cos(dphi)
takes one of n_phase // 2 + 1 values of cos(dphi), so the grid search
ranks the pairs by the gains of magnitude-state pairs times those
phase-difference classes, and returns the first pair in flat order of
the best class with the pair's own gain.

For the Brownian bath Re gdot(t) = C - sum_k B_k e^{-lambda_k t}, and the
coefficients (C, -B_k (2 - e^{-lambda_k t1})) of the Prepared(t1) rate
change sign once in order of lambda_k, so by Descartes' rule for
exponential sums (Polya and Szego, Problems and Theorems in Analysis II,
Part V, ch. 1) the rate has at most one zero: E decreases on one interval
[0, t*) after a preparation and nowhere without one.  Every evaluator's
growth runs come from one scan: the rate on a grid over [0, t_max], then
a bracketed root on each cell where its sign changes.  The evaluators of
the exact Brownian g carry a certified_bath, so the rates at 0 and t_max
bracket the one zero and their grid is one cell: BrownianMatsubara,
HighTemperatureBrownian, and FrequencyQuadrature and
TimeDomainQuadrature on a Brownian density.  Strict truncation,
tabulated densities and any other evaluator are scanned on _N_SCAN cells.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dephasing import _check_sum, _check_time, _check_times, _distinct, _g_two_interval, flip_exponent
from .dynamics import DensityMatrix2, SystemParams
from .errors import DephaserError

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


# grid cells of the growth scan on (0, t_max) without a certified_bath, and the width each sign change is refined to
_N_SCAN = 10000
_REFINE_TOL = 1e-10
# elements of the class-gain table the grid search builds at once, so it stays in cache
_BLOCK = 1 << 15


@dataclass(frozen=True)
class StatePair:
    a: DensityMatrix2
    b: DensityMatrix2


@dataclass(frozen=True)
class Prepared:
    """Free interval of length t1, coherence flip, then the scanned interval.

    t1 = 0 is one free interval starting from the initial states: the flip acts before the bath has correlated with the
    system, and E(t) = 2 g(0) + 2 g(t) - g(0 + t) is Re g(t), and its rate Re gdot(t), with no rounding.
    """

    t1: float

    def __post_init__(self):
        object.__setattr__(self, "t1", _check_time(self.t1))


def SingleTime() -> Prepared:  # noqa: N802 -- named as the scenarios are
    """One free interval starting from the initial states: Prepared(0.0)."""
    return Prepared(0.0)


def analytic_pair() -> StatePair:
    """The maximizing pair: equal populations, antipodal unit coherence difference."""
    return StatePair(DensityMatrix2(0.5, 0.5 + 0j), DensityMatrix2(0.5, -0.5 + 0j))


def decay_exponent(evaluator, scenario, t):
    """E(t) such that the coherence difference shrinks by e^{-E(t)}, at a time (a float) or at every time of a 1-d
    array: from g at t1, t and t1 + t.

    A time, a Python float or any scalar as the checked float, comes by
    the pointwise route of the two-interval kernels
    (dephasing._g_two_interval); an array's times are checked first
    (_check_times), and its sums with t1 before they are formed
    (_check_sum); then g is taken once on the distinct times of t1, the
    array and t1 plus it (_distinct).
    """
    if not isinstance(scenario, Prepared):
        raise TypeError(f"unknown scenario {scenario!r}")
    t1 = scenario.t1
    if type(t) is not float:
        ts, scalar = _check_times(t)
        if not scalar:
            _check_sum(t1, ts)
            g = _distinct(evaluator.g, np.concatenate(([t1], ts, t1 + ts)))
            return flip_exponent(g[0], g[1 : ts.size + 1], g[ts.size + 1 :]).real
        t = ts.item()
    g1, g2, g12 = _g_two_interval(evaluator, t1, _check_time(t))
    return flip_exponent(g1, g2, g12).real


def decay_exponent_rate(evaluator, scenario, t):
    """dE/dt of decay_exponent at a time (a float) or at every time of a 1-d array; negative values mark rephasing.

    2 Re gdot(t) - Re gdot(t1 + t), with gdot asked for each distinct time
    once.  A time, a Python float or any scalar as the checked float,
    from the engine's gdot memo in one lookup per time where it keeps one
    (BrownianMatsubara, whose pointwise g at those times, as
    decay_exponent takes it, has filled gdot's memo there too), handing a
    miss's values to its _fill, else in one float gdot call per distinct
    time of the two (_distinct); an array in one gdot call on the
    distinct times of it and t1 plus it, found as decay_exponent finds
    them.  A Python float is checked only where the memo lacks a time,
    before t1 plus it (_check_sum).  A float time is computed on Python
    floats, whose IEEE arithmetic gives the bits of the same time inside
    an array.
    """
    if not isinstance(scenario, Prepared):
        raise TypeError(f"unknown scenario {scenario!r}")
    t1 = scenario.t1
    if type(t) is not float:
        ts, scalar = _check_times(t)
        if not scalar:
            _check_sum(t1, ts)
            d = _distinct(evaluator.gdot, np.concatenate((ts, t1 + ts))).real
            return 2.0 * d[: ts.size] - d[ts.size :]
        t = ts.item()
    t12 = t1 + t
    memo = getattr(evaluator, "_gdot_memo", None)
    a, b = (None, None) if memo is None else (memo.get(t), memo.get(t12))
    if a is None or b is None:
        _check_sum(t1, _check_time(t))
        a, b = _distinct(evaluator.gdot, [t, t12]) if memo is None else evaluator._fill([t, t12], [a, b], True)
    return 2.0 * a.real - b.real


def _weight(e: float) -> float:
    """e^{-2E} of the decay exponent E; DephaserError where it overflows, at E below about -354.9."""
    try:
        return math.exp(-2.0 * e)
    except OverflowError:
        raise DephaserError(
            f"the decay exponent E = {float(e)!r} is so negative that e^(-2E) overflows: a true E is not "
            "negative, so g has lost its accuracy here (the series' Re g goes negative by cancellation at small times)"
        ) from None


def _scaled_weights(es: list):
    """(weights, unit): e^{-2E} / unit^2 at every decay exponent E of the list es, and the unit of distance that a
    distance computed from them and dp / unit is in.

    unit is 1, and every weight e^{-2E}, unless even the largest e^{-2E} is below the normal floats (E above about
    354), where it would lose the distance |dc| e^{-E} while that is still a normal float; there unit is 2^-511 and
    the weights are e^{-2 (E - 511 ln 2)}.
    """
    w = [_weight(e) for e in es]
    if not w or max(w) >= sys.float_info.min:
        return w, 1.0
    return [_weight(e - 511.0 * math.log(2.0)) for e in es], 2.0**-511


def pair_distance(pair: StatePair, evaluator, scenario, t: float) -> float:
    """Trace distance of the propagated pair at time t into the scanned interval."""
    dp = pair.a.p11 - pair.b.p11
    dc = pair.a.c12 - pair.b.c12
    (w,), unit = _scaled_weights([decay_exponent(evaluator, scenario, t)])
    dp /= unit
    return unit * math.sqrt(dp * dp + abs(dc) ** 2 * w)


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
    (w,), unit = _scaled_weights([e])
    dp /= unit
    weight = dc2 * w
    d = math.sqrt(dp * dp + weight)
    if d == 0.0:
        return 0.0
    return -rate * weight / d * unit


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
    """Exhaustive maximization over a grid of state pairs.

    Populations on a uniform grid, coherence magnitude as a fraction of
    the positivity bound, phases uniform on the circle: n = n_population
    * n_coherence * n_phase states and n^2 ordered pairs.  A pair's gain
    depends on dp^2 and |dc|^2, and |dc|^2 on the phases only through
    their difference class, one of n_phase // 2 + 1; so the search ranks
    the pairs by the gains of the (n_population * n_coherence)^2
    magnitude-state pairs times those classes, and returns the best
    class's first pair in flat order (of tied classes, the first such
    pair) with the pair's own gain, which is the largest per-pair gain up
    to roundoff.  50x50x8 takes about 0.3 s at every t1.  Exists to verify
    the analytic maximizer, not to beat it.
    """

    n_population: int = 50
    n_coherence: int = 50
    n_phase: int = 8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{f.name} must be an int >= 1, got {v!r}")


@dataclass(frozen=True)
class NonMarkovResult:
    n_value: float
    intervals: tuple
    pair: StatePair
    scenario: object
    t_max: float
    truncated: bool
    search: str


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Zero of f in [lo, hi] between f_lo and f_hi, one negative and one not, to width tol; a Python float.

    Regula falsi with the Illinois rule (Dowell and Jarratt, BIT 11 (1971)
    168-174): an end kept twice in a row has its value halved, and a
    secant point outside (lo, hi) is replaced by the midpoint.  Past t of
    about 5e5 adjacent floats lie more than tol apart, so the loop also
    stops when the midpoint rounds onto an end.
    """
    neg_lo = f_lo < 0.0
    moved = 0  # +1 after a step that moved lo, -1 after one that moved hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # equal values are two zeros, one a negative value halved to -0.0
        t = mid if f_hi == f_lo else lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = mid
        f_t = f(t)
        if (f_t < 0.0) == neg_lo:
            if moved > 0:
                f_hi *= 0.5
            lo, f_lo, moved = t, f_t, 1
        else:
            if moved < 0:
                f_lo *= 0.5
            hi, f_hi, moved = t, f_t, -1
    return 0.5 * (lo + hi)


def _scan_runs(evaluator, scenario, t_max: float, cells: int):
    """Maximal (start, end) regions with dE/dt < 0 on a grid of `cells` equal cells of [0, t_max], plus a truncation
    flag.

    Grid scan for sign changes (one float rate call at each end of one
    cell, else one rate call on the whole grid), then _root on each
    crossing's cell, on Python floats.  Points where the
    rate is exactly zero count as non-growth, so grazing contacts
    contribute nothing.
    """
    f = lambda t: decay_exponent_rate(evaluator, scenario, t)
    if cells == 1:  # the ends by the float route, which reads and fills an engine's gdot memo
        ts, rate = np.array([0.0, t_max]), np.array([f(0.0), f(t_max)])
    else:
        ts = np.linspace(0.0, t_max, cells + 1)
        rate = decay_exponent_rate(evaluator, scenario, ts)
    neg = rate < 0.0

    # where neg, padded with False at both ends, changes: each run's first index, then one past its last
    edges = np.flatnonzero(np.diff(neg, prepend=False, append=False)).tolist()
    ts, rate = ts.tolist(), rate.tolist()
    runs = []
    for i, stop in zip(edges[::2], edges[1::2]):
        j = stop - 1
        start = 0.0 if i == 0 else _root(f, ts[i - 1], ts[i], rate[i - 1], rate[i], _REFINE_TOL)
        end = t_max if j == cells else _root(f, ts[j], ts[j + 1], rate[j], rate[j + 1], _REFINE_TOL)
        runs.append((start, end))
    return runs, bool(neg[-1])


def _growth_runs(evaluator, scenario, t_max: float):
    """Maximal (start, end) regions with dE/dt < 0 on (0, t_max), plus a truncation flag, from _scan_runs.

    An evaluator with a certified_bath (one whose g is the exact Brownian
    g) has a rate with one zero at most, so the rates at 0 and t_max
    bracket it and the scan takes one cell: the rate at both ends, then
    _root in 10 to 30 calls, each of one time, as a Python float.  Any
    other evaluator is scanned on _N_SCAN cells, in one array call.
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError("t_max must be positive and finite")
    cells = _N_SCAN if getattr(evaluator, "certified_bath", None) is None else 1
    return _scan_runs(evaluator, scenario, float(t_max), cells)


def _weights(evaluator, scenario, runs):
    """(w_end, w_start, unit): the _scaled_weights at the ends and at the starts of the growth runs, and their unit,
    from one float decay_exponent call at each: the engine's float route, BrownianMatsubara's memo."""
    ends_starts = [e for _, e in runs] + [s for s, _ in runs]
    w, unit = _scaled_weights([decay_exponent(evaluator, scenario, t) for t in ends_starts])
    return w[: len(runs)], w[len(runs) :], unit


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


def _growth_records(runs, pair: StatePair, w_end, w_start, unit) -> tuple:
    """GrowthInterval records of the runs with the distance gained by pair, from weights in unit (_weights)."""
    dp = (pair.a.p11 - pair.b.p11) / unit
    dc2 = abs(pair.a.c12 - pair.b.c12) ** 2
    return tuple(
        GrowthInterval(s, e, unit * float(_gain(dp * dp, dc2, a, b)))
        for (s, e), a, b in zip(runs, w_end, w_start)
    )


def growth_intervals(evaluator, scenario, t_max: float, pair: StatePair | None = None):
    """Growth intervals of the pair trace distance on (0, t_max).

    Returns GrowthInterval records carrying the distance gained by the
    given pair (the analytic maximizer by default) over each interval.
    """
    runs, _ = _growth_runs(evaluator, scenario, t_max)
    records = _growth_records(runs, pair or analytic_pair(), *_weights(evaluator, scenario, runs))
    return list(records)


def _grid_axes(search: GridSearch):
    """The population, coherence-fraction and phase axes of the grid."""
    p = np.linspace(0.0, 1.0, search.n_population)
    # stay strictly inside the positivity bound so state construction
    # cannot trip the roundoff clamp at |c|^2 = p(1-p)
    frac = np.linspace(0.0, 1.0, search.n_coherence) * (1.0 - 1e-12)
    phase = np.linspace(0.0, 2.0 * math.pi, search.n_phase, endpoint=False)
    return p, frac, phase


def _magnitude_states(search: GridSearch):
    """Population and |c| of every magnitude state m = i*n_c + j.

    Grid state s = (i*n_c + j)*n_h + k is magnitude state s // n_h at phase
    k = s % n_h: its coherence is |c| e^{i phase[k]}.
    """
    p, frac, _ = _grid_axes(search)
    pm, fm = (x.ravel() for x in np.meshgrid(p, frac, indexing="ij"))
    return pm, fm * np.sqrt(pm * (1.0 - pm))


def _class_tables(pm, mag, cos_k, rows):
    """dp2 and dc2 of the classes (k, a, b), magnitude state a in rows and b any; dc2 has shape (K, rows, M).

    Phase indices ia, ib are in class k = min(d, n_h - d), d = (ib - ia) mod n_h,
    and every member pair of class (k, a, b) has |dc|^2 = m_a^2 + m_b^2 - 2 m_a m_b
    cos_k[k] up to roundoff.
    """
    ma = mag[rows, None]
    dc2 = (ma * ma + mag * mag) - (2.0 * ma * mag) * cos_k[:, None, None]
    return (pm[rows, None] - pm) ** 2, dc2


def _grid_search(search: GridSearch, weights_end, weights_start, unit):
    """The grid pair of the best phase-difference class, with the pair's own summed interval gain.

    weights_end/weights_start are e^{-2E} at the interval endpoints, in unit (_weights).  A
    pair's gain depends on dp^2 and |dc|^2 only, and on equispaced phases
    |dc|^2 depends on the phase difference through its class k alone: the
    pairs of a class (k, a, b) are the same two magnitude states a, b with
    their phases rotated or reflected.  The class gains are computed in
    blocks of magnitude states a that fit in cache, and the class with the
    largest gain wins; on ties the one whose first pair in flat order,
    (a * n_phase, b * n_phase + k), comes first.  That pair is returned with
    its gain from the per-pair formula, which differs from its class's gain
    by roundoff only.
    """
    w = weights_end, weights_start
    n_h = search.n_phase
    pm, mag = _magnitude_states(search)
    pm_in_unit = pm / unit
    phase = _grid_axes(search)[2]
    cos_k = np.cos(phase[: n_h // 2 + 1])
    step = max(1, _BLOCK // (cos_k.size * mag.size))
    best = -np.inf
    for start in range(0, mag.size, step):
        rows = slice(start, start + step)
        gain = _total_gain(*_class_tables(pm_in_unit, mag, cos_k, rows), *w)
        if (top := gain.max()) > best:
            best, best_start, best_gain = top, start, gain
    k, a, b = np.nonzero(best_gain == best)
    ia, ib = min(zip(((best_start + a) * n_h).tolist(), (b * n_h + k).tolist()))

    m, h = np.divmod([ia, ib], n_h)
    p, c = pm[m], mag[m] * np.exp(1j * phase[h])
    n_value = unit * _total_gain(((p[:1] - p[1:]) / unit) ** 2, np.abs(c[:1] - c[1:]) ** 2, *w)[0]
    pair = StatePair(
        DensityMatrix2(float(p[0]), complex(c[0])),
        DensityMatrix2(float(p[1]), complex(c[1])),
    )
    return float(n_value), pair


def non_markovianity(
    system: SystemParams,
    evaluator,
    scenario,
    t_max: float | None = None,
    search=None,
) -> NonMarkovResult:
    """Summed trace-distance gains over all growth intervals in (0, t_max).

    t_max defaults to ten bath memory times (10 / gamma) when the
    evaluator carries Brownian bath parameters.  search selects the pair:
    AnalyticPair (default) uses the closed-form maximizer, GridSearch
    scans a discrete family and returns its best pair, which can only
    approach the analytic value from below.  The level splitting in
    system drops out of the distance.

    For the Brownian bath the rate of E is an exponential sum whose
    coefficients change sign once, so it has one zero at most and the
    growth is one interval [0, t*) after a preparation and none without.
    An evaluator of the exact Brownian g (BrownianMatsubara,
    HighTemperatureBrownian, the quadrature engines on a Brownian
    density) scans one cell, the rate at 0 and t_max, and finds t* by 10
    to 30 more rate calls; strict truncation, tabulated densities and
    wrapped evaluators scan 10 001 times.
    """
    if search is None:
        search = AnalyticPair()
    if not isinstance(search, (AnalyticPair, GridSearch)):
        raise TypeError(f"unknown search strategy {search!r}")
    if t_max is None:
        if getattr(evaluator, "bath", None) is None:
            raise ValueError("t_max is required when the evaluator has no bath parameters")
        t_max = 10.0 / evaluator.bath.gamma
    runs, truncated = _growth_runs(evaluator, scenario, t_max)
    label = "grid" if isinstance(search, GridSearch) else "analytic"

    if not runs:
        return NonMarkovResult(0.0, (), analytic_pair(), scenario, t_max, truncated, label)

    w_end, w_start, unit = _weights(evaluator, scenario, runs)
    if isinstance(search, GridSearch):
        n_value, pair = _grid_search(search, w_end, w_start, unit)
    else:
        pair = analytic_pair()
        n_value = unit * _total_gain(0.0, 1.0, w_end, w_start)
    intervals = _growth_records(runs, pair, w_end, w_start, unit)
    return NonMarkovResult(float(n_value), intervals, pair, scenario, t_max, truncated, label)
