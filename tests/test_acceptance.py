"""Acceptance gate: every shipped claim, one pass/fail line each.

Each test prints "[acceptance] criterion N (label): PASS/FAIL" before
asserting, so a red run still reports the full scoreboard (run pytest
with -s to see the lines on success).
"""

import math
import time
import warnings

import numpy as np

from dephaser.cli import RunConfig, cmd_figures
from dephaser.dephasing import BrownianMatsubara, HighTemperatureBrownian, make_evaluator
from dephaser.dynamics import (
    DensityMatrix2,
    SystemParams,
    coherence_flip,
    identity_op,
    propagate_single,
    propagate_two_time,
    trace_distance,
    two_time_map,
)
from dephaser.measures import GridSearch, Prepared, SingleTime, growth_intervals, non_markovianity
from dephaser.response import echo_response
from dephaser.spectral import BathParams

BATH = BathParams(eta=1.0, gamma=0.5, beta=1.0, matsubara_terms=100)
SYS = SystemParams(epsilon=0.0)


def _report(n: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")


def _figure_config(points: int, tmax: float) -> RunConfig:
    return RunConfig(
        bath=BATH,
        system=SYS,
        engine="analytic",
        t1=0.0,
        tmax=tmax,
        points=points,
        search="analytic",
        fmt="csv",
        out=None,
    )


def _random_state(rng) -> DensityMatrix2:
    p = float(rng.uniform(0.0, 1.0))
    mag = math.sqrt(p * (1.0 - p)) * float(rng.uniform(0.0, 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return DensityMatrix2(p, mag * complex(math.cos(phase), math.sin(phase)))


def test_criterion_1_engine_triple_agreement():
    start = time.perf_counter()
    engines = [make_evaluator(name, BATH) for name in ("analytic", "freq-quad", "time-quad")]
    ts = np.geomspace(0.05, 20.0, 100)
    values = [np.array([ev.g(float(t)) for t in ts]) for ev in engines]
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rel = np.abs(values[i] - values[j]) / np.abs(values[j])
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, "engine triple agreement", ok)
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_2_single_interval_markovian():
    res_hot = non_markovianity(SYS, HighTemperatureBrownian(BATH), SingleTime(), t_max=10.0)
    res_full = non_markovianity(SYS, BrownianMatsubara(BATH), SingleTime(), t_max=10.0)
    ok = (
        res_hot.n_value < 1e-12
        and res_hot.intervals == ()
        and res_full.n_value < 1e-12
        and res_full.intervals == ()
    )
    _report(2, "single interval is Markovian", ok)
    assert res_hot.n_value < 1e-12
    assert res_hot.intervals == ()
    assert res_full.n_value < 1e-12
    assert res_full.intervals == ()


def test_criterion_3_prepared_distance_curves():
    series = cmd_figures(_figure_config(1000, 10.0), "trd")
    data = np.array(series.rows)
    cols = series.columns
    i00 = cols.index("d_t1_0_terms_0")
    i0k = cols.index("d_t1_0_terms_100")
    i10 = cols.index("d_t1_1_terms_0")
    i1k = cols.index("d_t1_1_terms_100")

    monotone = bool(np.all(np.diff(data[:, i00]) < 0) and np.all(np.diff(data[:, i0k]) < 0))
    strict = BrownianMatsubara(BATH, include_tail=False)
    regrowth = growth_intervals(strict, Prepared(1.0), t_max=10.0)
    gap0 = float(np.max(np.abs(data[:, i00] - data[:, i0k])))
    gap1 = float(np.max(np.abs(data[:, i10] - data[:, i1k])))

    ok = monotone and len(regrowth) >= 1 and gap0 > 1e-3 and gap1 > 1e-3
    _report(3, "prepared-distance curve shapes", ok)
    assert monotone
    assert len(regrowth) >= 1
    assert gap0 > 1e-3
    assert gap1 > 1e-3


def test_criterion_4_preparation_activates_measure():
    ev = BrownianMatsubara(BATH)
    exact = non_markovianity(SYS, ev, Prepared(1.0), t_max=10.0)
    grid = non_markovianity(
        SYS, ev, Prepared(1.0), t_max=10.0, search=GridSearch(50, 50, 8)
    )
    gap = exact.n_value - grid.n_value
    ok = exact.n_value > 0.0 and -1e-9 <= gap <= 1e-3
    _report(4, "preparation activates the measure", ok)
    assert exact.n_value > 0.0
    assert gap >= -1e-9
    assert gap <= 1e-3


def test_criterion_5_echo_equals_flip_kernel():
    # |R| against the coherence of a state carried through the validated
    # flip-junction map: the flipped coherence shrinks by exactly |R|
    ev = BrownianMatsubara(BATH)
    system = SystemParams(epsilon=1.3)
    flip = coherence_flip()
    state = DensityMatrix2(0.3, 0.2 + 0.3j)
    ts = np.linspace(0.1, 5.0, 50)
    worst = 0.0
    for t1 in ts:
        for t2 in ts:
            r = abs(echo_response(ev, float(t1), float(t2)))
            out = two_time_map(system, ev, flip, float(t1), float(t2))(state)
            k = abs(out.c12) / abs(state.c12)
            worst = max(worst, abs(r - k) / k)
    ok = worst < 1e-14
    _report(5, "echo modulus equals flip kernel", ok)
    assert worst < 1e-14


def test_criterion_6_identity_junction_composes():
    ev = BrownianMatsubara(BATH)
    system = SystemParams(epsilon=2.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            state = _random_state(rng)
            t1, t2 = rng.uniform(0.0, 5.0, 2)
            joined = propagate_two_time(state, system, ev, identity_op(), float(t1), float(t2))
            direct = propagate_single(state, system, ev, float(t1) + float(t2))
            worst = max(
                worst, abs(joined.p11 - direct.p11), abs(joined.c12 - direct.c12)
            )
    ok = worst < 1e-12
    _report(6, "identity junction composes", ok)
    assert worst < 1e-12


def test_criterion_7_distance_surface_not_separable():
    start = time.perf_counter()
    series = cmd_figures(_figure_config(200, 20.0), "trd2t")
    elapsed = time.perf_counter() - start
    d = np.array(series.rows)[:, 2].reshape(200, 200)
    in_range = bool(np.all(d > 0.0) and np.all(d <= 1.0))
    s = np.linalg.svd(d, compute_uv=False)
    residual = float(math.sqrt(max(np.sum(s[1:] ** 2), 0.0) / np.sum(s**2)))
    ok = in_range and residual > 1e-3 and elapsed < 60.0
    _report(7, "two-interval surface non-separable", ok)
    assert in_range
    assert residual > 1e-3
    assert elapsed < 60.0


def test_criterion_8_metric_validity_and_derivative():
    rng = np.random.default_rng(23)

    metric_ok = True
    for _ in range(1000):
        a, b, c = (_random_state(rng) for _ in range(3))
        dab = trace_distance(a, b)
        dba = trace_distance(b, a)
        metric_ok &= dab >= 0.0
        metric_ok &= abs(dab - dba) <= 1e-12
        metric_ok &= trace_distance(a, a) <= 1e-12
        metric_ok &= dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12

    ev = BrownianMatsubara(BATH)
    system = SystemParams(epsilon=1.0)
    states_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            state = _random_state(rng)
            t1, t2 = rng.uniform(0.0, 4.0, 2)
            junction = coherence_flip() if rng.uniform() < 0.5 else identity_op()
            out = propagate_two_time(state, system, ev, junction, float(t1), float(t2))
            states_ok &= 0.0 <= out.p11 <= 1.0
            states_ok &= abs(out.c12) ** 2 <= out.p11 * out.p22 + 1e-12

    h = 1e-5
    fd_worst = 0.0
    for t in np.geomspace(0.1, 15.0, 20):
        fd = (ev.g(float(t) + h) - ev.g(float(t) - h)) / (2.0 * h)
        gd = ev.gdot(float(t))
        fd_worst = max(fd_worst, abs(fd - gd) / abs(gd))

    ok = bool(metric_ok) and bool(states_ok) and fd_worst < 1e-5
    _report(8, "metric, state validity, derivative", ok)
    assert metric_ok
    assert states_ok
    assert fd_worst < 1e-5
