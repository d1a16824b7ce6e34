"""The benchmark's recorded param_sweep grid against the exact engine, in tier-1.

perfbench/reference.json holds Re g and Re gdot of every param_sweep pool bath on its log grid.  A benchmark run
compares the values at t >= TRUST_T with them, within RTOL |ref| + ATOL, and a miss makes the run incorrect.  This
reads the pool, the grid and the tolerances from perfbench/workloads.py and the file read-only, and runs that check on
every bath of the pool, so that a change that moves one of them past its bound shows before a benchmark run.
"""

import importlib.util
import json
import pathlib

import pytest

from dephaser import BrownianMatsubara

_PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


_W = _workloads()
_REFERENCE = json.loads((_PERFBENCH / "reference.json").read_text())["param_sweep"]
# the default bath and every variant of every stratum: each seed runs the default bath and one variant per stratum
_BATHS = [_W.DEFAULT_BATH] + [b for stratum in _W.param_sweep_pool() for b in stratum]


def test_every_pool_bath_has_a_recorded_grid():
    assert len(_BATHS) == 1 + _W.SWEEP_STRATA * _W.SWEEP_VARIANTS
    assert {_W.sweep_key(b) for b in _BATHS} == set(_REFERENCE)


@pytest.mark.parametrize("bath", _BATHS, ids=[f"beta {b['beta']:.5g}, K {b['K']}" for b in _BATHS])
def test_param_sweep_grid_matches_the_recorded_values(bath):
    grid = _REFERENCE[_W.sweep_key(bath)]["grid"]
    ev = BrownianMatsubara(_W.bath_params(bath))
    for name in ("g", "gdot"):
        for t, (want, _) in zip(_W.LOG_GRID, grid[name]):
            if t >= _W.TRUST_T:
                got = getattr(ev, name)(t).real
                assert abs(got - want) <= _W.RTOL * abs(want) + _W.ATOL, (name, t, got, want)
