"""N, the top of the pipeline, against an oracle that shares nothing with the engine (ROADMAP item 18).

tests/_oracle.measure bisects the 40-digit rate 2 Re gdot(t) - Re gdot(t1 + t) of reference for t* and takes
N = e^{-E(t*)} - e^{-E(0)} from its Re g: the non-Markovianity of Laine, Piilo and Breuer (PRA 81, 062115, 2010) for
the Prepared(t1) scenario.  The warm baths cost 0.15-0.55 s each; the cold beta 933 bath about 2 s.
"""

import _oracle
import pytest

from dephaser import BathParams, BrownianMatsubara, SystemParams
from dephaser.measures import GridSearch, Prepared, non_markovianity

# measured at most 1.2e-14 relative on the pinned baths
N_RTOL = 1e-13
# the oracle's bisection leaves its t* within 5e-10 relative, and the engine refines its root to 1e-10
T_STAR_RTOL = 1e-9


def _engine_n(eta, gamma, beta, t1):
    """(N, t*) of the analytic engine: its one growth interval ends at t*."""
    res = non_markovianity(SystemParams(), BrownianMatsubara(BathParams(eta, gamma, beta)), Prepared(t1))
    (interval,) = res.intervals
    return res.n_value, interval.t_end


def _check_against_the_oracle(case):
    """Checks the engine's N and t* against the oracle's, and returns the oracle's N."""
    (n, t_star), (want_n, want_t) = _engine_n(*case), _oracle.measure(*case)
    assert abs(n - want_n) <= N_RTOL * want_n, (n, want_n)
    assert abs(t_star - want_t) <= T_STAR_RTOL * want_t, (t_star, want_t)
    return want_n


# (eta, gamma, beta, t1): the default bath, a warm one past a = 1/2 and a hot one
_PINNED = [(1.0, 0.5, 1.0, 1.0), (0.5, 1.2, 5.0, 0.5), (2.0, 0.3, 0.3, 1.0)]


@pytest.mark.parametrize("case", _PINNED, ids=[f"{c[:3]}, t1 {c[3]:g}" for c in _PINNED])
def test_n_matches_the_oracle(case):
    want_n = _check_against_the_oracle(case)
    # GridSearch maximizes over a family of pairs, so its N never exceeds the oracle's, up to the engine's N_RTOL; a
    # 5 x 5 x 4 grid holds the maximizer with its coherences 1e-12 inside the positivity bound, and costs about 1 ms
    eta, gamma, beta, t1 = case
    ev = BrownianMatsubara(BathParams(eta, gamma, beta))
    grid_n = non_markovianity(SystemParams(), ev, Prepared(t1), search=GridSearch(5, 5, 4)).n_value
    assert 0.0 < grid_n <= (1.0 + N_RTOL) * want_n, (grid_n, want_n)


# Re gdot is wrong at small t (ROADMAP item 3), and where t1 is small t* is small and the growth end reads it: on the
# default bath at t1 = 1e-7 N is 3.6e-3 off; at beta 933, t1 = 1e-5, `dephaser measure` prints N = 2.36e-10 with exit 0
# where the oracle gives 6.89e-10
_SMALL_T1 = [(1.0, 0.5, 1.0, 1e-7), (1.3, 1.8, 933.0, 1e-5)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: Re gdot at small t, which t* reads where t1 is small")
@pytest.mark.parametrize("case", _SMALL_T1, ids=[f"{c[:3]}, t1 {c[3]:g}" for c in _SMALL_T1])
def test_n_at_small_t1_matches_the_oracle(case):
    _check_against_the_oracle(case)
