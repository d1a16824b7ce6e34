"""Pure-dephasing dynamics of a two-level system in a Brownian oscillator bath.

Bath correlation functions, the lineshape function g(t) through four
cross-checking engines, one- and two-interval propagation with an
instantaneous junction operation, the trace-distance non-Markovianity
measure, and photon-echo response kernels.
"""

from .dephasing import (
    ENGINE_NAMES,
    BrownianMatsubara,
    FrequencyQuadrature,
    HighTemperatureBrownian,
    TimeDomainQuadrature,
    flip_exponent,
    make_evaluator,
)
from .dynamics import (
    DensityMatrix2,
    LiouvilleOp,
    SystemParams,
    coherence_flip,
    identity_op,
    propagate_single,
    propagate_two_time,
    trace_distance,
    trace_distance_eigen,
    two_time_map,
)
from .errors import (
    DephaserError,
    ExtrapolationError,
    IntegrationError,
    ResonanceError,
    SuperoperatorError,
)
from .measures import (
    AnalyticPair,
    GridSearch,
    GrowthInterval,
    NonMarkovResult,
    Prepared,
    SingleTime,
    StatePair,
    decay_exponent,
    decay_exponent_rate,
    growth_intervals,
    non_markovianity,
    pair_distance,
    sigma,
)
from .response import echo_response, flip_exponent_grid
from .spectral import (
    BathParams,
    BrownianCorrelation,
    OverdampedBrownian,
    TabulatedSpectralDensity,
    correlation_function,
)

__version__ = "0.1.0"
