"""Decentralized single-loop stochastic bilevel optimization over gossip topologies."""

from .directions import HvpPair, hvp_fo, hvp_so
from .engine import HyperParams, SwarmState, Variant, init, run, step
from .metrics import (
    RunRecord,
    TransientEstimate,
    consensus_error,
    summarize,
    transient_cutoff,
)
from .problem import (
    BilevelProblem,
    LogCoshBilevel,
    QuadraticBilevel,
    QuadraticBilevelSpec,
    RidgeTuning,
    RidgeTuningSpec,
    hypergradient_exact,
    lower_solve,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    phi_value,
    trivial_quadratic,
    z_star,
)
from .topology import (
    ExponentialGraph,
    FullyConnected,
    MixingMatrix,
    Ring,
    Torus2D,
    build_topology,
    load_mixing_matrix,
    spectral_gap,
)

__version__ = "0.1.0"
