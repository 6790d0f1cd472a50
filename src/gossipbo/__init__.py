"""Decentralized single-loop stochastic bilevel optimization over gossip topologies."""

from .engine import HvpPair, HyperParams, SwarmState, Variant, hvp_fo, hvp_so, init, run, step
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
    RidgeTuning,
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
    MixingMatrix,
    exponential,
    fully_connected,
    load_mixing_matrix,
    ring,
    torus2d,
)

__version__ = "0.1.0"
