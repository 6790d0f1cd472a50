"""Synchronous iteration engine for the decentralized bilevel update.

One step follows the single-loop recursion: every node draws one
upper-level and one lower-level sample, forms its direction estimates
from the iteration-t snapshot of all nodes, applies a local gradient
step, and gossips the result with its neighbors. The swarm is held as
stacked (n, .) arrays and every oracle is called once per step for all
nodes. A run owns one random generator; each step draws the f-sample and
then the g-sample of every node from it, each variate as one (n, .)
block, and the draws do not depend on the variant or the topology. The
moving-average hypergradient estimate h is updated locally and is not
gossiped. The centralized variant runs the same recursion with exact
uniform averaging in place of the gossip matrix, which keeps a single
shared iterate and averages the per-node directions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import metrics as metrics_mod
from .directions import hvp_fo, hvp_so
from .problem import BilevelProblem
from .topology import MixingMatrix

DIVERGENCE_LIMIT = 1e12


class EngineError(RuntimeError):
    pass


class ConfigMismatch(EngineError):
    pass


class NumericalDivergence(EngineError):
    """Iterates left the finite range; ``run`` attaches its probes so far as ``record``."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
        self.record: "metrics_mod.RunRecord | None" = None


class Variant(str, Enum):
    SECOND_ORDER = "so"
    FIRST_ORDER = "fo"
    CENTRALIZED = "centralized"


@dataclass(frozen=True)
class HyperParams:
    """Step-size schedules and variant selection.

    beta_t = c1 * alpha_t and gamma_t = c2 * alpha_t. The moving-average
    weight is theta_t = c3 * alpha_t unless ``fixed_theta`` is set, which
    pins it to a constant (the synthetic-experiment convention). The
    upper-level step is tau * alpha_t. ``decay_factor`` < 1 enables
    stage decay: alpha is multiplied by the factor every
    ``decay_period`` iterations.
    """

    alpha0: float
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    tau: float = 1.0
    decay_factor: float = 1.0
    decay_period: int = 1000
    fixed_theta: float | None = None
    delta: float = 1e-3
    variant: Variant = Variant.SECOND_ORDER

    def __post_init__(self):
        if self.alpha0 < 0:
            raise ValueError("alpha0 must be >= 0")
        if not (0 < self.decay_factor <= 1):
            raise ValueError("decay_factor must be in (0, 1]")
        if self.decay_period < 1:
            raise ValueError("decay_period must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValueError("c1, c2, c3 must be > 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")

    def alpha(self, t: int) -> float:
        return self.alpha0 * self.decay_factor ** (t // self.decay_period)

    def beta(self, t: int) -> float:
        return self.c1 * self.alpha(t)

    def gamma(self, t: int) -> float:
        return self.c2 * self.alpha(t)

    def theta(self, t: int) -> float:
        if self.fixed_theta is not None:
            return self.fixed_theta
        return self.c3 * self.alpha(t)


@dataclass
class SwarmState:
    t: int
    X: np.ndarray  # (n, d)
    Y: np.ndarray  # (n, p)
    Z: np.ndarray  # (n, p)
    H: np.ndarray  # (n, d)
    rng: np.random.Generator = field(repr=False)

    def x_bar(self) -> np.ndarray:
        return self.X.mean(axis=0)

    def y_bar(self) -> np.ndarray:
        return self.Y.mean(axis=0)


def init(
    problem: BilevelProblem,
    W: MixingMatrix,
    hyper: HyperParams,
    seed: int,
    X0: np.ndarray | None = None,
    Y0: np.ndarray | None = None,
    Z0: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> SwarmState:
    """All-zero state (overridable) with the run's generator, seeded by ``seed``."""
    if problem.n_nodes != W.n:
        raise ConfigMismatch(
            f"problem has {problem.n_nodes} nodes but mixing matrix has {W.n}"
        )
    n, d, p = problem.n_nodes, problem.dim_x, problem.dim_y

    def pick(arr, shape):
        if arr is None:
            return np.zeros(shape)
        arr = np.array(arr, dtype=float)
        if arr.shape != shape:
            raise ConfigMismatch(f"initial state has shape {arr.shape}, expected {shape}")
        return arr

    return SwarmState(
        t=0,
        X=pick(X0, (n, d)),
        Y=pick(Y0, (n, p)),
        Z=pick(Z0, (n, p)),
        H=pick(H0, (n, d)),
        rng=np.random.default_rng(seed),
    )


def _node_terms(problem, hyper, X, Y, Z, rng):
    """Sampled directions of every node from the iteration-t snapshot."""
    xi = problem.draw_f_sample(rng)
    zeta = problem.draw_g_sample(rng)
    if hyper.variant is Variant.FIRST_ORDER:
        pair = hvp_fo(problem, X, Y, Z, hyper.delta, zeta)
    else:
        pair = hvp_so(problem, X, Y, Z, zeta)
    Gy = problem.sgrad_y_g(X, Y, zeta)
    Dz = pair.p_h - problem.sgrad_y_f(X, Y, xi)
    Omega = problem.sgrad_x_f(X, Y, xi) - pair.p_j
    return Gy, Dz, Omega


def step(
    problem: BilevelProblem, W: MixingMatrix, hyper: HyperParams, state: SwarmState
) -> SwarmState:
    """One synchronous iteration; returns a new state sharing the generator.

    The f-block and then the g-block of samples are drawn from
    ``state.rng``, which advances in place.
    """
    t = state.t
    alpha, beta = hyper.alpha(t), hyper.beta(t)
    gamma, theta = hyper.gamma(t), hyper.theta(t)

    if hyper.variant is Variant.CENTRALIZED:
        # Single-iterate recursion expressed as exact uniform averaging:
        # every row is the shared iterate (enforced bitwise by the mixing
        # step, since all rows of the product are the same sum), and the
        # averaged local h equals the centralized moving average.
        Wm = np.full((W.n, W.n), 1.0 / W.n)
    else:
        Wm = W.weights
    Gy, Dz, Omega = _node_terms(problem, hyper, state.X, state.Y, state.Z, state.rng)
    Xn = Wm @ (state.X - hyper.tau * alpha * state.H)
    Yn = Wm @ (state.Y - beta * Gy)
    Zn = Wm @ (state.Z - gamma * Dz)
    Hn = (1.0 - theta) * state.H + theta * Omega

    for name, arr in (("x", Xn), ("y", Yn), ("z", Zn), ("h", Hn)):
        if not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) > DIVERGENCE_LIMIT:
            raise NumericalDivergence(
                f"{name}-iterates diverged at iteration {t + 1}", iteration=t + 1
            )
    return replace(state, t=t + 1, X=Xn, Y=Yn, Z=Zn, H=Hn)


def run(
    problem: BilevelProblem,
    W: MixingMatrix,
    hyper: HyperParams,
    T: int,
    seed: int,
    probe_every: int = 100,
    metadata: dict | None = None,
    wall_limit_s: float = 0.0,
    X0=None,
    Y0=None,
    Z0=None,
    H0=None,
) -> "metrics_mod.RunRecord":
    """Iterate T steps, probing metrics at the averaged iterate.

    Probes happen at t = 0, every ``probe_every`` iterations, and at t = T.
    Identical (problem, seed, hyper) inputs give a bit-identical record. A
    ``NumericalDivergence`` leaves with the record of the probes taken
    before the blow-up.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if probe_every < 1:
        raise ValueError("probe_every must be >= 1")
    state = init(problem, W, hyper, seed, X0=X0, Y0=Y0, Z0=Z0, H0=H0)
    meta = {
        "variant": hyper.variant.value,
        "n_nodes": problem.n_nodes,
        "dim_x": problem.dim_x,
        "dim_y": problem.dim_y,
        "seed": seed,
        "T": T,
        "probe_every": probe_every,
        "rho": W.rho,
    }
    if metadata:
        meta.update(metadata)
    record = metrics_mod.RunRecord(metadata=meta)
    record.add_probe(metrics_mod.probe(problem, state, alpha=hyper.alpha(0)))
    start = time.monotonic()
    for t in range(T):
        try:
            state = step(problem, W, hyper, state)
        except NumericalDivergence as exc:
            exc.record = record
            raise
        if (t + 1) % probe_every == 0 or t + 1 == T:
            record.add_probe(metrics_mod.probe(problem, state, alpha=hyper.alpha(t + 1)))
            if wall_limit_s > 0 and time.monotonic() - start > wall_limit_s:
                raise EngineError(
                    f"wall-clock limit {wall_limit_s:.1f}s exceeded at iteration {t + 1}"
                )
    return record
