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

Because the draws are common to every cell of a trial, one engine call
can advance several cells at once: the state then carries a leading cell
axis, (C, n, .), the cells' gossip matrices are stacked as (C, n, n), and
each step's sample blocks are drawn once and broadcast over the cells.
Every operation acts on each cell alone, so a cell's trajectory is the
one its own run gives, bit for bit; a single cell is the case C = 1.
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
    """Iterates left the finite range; ``run`` attaches its probes so far as ``record``.

    Raised by ``step`` for a whole state, it also names each diverged cell
    by its position on the cell axis (``cells``, with that cell's message)
    and carries the step's result (``state``), whose other cells are sound.
    """

    def __init__(self, message: str, iteration: int, cells=None, state=None):
        super().__init__(message)
        self.iteration = iteration
        self.record: "metrics_mod.RunRecord | None" = None
        self.cells: dict[int, str] = cells or {}
        self.state: "SwarmState | None" = state


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
    """Iterates of one cell as (n, .) arrays, or of C cells as (C, n, .) arrays."""

    t: int
    X: np.ndarray  # (..., n, d)
    Y: np.ndarray  # (..., n, p)
    Z: np.ndarray  # (..., n, p)
    H: np.ndarray  # (..., n, d)
    rng: np.random.Generator = field(repr=False)

    def x_bar(self) -> np.ndarray:
        return self.X.mean(axis=-2)

    def y_bar(self) -> np.ndarray:
        return self.Y.mean(axis=-2)

    def cells(self, keep) -> "SwarmState":
        """The cells at positions ``keep`` of the cell axis (one position: an (n, .) view)."""
        return replace(self, X=self.X[keep], Y=self.Y[keep], Z=self.Z[keep], H=self.H[keep])


def init(
    problem: BilevelProblem,
    W: "MixingMatrix | list[MixingMatrix]",
    hyper: HyperParams,
    seed: int,
    X0: np.ndarray | None = None,
    Y0: np.ndarray | None = None,
    Z0: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> SwarmState:
    """All-zero state (overridable) with the run's generator, seeded by ``seed``.

    One mixing matrix gives an (n, .) state; a list of C gives a (C, n, .)
    state whose cells all start from the same (n, .) overrides.
    """
    single = isinstance(W, MixingMatrix)
    Ws = [W] if single else list(W)
    for w in Ws:
        if problem.n_nodes != w.n:
            raise ConfigMismatch(
                f"problem has {problem.n_nodes} nodes but mixing matrix has {w.n}"
            )
    lead = () if single else (len(Ws),)
    n, d, p = problem.n_nodes, problem.dim_x, problem.dim_y

    def pick(arr, shape):
        if arr is None:
            return np.zeros(lead + shape)
        arr = np.array(arr, dtype=float)
        if arr.shape != shape:
            raise ConfigMismatch(f"initial state has shape {arr.shape}, expected {shape}")
        return np.broadcast_to(arr, lead + shape).copy()

    return SwarmState(
        t=0,
        X=pick(X0, (n, d)),
        Y=pick(Y0, (n, p)),
        Z=pick(Z0, (n, p)),
        H=pick(H0, (n, d)),
        rng=np.random.default_rng(seed),
    )


def _node_terms(problem, hyper, X, Y, Z, rng):
    """Sampled directions of every node of every cell from the iteration-t snapshot.

    One f-block and one g-block of samples are drawn, (n, .) each, and
    broadcast over the leading cell axis of X, Y, Z.
    """
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


def _weights(W: MixingMatrix, hyper: HyperParams) -> np.ndarray:
    """The matrix a cell gossips with."""
    if hyper.variant is Variant.CENTRALIZED:
        # Single-iterate recursion expressed as exact uniform averaging:
        # every row is the shared iterate (enforced bitwise by the mixing
        # step, since all rows of the product are the same sum), and the
        # averaged local h equals the centralized moving average.
        return np.full((W.n, W.n), 1.0 / W.n)
    return W.weights


def step(
    problem: BilevelProblem,
    W: "MixingMatrix | np.ndarray",
    hyper: HyperParams,
    state: SwarmState,
) -> SwarmState:
    """One synchronous iteration; returns a new state sharing the generator.

    ``W`` is the mixing matrix of an (n, .) state, or the (C, n, n) stack of
    the gossip weights of a (C, n, .) state's cells, as ``run`` builds it.
    ``hyper`` sets the step sizes and the Hessian-vector estimator of every
    cell. The f-block and then the g-block of samples are drawn once from
    ``state.rng``, which advances in place, and every cell uses them.

    The divergence guard gives one verdict per cell: ``NumericalDivergence``
    names every cell that left the finite range, with its own message, and
    carries the new state, whose other cells are sound.
    """
    t = state.t
    alpha, beta = hyper.alpha(t), hyper.beta(t)
    gamma, theta = hyper.gamma(t), hyper.theta(t)

    Wm = W if isinstance(W, np.ndarray) else _weights(W, hyper)
    Gy, Dz, Omega = _node_terms(problem, hyper, state.X, state.Y, state.Z, state.rng)
    Xn = Wm @ (state.X - hyper.tau * alpha * state.H)
    Yn = Wm @ (state.Y - beta * Gy)
    Zn = Wm @ (state.Z - gamma * Dz)
    Hn = (1.0 - theta) * state.H + theta * Omega
    new = replace(state, t=t + 1, X=Xn, Y=Yn, Z=Zn, H=Hn)

    # The max propagates NaN, so one comparison per cell catches NaN, inf
    # and magnitudes past the limit.
    verdicts = [
        (name, ~(np.abs(arr).max(axis=(-2, -1)) <= DIVERGENCE_LIMIT))
        for name, arr in (("x", Xn), ("y", Yn), ("z", Zn), ("h", Hn))
    ]
    if any(bad.any() for _, bad in verdicts):
        diverged: dict[int, str] = {}
        for name, bad in verdicts:
            for c in np.flatnonzero(bad):
                diverged.setdefault(int(c), f"{name}-iterates diverged at iteration {t + 1}")
        raise NumericalDivergence(
            diverged[min(diverged)], iteration=t + 1, cells=diverged, state=new
        )
    return new


def _estimator(hyper: HyperParams) -> HyperParams:
    """``hyper`` with the variant reduced to its Hessian-vector estimator."""
    fo = hyper.variant is Variant.FIRST_ORDER
    return replace(hyper, variant=Variant.FIRST_ORDER if fo else Variant.SECOND_ORDER)


def run(
    problem: BilevelProblem,
    W: "MixingMatrix | list[MixingMatrix]",
    hyper: "HyperParams | list[HyperParams]",
    T: int,
    seed: int,
    probe_every: int = 100,
    metadata: "dict | list[dict] | None" = None,
    wall_limit_s: float = 0.0,
    X0=None,
    Y0=None,
    Z0=None,
    H0=None,
):
    """Iterate T steps, probing metrics at each cell's averaged iterate.

    ``W`` is one mixing matrix, or a list of C advanced together as one
    (C, n, .) swarm: the cells of one trial that share a Hessian-vector
    estimator (the so cells of every topology and the centralized cell, or
    the fo cells). ``hyper`` and ``metadata`` are one for every cell or lists
    aligned with ``W``; the cells must agree on step sizes and estimator.
    Each step draws one sample block that every cell uses, and the draws
    depend on neither topology nor variant, so a cell's record is the one
    its own one-matrix run gives, bit for bit.

    Probes happen at t = 0, every ``probe_every`` iterations, and at t = T.
    Identical inputs give a bit-identical record. With one matrix, ``run``
    returns the RunRecord, and a ``NumericalDivergence`` leaves with the
    probes taken before the blow-up as ``record``. With a list, it returns a
    list aligned with ``W`` whose slots hold each cell's RunRecord or its
    ``NumericalDivergence``: a diverged cell leaves the batch and the others
    go on. The wall-clock limit, which bounds the whole call, or an error
    from a probe ends the call for every cell.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if probe_every < 1:
        raise ValueError("probe_every must be >= 1")
    Ws = [W] if isinstance(W, MixingMatrix) else list(W)
    hypers = [hyper] * len(Ws) if isinstance(hyper, HyperParams) else list(hyper)
    metas = [metadata] * len(Ws) if not isinstance(metadata, list) else metadata
    if not Ws or len(hypers) != len(Ws) or len(metas) != len(Ws):
        raise ConfigMismatch("run needs one or more cells and one hyper and metadata per cell")
    shared = hypers[0]
    if any(_estimator(h) != _estimator(shared) for h in hypers):
        raise ConfigMismatch("cells of one run must share step sizes and estimator")
    weights = np.stack([_weights(w, h) for w, h in zip(Ws, hypers)])
    state = init(problem, Ws, shared, seed, X0=X0, Y0=Y0, Z0=Z0, H0=H0)
    records = []
    for w, h, extra in zip(Ws, hypers, metas):
        meta = {
            "variant": h.variant.value,
            "n_nodes": problem.n_nodes,
            "dim_x": problem.dim_x,
            "dim_y": problem.dim_y,
            "seed": seed,
            "T": T,
            "probe_every": probe_every,
            "rho": w.rho,
        }
        meta.update(extra or {})
        records.append(metrics_mod.RunRecord(metadata=meta))
    outcomes: list = list(records)
    live = list(range(len(Ws)))  # the cell at each position of the state's cell axis

    def probe_live():
        alpha = shared.alpha(state.t)
        for k, c in enumerate(live):
            records[c].add_probe(metrics_mod.probe(problem, state.cells(k), alpha=alpha))

    probe_live()
    start = time.monotonic()
    for t in range(T):
        try:
            state = step(problem, weights, shared, state)
        except NumericalDivergence as exc:
            for k, message in exc.cells.items():
                outcomes[live[k]] = NumericalDivergence(message, iteration=exc.iteration)
                outcomes[live[k]].record = records[live[k]]
            keep = [k for k in range(len(live)) if k not in exc.cells]
            live = [live[k] for k in keep]
            if not live:
                break
            weights, state = weights[keep], exc.state.cells(keep)
        if (t + 1) % probe_every == 0 or t + 1 == T:
            probe_live()
            if wall_limit_s > 0 and time.monotonic() - start > wall_limit_s:
                raise EngineError(
                    f"wall-clock limit {wall_limit_s:.1f}s exceeded at iteration {t + 1}"
                )
    if not isinstance(W, MixingMatrix):
        return outcomes
    if isinstance(outcomes[0], NumericalDivergence):
        raise outcomes[0]
    return outcomes[0]
