"""Synchronous iteration engine for the decentralized bilevel update.

One step follows the single-loop recursion: every node draws one
upper-level and one lower-level sample, forms its direction estimates
from the iteration-t snapshot of all nodes, applies a local gradient
step, and gossips the result with its neighbors. The swarm is held as
stacked (n, .) arrays and every oracle is called once per step for all
nodes. Each seed owns one random generator, from which every step draws
the f-sample and then the g-sample of every node, whatever the variant or
the topology. The moving-average hypergradient estimate h is updated
locally and is not gossiped. The centralized variant runs the same
recursion with exact uniform averaging in place of the gossip matrix,
which keeps a single shared iterate and averages the per-node directions.

A cell is one (mixing matrix, variant, seed). One engine call advances C
cells that share step sizes, for instance every cell of a sweep, as
(C, n, .) arrays with the gossip matrices stacked as (C, n, n): each step,
every cell takes the sample rows of its own seed's generator. The cells
are held second-order first, so the second-order estimator serves the
leading block of the cell axis and the first-order one the tail. Every
operation acts on each cell alone, so a cell's trajectory is the one its
own run gives, bit for bit; a single cell is the case C = 1.

``run`` draws the samples of up to ``BLOCK_STEPS`` steps at a time
(``BilevelProblem.draw_block``), which leaves every generator where the
same number of single steps would, and hands each step its slice. Cells
that gossip with the same weights under the same estimator and seed have
the same trajectory bit for bit (a fully connected so cell and the
centralized cell of its trial, for instance): ``run`` advances one of them
and gives every member its probes.

``run`` keeps each probe's snapshot and evaluates the pending probes as one
batched call of at most ``PROBE_NODE_ROWS`` node rows when the next probe
would not fit, and at the end of the call. Each row is what a probe at its
own time gives, bit for bit, and an error is the one the first failing
probe raises, as if raised at its probe time.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import metrics as metrics_mod
from .directions import HvpPair, hvp_fo, hvp_so
from .problem import BilevelProblem
from .topology import MixingMatrix

DIVERGENCE_LIMIT = 1e12
# A float sum of squares at most this puts every entry inside the limit.
_SMALL_SUM_SQ = (DIVERGENCE_LIMIT / 2) ** 2
# Steps whose samples ``run`` draws at once. Small: the pending block stays
# in memory until its steps have run.
BLOCK_STEPS = 16
# Node rows (probed cells times nodes) that ``run`` evaluates in one probe
# call at most; a probe with more is evaluated alone. In node rows, not
# probes, because the exact helpers build the dense lower Hessian from a
# stack of p such rows.
PROBE_NODE_ROWS = 512


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
        # Negated comparisons, so that NaN fails them too.
        if not 0 <= self.alpha0 < np.inf:
            raise ValueError("alpha0 must be finite and >= 0")
        if not (0 < self.decay_factor <= 1):
            raise ValueError("decay_factor must be in (0, 1]")
        if not self.decay_period >= 1:
            raise ValueError("decay_period must be >= 1")
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be finite and > 0")
        if not all(0 < c < np.inf for c in (self.c1, self.c2, self.c3)):
            raise ValueError("c1, c2, c3 must be finite and > 0")
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be finite and > 0")
        if self.fixed_theta is not None and not 0 <= self.fixed_theta <= 1:
            raise ValueError("fixed_theta must be in [0, 1]")

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
    """Iterates of one cell as (n, .) arrays, or of C cells as (C, n, .) arrays.

    ``rngs`` holds one generator per distinct seed; cell c draws from
    ``rngs[stream[c]]``. ``fo[c]`` is whether cell c uses the first-order
    estimator; those cells follow every second-order one on the cell axis.
    """

    t: int
    X: np.ndarray  # (..., n, d)
    Y: np.ndarray  # (..., n, p)
    Z: np.ndarray  # (..., n, p)
    H: np.ndarray  # (..., n, d)
    rngs: tuple[np.random.Generator, ...] = field(repr=False)
    stream: np.ndarray = field(repr=False)
    fo: np.ndarray = field(repr=False)

    def x_bar(self) -> np.ndarray:
        return self.X.mean(axis=-2)

    def y_bar(self) -> np.ndarray:
        return self.Y.mean(axis=-2)


def _cells(W, hyper, seed) -> tuple[list, list, list]:
    """The call's matrices, hypers and seeds as aligned lists; a single one serves every cell."""
    Ws = [W] if isinstance(W, MixingMatrix) else list(W)
    hypers = [hyper] * len(Ws) if isinstance(hyper, HyperParams) else list(hyper)
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed] * len(Ws)
    if not Ws or len(hypers) != len(Ws) or len(seeds) != len(Ws):
        raise ConfigMismatch(f"{len(Ws)} cells but {len(hypers)} hypers and {len(seeds)} seeds: "
                             "a call needs one or more cells and one hyper and seed each")
    return Ws, hypers, seeds


def init(
    problem: BilevelProblem,
    W: "MixingMatrix | list[MixingMatrix]",
    hyper: "HyperParams | list[HyperParams]",
    seed: "int | list[int]",
    X0: np.ndarray | None = None,
    Y0: np.ndarray | None = None,
    Z0: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> SwarmState:
    """All-zero state (overridable) with one generator per distinct seed.

    One mixing matrix and one seed give an (n, .) state; a list of C
    matrices gives a (C, n, .) state whose cells all start from the same
    (n, .) overrides, with one hyper and one seed for every cell or a list
    of C each. A hyper sets only whether its cell is first-order, and the
    second-order cells must come first, as ``step`` serves them in that order.
    """
    single = isinstance(W, MixingMatrix)
    Ws, hypers, seeds = _cells(W, hyper, seed)
    fo = [h.variant is Variant.FIRST_ORDER for h in hypers]
    if fo != sorted(fo):
        raise ConfigMismatch("every second-order cell must come before the first-order ones")
    distinct = list(dict.fromkeys(seeds))
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
        rngs=tuple(map(np.random.default_rng, distinct)),
        stream=np.array([distinct.index(s) for s in seeds]).reshape(lead),
        fo=np.array(fo).reshape(lead),
    )


def _draw_block(problem, state: SwarmState, k: int):
    """The next k steps' (xi, zeta), every cell with its own rows: cell c takes
    its seed's generator's, as (k, C, n, .) variates, or (k, n, .) for an (n, .) state."""
    blocks = [problem.draw_block(rng, k) for rng in state.rngs]
    return tuple(
        None if parts[0] is None
        else tuple(np.take(np.stack(v, axis=1), state.stream, axis=1) for v in zip(*parts))
        for parts in zip(*blocks)
    )


def _take(sample, index):
    """``sample`` with every variate indexed by ``index``; None stays None."""
    return None if sample is None else tuple(a[index] for a in sample)


def _index(block, index):
    """``block`` with every variate of its samples indexed by ``index``."""
    return tuple(_take(part, index) for part in block)


def _hvp(problem, hyper, state, zeta):
    """Each cell's products under its estimator: so on the leading cells, fo on the tail."""
    X, Y, Z = state.X, state.Y, state.Z
    k = state.fo.size - np.count_nonzero(state.fo)  # the second-order cells
    if k == state.fo.size:
        return hvp_so(problem, X, Y, Z, zeta)
    if k == 0:
        return hvp_fo(problem, X, Y, Z, hyper.delta, zeta)
    so = hvp_so(problem, X[:k], Y[:k], Z[:k], _take(zeta, slice(k)))
    fo = hvp_fo(problem, X[k:], Y[k:], Z[k:], hyper.delta, _take(zeta, slice(k, None)))
    return HvpPair(p_h=np.concatenate([so.p_h, fo.p_h]), p_j=np.concatenate([so.p_j, fo.p_j]))


def _node_terms(problem, hyper, state, sample):
    """Sampled directions of every node of every cell from the iteration-t snapshot."""
    X, Y = state.X, state.Y
    xi, zeta = sample
    pair = _hvp(problem, hyper, state, zeta)
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
    sample=None,
) -> SwarmState:
    """One synchronous iteration; returns a new state sharing the generators.

    ``W`` is the mixing matrix of an (n, .) state, or the (C, n, n) stack of
    the gossip weights of a (C, n, .) state's cells, as ``run`` builds it.
    ``hyper`` sets the step sizes and the finite-difference delta of every
    cell; ``state.fo`` picks each cell's Hessian-vector estimator.
    ``sample`` is the step's (xi, zeta), one slice of a block ``run`` drew;
    without it each generator in ``state.rngs`` draws a one-step block,
    advancing in place.

    The divergence guard gives one verdict per cell: ``NumericalDivergence``
    names every cell that left the finite range, with its own message, and
    carries the new state, whose other cells are sound.
    """
    t = state.t
    alpha, beta = hyper.alpha(t), hyper.beta(t)
    gamma, theta = hyper.gamma(t), hyper.theta(t)

    Wm = W if isinstance(W, np.ndarray) else _weights(W, hyper)
    if sample is None:
        sample = _index(_draw_block(problem, state, 1), 0)
    Gy, Dz, Omega = _node_terms(problem, hyper, state, sample)
    Xn = Wm @ (state.X - hyper.tau * alpha * state.H)
    Yn = Wm @ (state.Y - beta * Gy)
    Zn = Wm @ (state.Z - gamma * Dz)
    Hn = (1.0 - theta) * state.H + theta * Omega
    new = SwarmState(t + 1, Xn, Yn, Zn, Hn, state.rngs, state.stream, state.fo)

    # Iterates whose sum of squares is small pass at once. NaN, inf and
    # squares that overflow fail that test, so the per-cell verdicts run;
    # there the max propagates NaN, so one comparison per cell catches NaN,
    # inf and magnitudes past the limit.
    iterates = (("x", Xn), ("y", Yn), ("z", Zn), ("h", Hn))
    with np.errstate(over="ignore"):
        small = all(a.ravel().dot(a.ravel()) <= _SMALL_SUM_SQ for _, a in iterates)
    if not small:
        diverged: dict[int, str] = {}
        for name, arr in iterates:
            for c in np.flatnonzero(~(np.abs(arr).max(axis=(-2, -1)) <= DIVERGENCE_LIMIT)):
                diverged.setdefault(int(c), f"{name}-iterates diverged at iteration {t + 1}")
        if diverged:
            raise NumericalDivergence(
                diverged[min(diverged)], iteration=t + 1, cells=diverged, state=new
            )
    return new


def run(
    problem: BilevelProblem,
    W: "MixingMatrix | list[MixingMatrix]",
    hyper: "HyperParams | list[HyperParams]",
    T: int,
    seed: "int | list[int]",
    probe_every: int = 100,
    wall_limit_s: float = 0.0,
    X0=None,
    Y0=None,
    Z0=None,
    H0=None,
):
    """Iterate T steps, probing metrics at each cell's averaged iterate.

    ``W`` is one mixing matrix, or a list of C advanced together as one
    (C, n, .) swarm: for a sweep, every cell of every trial. ``hyper`` and
    ``seed`` are one for every cell or lists aligned with ``W``; the cells
    may mix variants but must agree on every other ``HyperParams`` field.
    The swarm holds the cells second-order first, and the outcomes come
    back in the order of ``W``. The draws depend on neither topology nor
    variant, so a cell's record is the one its own one-matrix run gives,
    bit for bit. Cells alike in gossip weights, estimator and seed are
    advanced as one, and each gets that one's probes in its own record.
    Samples are drawn ``BLOCK_STEPS`` steps at a time, never past T, and
    every cell takes its own seed's rows, whether the call has one seed or
    many; ``step`` runs once per iteration on its slice.

    Probes happen at t = 0, every ``probe_every`` iterations, and at t = T,
    each over the live cells. They are evaluated in batches: the pending
    probes' snapshots go to one ``metrics.probe`` call when the next probe
    would take them past ``PROBE_NODE_ROWS`` node rows, before an error
    leaves the call, and at the end. Each row is the one a probe at its own
    time gives, bit for bit, and a failing batch is evaluated again probe
    time by probe time, so the error raised is the one the first failing
    probe raises, as at its probe time; the call may have stepped up to one
    batch further. Identical inputs give a bit-identical record. With one
    matrix, ``run`` returns the RunRecord, and a ``NumericalDivergence``
    leaves with the probes taken before the blow-up as ``record``. With a
    list, it returns a list aligned with ``W`` whose slots hold each cell's
    RunRecord or its ``NumericalDivergence``: a diverged cell leaves the
    batch, and its columns the pending block, while the others go on; its
    pending probes still reach its record. The wall-clock limit (0: none),
    which bounds the whole call, or an error from a probe ends the call for
    every cell, and an earlier probe's error wins.
    """
    for name, value in (("T", T), ("probe_every", probe_every)):
        if not hasattr(value, "__index__") or operator.index(value) < 1:  # floats fail, NaN too
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not wall_limit_s >= 0:  # NaN too
        raise ValueError(f"wall_limit_s must be >= 0, got {wall_limit_s!r}")
    Ws, hypers, seeds = _cells(W, hyper, seed)
    shared = hypers[0]
    if any(replace(h, variant=shared.variant) != shared for h in hypers):
        raise ConfigMismatch("cells of one run must agree on every hyper but the variant")
    # One computation per (gossip weights, estimator, seed): the other
    # fields of a hyper are shared, so such cells agree bit for bit.
    gossip = [_weights(w, h) for w, h in zip(Ws, hypers)]
    alike: dict[tuple, list[int]] = {}
    for c, (wm, h, s) in enumerate(zip(gossip, hypers, seeds)):
        alike.setdefault((wm.tobytes(), h.variant is Variant.FIRST_ORDER, s), []).append(c)
    # The cells behind each position of the state's cell axis: second-order first.
    live = sorted(alike.values(), key=lambda cs: hypers[cs[0]].variant is Variant.FIRST_ORDER)
    first = [cs[0] for cs in live]  # the cell computed for each position
    # init checks every matrix against the problem's node count first.
    state = init(problem, [Ws[c] for c in first], [hypers[c] for c in first],
                 [seeds[c] for c in first], X0=X0, Y0=Y0, Z0=Z0, H0=H0)
    weights = np.stack([gossip[c] for c in first])
    records = [metrics_mod.RunRecord() for _ in Ws]
    outcomes: list = list(records)
    # Probes not yet evaluated, as (state, live) at their probe time. A state
    # holds its arrays by reference, which is safe: ``step`` writes into none.
    pending: list[tuple[SwarmState, list]] = []
    evaluated, owners = [], []  # the evaluated (ts, rows) blocks; the cells of each row

    def flush():
        """Evaluate the pending probes as one call; ``run`` files the rows when it ends."""
        batch = pending[:]
        pending.clear()
        if not batch:
            return
        snaps = [snap for snap, _ in batch]
        counts = [len(cells) for _, cells in batch]
        # A probe reads t, X, Y and Z; each stacked row carries its own t and alpha.
        stacked = replace(
            snaps[0], t=np.repeat([s.t for s in snaps], counts), H=None,
            X=np.concatenate([s.X for s in snaps]), Y=np.concatenate([s.Y for s in snaps]),
            Z=np.concatenate([s.Z for s in snaps]),
        )
        alphas = np.repeat([shared.alpha(s.t) for s in snaps], counts)
        try:
            rows = metrics_mod.probe(problem, stacked, alpha=alphas)
        except Exception:
            # Raise what the first failing probe raises at its own time.
            for s in snaps:
                metrics_mod.probe(problem, s, alpha=shared.alpha(s.t))
            raise
        evaluated.append((stacked.t, rows))
        owners.extend(cs for _, cells in batch for cs in cells)

    def probe_live():
        probes = len(live) + sum(len(cells) for _, cells in pending)
        if probes * problem.n_nodes > PROBE_NODE_ROWS:
            flush()
        pending.append((state, live))

    probe_live()
    start = time.monotonic()
    try:
        for t in range(T):
            if t % BLOCK_STEPS == 0:
                block = _draw_block(problem, state, min(BLOCK_STEPS, T - t))
            try:
                state = step(problem, weights, shared, state, _index(block, t % BLOCK_STEPS))
            except NumericalDivergence as exc:
                for k, message in exc.cells.items():
                    for c in live[k]:
                        outcomes[c] = NumericalDivergence(message, iteration=exc.iteration)
                        outcomes[c].record = records[c]
                keep = [k for k in range(len(live)) if k not in exc.cells]
                live = [live[k] for k in keep]
                if not live:
                    break
                block = _index(block, (slice(None), keep))
                weights, state = weights[keep], replace(
                    exc.state, X=exc.state.X[keep], Y=exc.state.Y[keep], Z=exc.state.Z[keep],
                    H=exc.state.H[keep], stream=exc.state.stream[keep], fo=exc.state.fo[keep],
                )
            if (t + 1) % probe_every == 0 or t + 1 == T:
                probe_live()
                if wall_limit_s > 0 and time.monotonic() - start > wall_limit_s:
                    raise EngineError(
                        f"wall-clock limit {wall_limit_s:.1f}s exceeded at iteration {t + 1}"
                    )
    finally:
        flush()  # on an error too: a pending probe's error came first
    # Each cell's rows, in time order, go to its record as one slice.
    ts, rows = (np.concatenate(parts) for parts in zip(*evaluated))
    filed: dict[int, list[int]] = {}
    for j, cs in enumerate(owners):
        for c in cs:
            filed.setdefault(c, []).append(j)
    for c, mine in filed.items():
        records[c].add_probe(ts[mine], rows[mine])
    if not isinstance(W, MixingMatrix):
        return outcomes
    if isinstance(outcomes[0], NumericalDivergence):
        raise outcomes[0]
    return outcomes[0]
