"""Synchronous iteration engine for the decentralized bilevel update.

One step follows the single-loop recursion: every node draws one
upper-level and one lower-level sample, forms its direction estimates
from the iteration-t snapshot of all nodes, applies a local gradient
step, and gossips the result with its neighbors. The swarm is held as
stacked (n, .) arrays and every oracle is called once per step for all
nodes. Each seed owns one random generator, from which every step draws
the f-sample and then the g-sample of every node, whatever the variant or
the topology. The moving-average hypergradient estimate h is updated
locally and is not gossiped. A second-order cell on the uniform matrix
(``topology.fully_connected``) is the centralized recursion: every row of
the product is the same sum, so it keeps a single shared iterate and
averages the per-node directions.

A cell is one (mixing matrix, HyperParams, seed), which ``init`` fixes on
the state, so ``step`` takes only the state. One engine call advances C
cells, for instance every cell of a sweep, as (C, n, .) arrays with the
gossip weights stacked as (C, n, n): each step, every cell takes the
sample rows of its own seed's generator and its own step sizes. The cells
are held second-order first, so the second-order estimator serves the
leading block of the cell axis and the first-order one the tail. Every
operation acts on each cell alone, so a cell's trajectory is the one its
own run gives, bit for bit; a single cell is the case C = 1.

Both estimators take the stacked (..., n, .) swarm. ``hvp_so`` applies the
sampled Hessian and Jacobian to z; ``hvp_fo`` takes central differences of
sampled first-order gradients at Y + delta Z and Y - delta Z on one sample,
so on quadratic lower levels it matches ``hvp_so`` up to rounding.

The state holds the pending samples of ``BLOCK_STEPS`` steps
(``BilevelProblem.draw_block``), each generator's draws once however many
cells share it, as (BLOCK_STEPS, G, n, .) variates for G seeds. Each step
takes its cells' rows of one slice, and the step after the last draws the
next block, which leaves every generator where as many single draws would. Cells
that gossip with the same weights under the same estimator, schedule and
seed have the same trajectory bit for bit (a trial's fully connected so cell
and its centralized reference, for instance): ``run`` advances one of them
and gives every member its probes.

``run`` keeps what each probe reads and evaluates the pending probes as one
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
from .problem import BilevelProblem
from .topology import MixingMatrix

DIVERGENCE_LIMIT = 1e12
# A float sum of squares at most this puts every entry inside the limit.
_SMALL_SUM_SQ = (DIVERGENCE_LIMIT / 2) ** 2
# Steps whose samples ``step`` draws at once. Small: the pending block,
# BLOCK_STEPS x seeds x n rows per variate, stays in memory until its steps have run.
BLOCK_STEPS = 16
# Node rows (probed cells times nodes) that ``run`` evaluates in one probe
# call at most; a probe with more is evaluated alone. In node rows, not
# probes, because where the lower Hessian depends on the point (ridge,
# log-cosh) the exact helpers build it from a stack of p such rows.
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
        object.__setattr__(self, "variant", Variant(self.variant))  # a name, "fo", is its member
        # Negated comparisons, so that NaN fails them too.
        if not 0 <= self.alpha0 < np.inf:
            raise ValueError("alpha0 must be finite and >= 0")
        if not (0 < self.decay_factor <= 1):
            raise ValueError("decay_factor must be in (0, 1]")
        if not hasattr(self.decay_period, "__index__") or operator.index(self.decay_period) < 1:
            raise ValueError(f"decay_period must be an integer >= 1, got {self.decay_period!r}")
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

    def rates(self, t: int) -> tuple[float, ...]:
        """A step's (tau alpha_t, beta_t, gamma_t, theta_t, delta), as Python floats."""
        alpha = self.alpha(t)
        theta = self.c3 * alpha if self.fixed_theta is None else self.fixed_theta
        return self.tau * alpha, self.c1 * alpha, self.c2 * alpha, theta, self.delta


@dataclass
class SwarmState:
    """Iterates of one cell as (n, .) arrays, or of C cells as (C, n, .) arrays.

    ``weights`` holds each cell's gossip matrix. ``hyper`` sets the step
    sizes and the finite-difference delta: one HyperParams when every cell
    shares every field but the variant, else a tuple of one per cell. A
    shared one's variant is cell 0's estimator only: ``fo`` decides each
    cell's estimator.
    ``rngs`` holds one generator per distinct seed; cell c draws from
    ``rngs[stream[c]]``. ``fo[c]`` is whether cell c uses the first-order
    estimator; those cells follow every second-order one on the cell axis.
    ``block`` holds the pending samples, and ``row`` the next step's row of them.
    """

    t: int
    X: np.ndarray  # (..., n, d)
    Y: np.ndarray  # (..., n, p)
    Z: np.ndarray  # (..., n, p)
    H: np.ndarray  # (..., n, d)
    rngs: tuple[np.random.Generator, ...] = field(repr=False)
    stream: np.ndarray = field(repr=False)
    fo: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # (..., n, n)
    hyper: "HyperParams | tuple[HyperParams, ...]" = field(repr=False)
    block: tuple = field(default=(None, None), repr=False)  # (xi, zeta), (BLOCK_STEPS, G, n, .)
    row: int = field(default=BLOCK_STEPS, repr=False)  # BLOCK_STEPS: the next step draws

    def x_bar(self) -> np.ndarray:
        return self.X.mean(axis=-2)

    def y_bar(self) -> np.ndarray:
        return self.Y.mean(axis=-2)


def _cells(W, hyper, seed) -> tuple[list, list, list]:
    """The call's matrices, hypers and seeds as aligned lists; a single one serves every cell."""
    Ws = [W] if isinstance(W, MixingMatrix) else list(W)
    hypers = [hyper] * len(Ws) if isinstance(hyper, HyperParams) else list(hyper)
    try:  # one integer seeds every cell, and anything else holds one integer per cell
        seeds = [operator.index(s) for s in ([seed] * len(Ws) if np.ndim(seed) == 0 else seed)]
    except (TypeError, ValueError):
        seeds = None
    if seeds is None or min(seeds, default=0) < 0:  # default_rng's error would name no seed
        raise ConfigMismatch(f"seed must be one non-negative integer or one per cell, got {seed!r}")
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
    of C each. The state keeps each cell's gossip weights, hyper and
    estimator; the second-order cells must come first, as ``step`` serves
    them in that order.
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
    shared = len({replace(h, variant=Variant.SECOND_ORDER) for h in hypers}) == 1
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
        weights=Ws[0].weights if single else np.stack([w.weights for w in Ws]),
        hyper=hypers[0] if shared else tuple(hypers),
    )


def _draw_block(problem, state: SwarmState, k: int):
    """The next k steps' (xi, zeta) of every generator, as (k, G, n, .) variates:
    row g is ``state.rngs[g]``'s, held once however many cells draw from it."""
    blocks = [problem.draw_block(rng, k) for rng in state.rngs]
    return tuple(
        None if parts[0] is None else tuple(np.stack(v, axis=1) for v in zip(*parts))
        for parts in zip(*blocks)
    )


def _take(sample, index):
    """``sample`` with every variate indexed by ``index``; None stays None."""
    return None if sample is None else tuple(a[index] for a in sample)


class DegenerateDelta(ValueError):
    pass


@dataclass(frozen=True)
class HvpPair:
    p_h: np.ndarray  # (..., n, p): row i approximates (d^2 g_i / dy dy) z_i
    p_j: np.ndarray  # (..., n, d): row i approximates (d^2 g_i / dx dy) z_i


def hvp_so(problem: BilevelProblem, X, Y, Z, sample) -> HvpPair:
    """Sampled second-order products."""
    return HvpPair(
        p_h=problem.shess_yy_g(X, Y, Z, sample), p_j=problem.scross_xy_g(X, Y, Z, sample)
    )


def hvp_fo(problem: BilevelProblem, X, Y, Z, delta: float | np.ndarray, sample) -> HvpPair:
    """Central-difference products from first-order gradients only.

    Both perturbed evaluations reuse the same sample, and each oracle
    evaluates them as one call on the stacked pair (Y + delta Z, Y - delta Z);
    leading axes are batch axes, so each half is what its own call gives.
    ``delta`` is a float, or one per cell, such as (C, 1, 1). The squared
    bias is bounded by (1/3) L^2 delta^2 |z|^4 with L the Hessian-Lipschitz
    constant of the lower loss.
    """
    low, high = (delta.min(), delta.max()) if isinstance(delta, np.ndarray) else (delta, delta)
    if not 0 < low <= high < np.inf:  # NaN too
        raise DegenerateDelta(f"delta must be finite and positive, got {delta}")
    dZ = delta * Z
    Y_pm = np.stack([Y + dZ, Y - dZ])
    gy = problem.sgrad_y_g(X[None], Y_pm, sample)
    gx = problem.sgrad_x_g(X[None], Y_pm, sample)
    return HvpPair(p_h=(gy[0] - gy[1]) / (2.0 * delta), p_j=(gx[0] - gx[1]) / (2.0 * delta))


def _hvp(problem, delta, state, zeta):
    """Each cell's products under its estimator: so on the leading cells, fo on the tail."""
    X, Y, Z = state.X, state.Y, state.Z
    k = state.fo.size - np.count_nonzero(state.fo)  # the second-order cells
    if k == state.fo.size:
        return hvp_so(problem, X, Y, Z, zeta)
    if k == 0:
        return hvp_fo(problem, X, Y, Z, delta, zeta)
    so = hvp_so(problem, X[:k], Y[:k], Z[:k], _take(zeta, slice(k)))
    tail = delta[k:] if isinstance(delta, np.ndarray) else delta  # each fo cell's own delta
    fo = hvp_fo(problem, X[k:], Y[k:], Z[k:], tail, _take(zeta, slice(k, None)))
    return HvpPair(p_h=np.concatenate([so.p_h, fo.p_h]), p_j=np.concatenate([so.p_j, fo.p_j]))


def step(problem: BilevelProblem, state: SwarmState) -> SwarmState:
    """One synchronous iteration; returns a new state sharing the generators.

    Each cell steps as ``init`` fixed it on the state: it gossips with
    ``state.weights``, takes its step sizes and finite-difference delta from
    ``state.hyper`` (as Python floats when that is one HyperParams, else as
    (C, 1, 1) arrays of each cell's floats, which round as its floats
    would), and ``state.fo`` picks its Hessian-vector estimator. Nothing
    checks these against what ``init`` was given: a caller stepping by hand
    may change them between steps with ``dataclasses.replace(state, ...)``.
    Each cell takes its seed's rows of ``state.block``, row ``state.row``;
    when the block is spent, the generators in ``state.rngs`` first draw the
    next ``BLOCK_STEPS`` steps in place, and the new state carries block and row.

    The divergence guard gives one verdict per cell: ``NumericalDivergence``
    names every cell that left the finite range, with its own message, and
    carries the new state, whose other cells are sound.
    """
    t, hyper, Wm = state.t, state.hyper, state.weights
    rates = hyper.rates(t) if isinstance(hyper, HyperParams) else (
        np.array([h.rates(t) for h in hyper]).T[..., None, None])  # (5, C, 1, 1)
    tau_alpha, beta, gamma, theta, delta = rates
    block, row = state.block, state.row
    if row == BLOCK_STEPS:
        block, row = _draw_block(problem, state, BLOCK_STEPS), 0
    # (C, n, .) variates, or (n, .) for the 0-d stream of an (n, .) state.
    xi, zeta = (None if part is None else tuple(v[row].take(state.stream, axis=0) for v in part)
                for part in block)
    # Every node's sampled directions, from the iteration-t snapshot.
    X, Y = state.X, state.Y
    pair = _hvp(problem, delta, state, zeta)
    Gy = problem.sgrad_y_g(X, Y, zeta)
    Dz = pair.p_h - problem.sgrad_y_f(X, Y, xi)
    Omega = problem.sgrad_x_f(X, Y, xi) - pair.p_j
    Xn = Wm @ (state.X - tau_alpha * state.H)
    Yn = Wm @ (state.Y - beta * Gy)
    Zn = Wm @ (state.Z - gamma * Dz)
    Hn = (1.0 - theta) * state.H + theta * Omega
    new = SwarmState(t + 1, Xn, Yn, Zn, Hn, state.rngs, state.stream, state.fo, Wm, hyper,
                     block, row + 1)

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
    ``seed`` are one for every cell or lists aligned with ``W``. The swarm
    holds the cells second-order first, and the outcomes come back in the
    order of ``W``. The draws depend on neither topology nor hyper, so a
    cell's record is the one its own one-matrix run gives, bit for bit.
    ``init`` fixes each cell's gossip weights and schedule on the state, and
    cells sharing a schedule step with Python floats, as one cell does.
    Cells alike in gossip weights, estimator, schedule and seed are
    advanced as one, and each gets that one's probes in its own record.
    ``step`` draws the samples from the state's pending block, as it does
    for a caller stepping by hand, so the generators stop at the first
    multiple of ``BLOCK_STEPS`` at or past T.

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
    batch while the others go on; its pending probes still reach its
    record. The wall-clock limit (0: none), which bounds the whole call and
    is checked after each probe and every ``BLOCK_STEPS`` steps, or an error
    from a probe ends the call for every cell, and an earlier probe's error
    wins.
    """
    for name, value in (("T", T), ("probe_every", probe_every)):
        if not hasattr(value, "__index__") or operator.index(value) < 1:  # floats fail, NaN too
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not wall_limit_s >= 0:  # NaN too
        raise ValueError(f"wall_limit_s must be >= 0, got {wall_limit_s!r}")
    Ws, hypers, seeds = _cells(W, hyper, seed)
    # One computation per (gossip weights, estimator, schedule, seed): such
    # cells agree bit for bit.
    schedules = [replace(h, variant=Variant.SECOND_ORDER) for h in hypers]
    alike: dict[tuple, list[int]] = {}
    for c, (w, h, sch, s) in enumerate(zip(Ws, hypers, schedules, seeds)):
        key = (w.weights.tobytes(), h.variant is Variant.FIRST_ORDER, sch, s)
        alike.setdefault(key, []).append(c)
    # The cells behind each position of the state's cell axis: second-order first.
    live = sorted(alike.values(), key=lambda cs: hypers[cs[0]].variant is Variant.FIRST_ORDER)
    first = [cs[0] for cs in live]  # the cell computed for each position
    # init checks every matrix against the problem's node count first.
    state = init(problem, [Ws[c] for c in first], [hypers[c] for c in first],
                 [seeds[c] for c in first], X0=X0, Y0=Y0, Z0=Z0, H0=H0)
    del alike  # no byte key of a cell outlives its grouping
    records = [metrics_mod.RunRecord() for _ in Ws]
    outcomes: list = list(records)
    # Probes not yet evaluated, as (t, X, Y, Z, live) at their probe time: what
    # a probe reads, held by reference, which is safe as ``step`` writes into no
    # array, and not the state, whose pending samples would stay alive too.
    pending: list[tuple] = []
    evaluated, owners = [], []  # the evaluated (ts, rows) blocks; the cells of each row

    def flush():
        """Evaluate the pending probes as one call; ``run`` files the rows when it ends."""
        batch = pending[:]
        pending.clear()
        if not batch:
            return
        ts, Xs, Ys, Zs, lives = zip(*batch)
        # Each stacked row carries its own t and alpha.
        stacked = replace(state, t=np.repeat(ts, list(map(len, lives))), H=None,
                          X=np.concatenate(Xs), Y=np.concatenate(Ys), Z=np.concatenate(Zs))
        alphas = [[hypers[cs[0]].alpha(t) for cs in cells] for t, cells in zip(ts, lives)]
        try:
            rows = metrics_mod.probe(problem, stacked, alpha=np.concatenate(alphas))
        except Exception:
            # Raise what the first failing probe raises at its own time.
            for t, X, Y, Z, alpha in zip(ts, Xs, Ys, Zs, alphas):
                metrics_mod.probe(problem, replace(stacked, t=t, X=X, Y=Y, Z=Z),
                                  alpha=np.array(alpha))
            raise
        evaluated.append((stacked.t, rows))
        owners.extend(cs for cells in lives for cs in cells)

    def probe_live():
        probes = len(live) + sum(len(entry[-1]) for entry in pending)
        if probes * problem.n_nodes > PROBE_NODE_ROWS:
            flush()
        pending.append((state.t, state.X, state.Y, state.Z, live))

    probe_live()
    start = time.monotonic()
    try:
        for t in range(T):
            try:
                state = step(problem, state)
            except NumericalDivergence as exc:
                for k, message in exc.cells.items():
                    for c in live[k]:
                        outcomes[c] = NumericalDivergence(message, iteration=exc.iteration)
                        outcomes[c].record = records[c]
                keep = [k for k in range(len(live)) if k not in exc.cells]
                live = [live[k] for k in keep]
                if not live:
                    break
                s = exc.state  # the pending block and row are per generator and stay
                state = replace(s, X=s.X[keep], Y=s.Y[keep], Z=s.Z[keep], H=s.H[keep],
                                stream=s.stream[keep], fo=s.fo[keep], weights=s.weights[keep],
                                hyper=s.hyper if isinstance(s.hyper, HyperParams)
                                else tuple(s.hyper[k] for k in keep))
            probed = (t + 1) % probe_every == 0 or t + 1 == T
            if probed:
                probe_live()
            # After each probe and every block of steps, so few probes do not defer the limit.
            if wall_limit_s > 0 and (probed or (t + 1) % BLOCK_STEPS == 0) and (
                    time.monotonic() - start > wall_limit_s):
                raise EngineError(f"wall-clock limit {wall_limit_s}s exceeded at iteration {t + 1}")
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
