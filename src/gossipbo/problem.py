"""Bilevel problem oracles and synthetic families with analytic ground truth.

A problem bundles per-node upper losses f_i(x, y) and lower losses g_i(x, y)
together with their derivative oracles. Upper objective:

    Phi(x) = (1/N) sum_i f_i(x, y*(x)),   y*(x) = argmin_y (1/N) sum_i g_i(x, y)

Oracles are node-batched: they take the swarm's points stacked by node,
(..., n, dim) arrays, and return row i for node i of every leading index;
leading axes are batch axes, each acted on alone. The iteration engine
calls each oracle once per step for every node of every cell it advances.
The verification helpers (``lower_solve``, ``z_star``, ``hypergradient_exact``,
``phi_value``) take one point x (d,) or a stack (..., d), repeat each point
on every node's row and average over the node axis, so a probe of many
cells is one call of each; ``z_star`` and ``hypergradient_exact`` accept
y*(x), one row per point, from a caller that has already solved for it.

Derivative oracles are matrix-free: Hessian/Jacobian information is exposed
only through vector products. Dense matrices appear only inside the
verification helpers, which assemble the p x p lower Hessian from one
product call on a stack of basis vectors at desk scale, broadcast only as
far as the family's product needs: over the points only where the Hessian
depends on the point (ridge, log-cosh; not the quadratic).

Each derivative is one oracle with an optional sample: with none it is the
exact oracle the verification helpers use, with one the sampled oracle the
engine steps with. ``draw_block`` is a family's one draw: it draws the
samples of k steps from one caller-owned numpy Generator, each step the
f-sample and then the g-sample, each variate with row i for node i, in a
fixed order per family that only ``draw_block`` writes. The draws depend
on neither the variant nor the topology, so runs are reproducible and
common-random-number comparisons across algorithm variants are exact.
"""

from __future__ import annotations

import abc

import numpy as np

# Half-width of the uniform feature distribution in the regression family.
FEATURE_HALF_WIDTH = 2.0 * 1.5 ** (1.0 / 3.0)
# Per-coordinate population variance of those features: (2b)^2 / 12 = b^2 / 3.
FEATURE_VAR = FEATURE_HALF_WIDTH**2 / 3.0

LOWER_SOLVE_TOL = 1e-10


class ProblemError(RuntimeError):
    pass


class LowerSolveDiverged(ProblemError):
    pass


class SingularHessian(ProblemError):
    pass


class BilevelProblem(abc.ABC):
    """Node-batched oracle bundle.

    Every oracle takes the swarm's points stacked by node -- X (..., n, dim_x),
    Y (..., n, dim_y), V (..., n, dim_y) -- and returns row i for node i of
    every leading index; values come back as an (..., n) array. Each
    derivative oracle takes an optional sample last, ``xi`` for f and
    ``zeta`` for g: exact with none, sampled with one. A sample is (n, .),
    or carries the points' leading axes, and broadcasts over them.
    ``draw_block(rng, k)`` is the one draw: it returns the (xi, zeta)
    samples of k steps from the run's generator, each variate as a
    (k, n, .) block whose row j is step j's sample and whose node axis has
    row i for node i. Each step draws its f-sample and then its g-sample.
    A deterministic family inherits ``(None, None)``.
    """

    def __init__(self, n_nodes: int, dim_x: int, dim_y: int):
        self.n_nodes = n_nodes
        self.dim_x = dim_x
        self.dim_y = dim_y

    # -- values ---------------------------------------------------------
    @abc.abstractmethod
    def f_value(self, X, Y) -> np.ndarray: ...

    @abc.abstractmethod
    def g_value(self, X, Y) -> np.ndarray: ...

    # -- first-order oracles: exact with no sample, sampled with one -----
    @abc.abstractmethod
    def grad_x_f(self, X, Y, xi=None) -> np.ndarray: ...

    @abc.abstractmethod
    def grad_y_f(self, X, Y, xi=None) -> np.ndarray: ...

    @abc.abstractmethod
    def grad_x_g(self, X, Y, zeta=None) -> np.ndarray: ...

    @abc.abstractmethod
    def grad_y_g(self, X, Y, zeta=None) -> np.ndarray: ...

    # -- second-order vector products, likewise -------------------------
    @abc.abstractmethod
    def hess_yy_g(self, X, Y, V, zeta=None) -> np.ndarray:
        """Row i is (d^2 g_i / dy dy) v_i, a dim_y vector."""

    @abc.abstractmethod
    def cross_xy_g(self, X, Y, V, zeta=None) -> np.ndarray:
        """Row i is (d^2 g_i / dx dy) v_i, a dim_x vector."""

    # -- samples ----------------------------------------------------------
    # The default makes a deterministic family a valid sigma = 0 stochastic
    # one: every sample is None.
    def draw_block(self, rng: np.random.Generator, k: int):
        return None, None

    # The benchmark's tracer looks these two names up on every family; they
    # go with the tracer edit of ROADMAP items 1 and 9. They raise, so that
    # no caller gets None where it used to get a sample.
    def draw_f_sample(self, rng: np.random.Generator):
        raise NotImplementedError("draw samples with draw_block(rng, k)")

    def draw_g_sample(self, rng: np.random.Generator):
        raise NotImplementedError("draw samples with draw_block(rng, k)")

    # The engine steps through these forwards, since the benchmark's tracer
    # times a step's oracle work by their names. They go when the tracer
    # wraps the oracles above (ROADMAP items 1 and 9).
    def sgrad_x_f(self, X, Y, xi) -> np.ndarray:
        return self.grad_x_f(X, Y, xi)

    def sgrad_y_f(self, X, Y, xi) -> np.ndarray:
        return self.grad_y_f(X, Y, xi)

    def sgrad_x_g(self, X, Y, zeta) -> np.ndarray:
        return self.grad_x_g(X, Y, zeta)

    def sgrad_y_g(self, X, Y, zeta) -> np.ndarray:
        return self.grad_y_g(X, Y, zeta)

    def shess_yy_g(self, X, Y, V, zeta) -> np.ndarray:
        return self.hess_yy_g(X, Y, V, zeta)

    def scross_xy_g(self, X, Y, V, zeta) -> np.ndarray:
        return self.cross_xy_g(X, Y, V, zeta)

    # -- analytic ground truth (when available) -------------------------
    def y_star(self, x: np.ndarray) -> np.ndarray | None:  # at each point of x (..., d)
        return None

    def phi_star(self) -> float | None:
        return None

    def mean_f_value(self, x, y):
        """Network-mean upper loss at each point (x, y) shared by every node."""
        return np.mean(self.f_value(_rows(self, x), _rows(self, y)), axis=-1)


# Row-wise products over the last axis but one. They go through np.matmul
# so that each row rounds exactly as the single-node product M[i] @ v[i]
# would, whatever leading axes the operands carry.
def _mv(M, V):
    """Row i is M[i] @ V[i] (M may also be one matrix shared by all rows)."""
    return np.matmul(M, V[..., None])[..., 0]


def _mtv(M, V):
    """Row i is M[i].T @ V[i]."""
    return _mv(np.swapaxes(M, -1, -2), V)


def _dot(U, V):
    """Row i is U[i] @ V[i]."""
    return np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]


def _quad(U, M, V):
    """Row i is U[i] @ M[i] @ V[i]."""
    return np.matmul(np.matmul(U[..., None, :], M), V[..., :, None])[..., 0, 0]


def _coordinates(V, dim: int) -> np.ndarray:
    """Row i is np.eye(dim, V.shape[-1]) @ V[i], bit for bit: the first
    coordinates of V[i] kept, the rest zero. The ``+ 0.0`` matches the +0.0
    that the product's sum starts from, which turns a -0.0 into +0.0."""
    k = min(dim, V.shape[-1])
    out = np.zeros(V.shape[:-1] + (dim,))
    np.add(V[..., :k], 0.0, out=out[..., :k])
    return out


def _rows(problem: BilevelProblem, v) -> np.ndarray:
    """Each point of ``v`` (..., dim) repeated on every node's row: (..., n, dim)."""
    return np.repeat(np.asarray(v)[..., None, :], problem.n_nodes, axis=-2)


def _mean_over_nodes(A: np.ndarray) -> np.ndarray:
    """Mean over the node axis (-2), summed node by node in node order.

    On a C-contiguous A wider than one column, ``np.add.reduce`` adds whole
    node rows in order, from a start of -0.0 so that a column of -0.0 sums
    to -0.0. Where the node axis is the innermost loop (one column, or
    another layout), it would sum pairwise, as ``A.mean(axis=-2)`` does, so
    there a running sum keeps the rounding independent of the layout.
    """
    if A.shape[-1] > 1 and A.flags.c_contiguous:
        return np.add.reduce(A, axis=-2, initial=-0.0) / A.shape[-2]
    return np.cumsum(A, axis=-2)[..., -1, :] / A.shape[-2]


def _mean_grad_y_g(problem: BilevelProblem, x, y) -> np.ndarray:
    return _mean_over_nodes(problem.grad_y_g(_rows(problem, x), _rows(problem, y)))


def dense_lower_hessian(problem: BilevelProblem, x, y) -> np.ndarray:
    """Network-mean lower Hessian (..., p, p) at each point: column k is the
    node mean of the products with e_k, all p basis vectors in one call. The
    basis broadcasts only as far as the product does, so a Hessian that
    ignores the point is assembled once and then broadcast to every point."""
    p = problem.dim_y
    X, Y = _rows(problem, x), _rows(problem, y)
    basis = np.eye(p).reshape((p,) + (1,) * (Y.ndim - 1) + (p,))
    columns = _mean_over_nodes(problem.hess_yy_g(X[None], Y[None], basis))
    H = np.moveaxis(columns, 0, -1)
    return np.ascontiguousarray(np.broadcast_to(H, Y.shape[:-2] + (p, p)))


def _newton(problem: BilevelProblem, x: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Damped Newton on the mean lower loss at one point x, from y = 0."""
    y = np.zeros(problem.dim_y)
    for _ in range(max_iter):
        grad = _mean_grad_y_g(problem, x, y)
        if np.linalg.norm(grad) <= tol * max(1.0, float(np.linalg.norm(y))):
            return y
        H = dense_lower_hessian(problem, x, y)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("lower Hessian solve failed") from exc
        # Backtrack on the gradient norm, the quantity the stopping rule
        # measures; plain value backtracking can stall on rounding once g
        # differences drop below float resolution.
        gn = np.linalg.norm(grad)
        t = 1.0
        while t > 1e-8:
            cand = y - t * step
            if np.linalg.norm(_mean_grad_y_g(problem, x, cand)) < gn:
                break
            t *= 0.5
        y = y - t * step
    return y


def lower_solve(
    problem: BilevelProblem,
    x: np.ndarray,
    tol: float = LOWER_SOLVE_TOL,
    max_iter: int = 100,
) -> np.ndarray:
    """Minimize the mean lower loss g(x, .) to gradient norm <= tol at each point x.

    Uses the family's closed form for all points at once when one exists,
    otherwise damped Newton point by point with the densely assembled mean
    Hessian (desk-scale p). The residual is checked at every point.
    """
    x = np.asarray(x, dtype=float)
    y = problem.y_star(x)
    if y is None:
        points = x.reshape(-1, problem.dim_x)
        y = np.array([_newton(problem, xk, tol, max_iter) for xk in points])
        y = y.reshape(x.shape[:-1] + (problem.dim_y,))
    residual = np.linalg.norm(_mean_grad_y_g(problem, x, y), axis=-1)
    # Negated, so that a NaN residual fails too.
    bad = ~(residual <= tol * np.maximum(1.0, np.linalg.norm(y, axis=-1)))
    if np.any(bad):
        raise LowerSolveDiverged(
            f"lower-level residual {np.max(residual[bad]):.3e} above tolerance {tol:.1e}"
        )
    return y


def _lower_at(problem: BilevelProblem, x: np.ndarray, y) -> np.ndarray:
    """y*(x) at each point x: the caller's ``y``, one row per point, or solved for."""
    if y is None:
        return lower_solve(problem, x)
    if np.shape(y) != x.shape[:-1] + (problem.dim_y,):
        raise ValueError(f"y has shape {np.shape(y)} but x has shape {x.shape}: "
                         f"y needs one {problem.dim_y}-vector per point of x")
    return y


def z_star(problem: BilevelProblem, x: np.ndarray, *, y=None) -> np.ndarray:
    """Solve (mean lower Hessian at y*(x)) z = mean grad_y f(x, y*(x)) at each point x.

    ``y`` is y*(x) when the caller has already solved for it, with x's shape
    but dim_y last. One stacked solve treats each point alone; residual and
    finiteness are checked at each.
    """
    x = np.asarray(x, dtype=float)
    y = _lower_at(problem, x, y)
    H = dense_lower_hessian(problem, x, y)
    rhs = _mean_over_nodes(problem.grad_y_f(_rows(problem, x), _rows(problem, y)))
    try:
        z = np.linalg.solve(H, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularHessian("lower Hessian is singular") from exc
    residual = np.linalg.norm(_mv(H, z) - rhs, axis=-1)
    bad = residual > LOWER_SOLVE_TOL * np.maximum(1.0, np.linalg.norm(rhs, axis=-1))
    if not np.all(np.isfinite(z)) or np.any(bad):
        raise SingularHessian(f"linear system residual {np.max(residual):.3e}")
    return z


def hypergradient_exact(problem: BilevelProblem, x: np.ndarray, *, y=None) -> np.ndarray:
    """Implicit-differentiation gradient of Phi at each point x.

    grad Phi(x) = mean grad_x f(x, y*) - (mean d^2 g / dx dy) z*(x). The
    lower problem is solved once, for y* and z* alike; ``y`` is y*(x) when
    the caller has already solved for it, with x's shape but dim_y last.
    """
    x = np.asarray(x, dtype=float)
    y = _lower_at(problem, x, y)
    X, Y = _rows(problem, x), _rows(problem, y)
    Z = _rows(problem, z_star(problem, x, y=y))
    return _mean_over_nodes(problem.grad_x_f(X, Y)) - _mean_over_nodes(problem.cross_xy_g(X, Y, Z))


def phi_value(problem: BilevelProblem, x: np.ndarray) -> float:
    """Upper objective at the lower-level minimizer: mean_i f_i(x, y*(x)), at each point x."""
    x = np.asarray(x, dtype=float)
    return problem.mean_f_value(x, lower_solve(problem, x))


# ---------------------------------------------------------------------------
# Quadratic verification family
# ---------------------------------------------------------------------------


class QuadraticBilevel(BilevelProblem):
    """Per-node quadratics; admits closed forms for y*, z*, and grad Phi.

    f_i(x, y) = 1/2 y'P_i y + y'(Q_i x + q_i) + 1/2 x'R_i x
    g_i(x, y) = 1/2 y'A_i y + y'(B_i x + c_i)

    P (n, p, p) and R (n, d, d) are symmetric, A (n, p, p) is symmetric
    positive definite at every node, Q and B are (n, p, d), q and c (n, p).
    """

    def __init__(self, P, Q, q, R, A, B, c, noise_scale: float = 0.0):
        n, p, d = A.shape[0], A.shape[1], B.shape[2]
        self.P, self.Q, self.q, self.R, self.A, self.B, self.c = P, Q, q, R, A, B, c
        self.A_bar = A.mean(axis=0)
        self.B_bar = B.mean(axis=0)
        self.c_bar = c.mean(axis=0)
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("every A_i must be positive definite")
        super().__init__(n, d, p)
        self.sigma = noise_scale
        self._a1, self._a2, self._a3 = 0.5, 0.4, 0.4
        self._phi_star = None

    def f_value(self, X, Y):
        return (_quad(0.5 * Y, self.P, Y) + _dot(Y, _mv(self.Q, X) + self.q)
                + _quad(0.5 * X, self.R, X))

    def g_value(self, X, Y):
        return _quad(0.5 * Y, self.A, Y) + _dot(Y, _mv(self.B, X) + self.c)

    # A sampled oracle is the exact one plus sigma times the sample's noise.
    # One f-sample is a pair of unit-variance direction noises, e_y (n, p)
    # then e_x (n, d); one g-sample additionally carries scalar
    # Hessian/Jacobian noises s, s2 (n,), so perturbed-point gradients of
    # the same sample stay consistent. The cross terms go through the
    # truncated identity J = np.eye(p, d) (``_coordinates``); its unit
    # spectral norm keeps the Hessian-product noise within sigma^2 |z|^2.
    def grad_x_f(self, X, Y, xi=None):
        grad = _mtv(self.Q, Y) + _mv(self.R, X)
        if xi is None:
            return grad
        return grad + self.sigma * self._a1 * xi[1] / np.sqrt(self.dim_x)

    def grad_y_f(self, X, Y, xi=None):
        grad = _mv(self.P, Y) + _mv(self.Q, X) + self.q
        if xi is None:
            return grad
        return grad + self.sigma * self._a1 * xi[0] / np.sqrt(self.dim_y)

    def grad_x_g(self, X, Y, zeta=None):
        grad = _mtv(self.B, Y)
        if zeta is None:
            return grad
        e_y, e_x, s, s2 = zeta
        noise = (
            self._a1 * e_x / np.sqrt(self.dim_x)
            + self._a3 * s2[..., None] * _coordinates(Y, self.dim_x)
        )
        return grad + self.sigma * noise

    def grad_y_g(self, X, Y, zeta=None):
        grad = _mv(self.A, Y) + _mv(self.B, X) + self.c
        if zeta is None:
            return grad
        e_y, e_x, s, s2 = zeta
        noise = (
            self._a1 * e_y / np.sqrt(self.dim_y)
            + self._a2 * s[..., None] * Y
            + self._a3 * s2[..., None] * _coordinates(X, self.dim_y)
        )
        return grad + self.sigma * noise

    def hess_yy_g(self, X, Y, V, zeta=None):
        hv = _mv(self.A, V)
        if zeta is None:
            return hv
        return hv + self.sigma * self._a2 * zeta[2][..., None] * V

    def cross_xy_g(self, X, Y, V, zeta=None):
        cv = _mtv(self.B, V)
        if zeta is None:
            return cv
        return cv + self.sigma * self._a3 * zeta[3][..., None] * _coordinates(V, self.dim_x)

    def draw_block(self, rng, k):
        # One (k, .) fill of normals: each step's f-sample, e_y (n, p) then
        # e_x (n, d), then its g-sample, e_y, e_x, s (n,) and s2 (n,).
        n, p, d = self.n_nodes, self.dim_y, self.dim_x
        raw = rng.standard_normal((k, n * (2 * p + 2 * d + 2)))
        e_yf, e_xf, e_yg, e_xg, s, s2 = np.split(raw, np.cumsum([n * p, n * d] * 2 + [n]), axis=1)
        return (
            (e_yf.reshape(k, n, p), e_xf.reshape(k, n, d)),
            (e_yg.reshape(k, n, p), e_xg.reshape(k, n, d), s, s2),
        )

    # analytic -----------------------------------------------------------
    def y_star(self, x):
        rhs = -(_mv(self.B_bar, x) + self.c_bar)  # stacked: each point solved alone
        return np.linalg.solve(self.A_bar, rhs[..., None])[..., 0]

    def x_opt(self) -> np.ndarray:
        """Minimizer of Phi for this family (dense closed form).

        Phi is quadratic in x; solve grad Phi(x) = 0 with its linear map,
        whose column k is grad Phi(e_k) - grad Phi(0).
        """
        d = self.dim_x
        G = hypergradient_exact(self, np.vstack([np.zeros(d), np.eye(d)]))
        return np.linalg.solve((G[1:] - G[0]).T, -G[0])

    def phi_star(self):
        # A constant of the instance, derived on the first call only: the
        # probes ask for it every time, and construction need not pay for it.
        if self._phi_star is None:
            self._phi_star = phi_value(self, self.x_opt())
        return self._phi_star


def make_quadratic(
    seed: int,
    n_nodes: int,
    d: int,
    p: int,
    conditioning: float = 10.0,
    heterogeneity: float = 0.0,
    noise_scale: float = 0.0,
) -> QuadraticBilevel:
    """Seeded random quadratic instance with certified mu_g.

    ``heterogeneity`` scales zero-mean node-to-node perturbations of
    (A_i, B_i, P_i, Q_i) around shared base matrices; the construction
    shifts all A_i by a common multiple of the identity if needed so each
    node's lower level stays strongly convex.
    """
    if n_nodes < 1 or d < 1 or p < 1:
        raise ValueError("n_nodes, d and p must be >= 1")
    # Negated comparisons, so that NaN fails them too.
    if not 1 <= conditioning < np.inf:
        raise ValueError("conditioning must be finite and >= 1")
    for name, value in (("heterogeneity", heterogeneity), ("noise_scale", noise_scale)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0")
    rng = np.random.default_rng(seed)

    def rand_sym(dim, scale=1.0):
        M = rng.standard_normal((dim, dim))
        return scale * (M + M.T) / 2.0

    def centered(shape):
        E = rng.standard_normal((n_nodes,) + shape)
        return E - E.mean(axis=0)

    # Shared lower Hessian with eigenvalues in [1, conditioning].
    U = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eigs = np.linspace(1.0, conditioning, p)
    A0 = U @ np.diag(eigs) @ U.T
    A = A0[None, :, :] + heterogeneity * np.array(
        [(E + E.T) / 2.0 for E in centered((p, p))]
    )
    min_eig = np.linalg.eigvalsh(A).min()
    if min_eig < 0.1:
        A = A + (0.1 - min_eig) * np.eye(p)[None, :, :]

    B = rng.standard_normal((p, d))[None, :, :] + heterogeneity * centered((p, d))
    P = rand_sym(p)[None, :, :] + heterogeneity * np.array(
        [(E + E.T) / 2.0 for E in centered((p, p))]
    )
    Q = rng.standard_normal((p, d))[None, :, :] + heterogeneity * centered((p, d))
    R0 = rand_sym(d)
    R0 = R0 @ R0.T + np.eye(d)  # positive definite upper-level curvature
    q = np.tile(rng.standard_normal(p), (n_nodes, 1))
    R = np.tile(R0, (n_nodes, 1, 1))
    c = np.tile(rng.standard_normal(p), (n_nodes, 1))
    return QuadraticBilevel(P, Q, q, R, A, B, c, noise_scale=noise_scale)


def trivial_quadratic(dim: int = 1, n_nodes: int = 1) -> QuadraticBilevel:
    """f_i = 1/2 |y|^2, g_i = 1/2 |y - x|^2: y*(x) = x, grad Phi(x) = x."""
    eye = np.tile(np.eye(dim), (n_nodes, 1, 1))
    zeros_m = np.zeros((n_nodes, dim, dim))
    zeros_v = np.zeros((n_nodes, dim))
    return QuadraticBilevel(
        P=eye.copy(), Q=zeros_m.copy(), q=zeros_v.copy(), R=zeros_m.copy(),
        A=eye.copy(), B=-eye.copy(), c=zeros_v.copy(),
    )


# ---------------------------------------------------------------------------
# Regularization-tuning regression family (streaming data)
# ---------------------------------------------------------------------------


class RidgeTuning(BilevelProblem):
    """Scalar ridge-weight tuning for per-node linear regression.

    Each node i streams pairs (features, label) with
    features ~ U(-2 * 1.5^(1/3), 2 * 1.5^(1/3))^p and
    label = features . w_i + N(0, 1), where ``omega`` holds the rows
    w_i = w + eps_i, eps_i ~ N(0, sigma_omega^2 I). The upper loss is the
    validation square error; the lower loss adds the ridge term |x| |y|^2.
    """

    def __init__(self, omega: np.ndarray):
        n, p = omega.shape
        self.omega = omega
        self.omega_bar = omega.mean(axis=0)
        self.spread = float(np.mean(np.sum((omega - self.omega_bar) ** 2, axis=1)))
        self.feat_var = FEATURE_VAR
        super().__init__(n, 1, p)

    # Values and exact oracles are population expectations. With a sample,
    # the y-derivatives take its streamed pairs, features (n, p) then labels
    # (n,); the x-derivatives do not involve the data and ignore it.
    def f_value(self, X, Y):
        diff = Y - self.omega
        return _dot(self.feat_var * diff, diff) + 1.0

    def g_value(self, X, Y):
        return self.f_value(X, Y) + np.abs(X[..., 0]) * _dot(Y, Y)

    def grad_x_f(self, X, Y, xi=None):
        return np.zeros(np.shape(X))

    def grad_y_f(self, X, Y, xi=None):
        if xi is None:
            return 2.0 * self.feat_var * (Y - self.omega)
        feats, label = xi
        return 2.0 * (_dot(feats, Y) - label)[..., None] * feats

    def grad_x_g(self, X, Y, zeta=None):
        return np.sign(X) * _dot(Y, Y)[..., None]

    def grad_y_g(self, X, Y, zeta=None):
        return self.grad_y_f(X, Y, zeta) + 2.0 * np.abs(X) * Y

    def hess_yy_g(self, X, Y, V, zeta=None):
        if zeta is None:
            return 2.0 * (self.feat_var + np.abs(X)) * V
        feats, _ = zeta
        return 2.0 * _dot(feats, V)[..., None] * feats + 2.0 * np.abs(X) * V

    def cross_xy_g(self, X, Y, V, zeta=None):
        return 2.0 * np.sign(X) * _dot(Y, V)[..., None]

    def draw_block(self, rng, k):
        # f and g are losses on the same stream of (features, label) pairs:
        # each sample draws its features (n, p), then its label noise (n,).
        # rng.uniform(-b, b) is -b + (b - -b) * rng.random(); scaling and then
        # shifting in place rounds the same.
        n, p, b = self.n_nodes, self.dim_y, FEATURE_HALF_WIDTH
        feats, noise = np.empty((k, 2, n, p)), np.empty((k, 2, n))
        random, normal = rng.random, rng.standard_normal
        for f, e in zip(feats.reshape(2 * k, n, p), noise.reshape(2 * k, n)):
            random(out=f)
            normal(out=e)
        feats *= b - -b
        feats -= b
        labels = _dot(feats, self.omega) + noise
        return (feats[:, 0], labels[:, 0]), (feats[:, 1], labels[:, 1])

    # analytic -----------------------------------------------------------
    def y_star(self, x):
        return self.feat_var / (self.feat_var + np.abs(x[..., :1])) * self.omega_bar

    def phi_star(self):
        # Phi(x) increases with |x|; the population optimum is x = 0.
        return self.feat_var * self.spread + 1.0


def make_ridge_tuning(seed: int, n_nodes: int, dim_p: int, sigma_omega: float) -> RidgeTuning:
    """Seeded instance: base weights from U(0, 10), Gaussian node offsets.

    ``sigma_omega`` is the offsets' spread: 0.5 mild, 2.0 severe.
    """
    if dim_p < 1 or n_nodes < 1:
        raise ValueError("dim_p and n_nodes must be >= 1")
    if not 0 <= sigma_omega < np.inf:  # NaN too
        raise ValueError("sigma_omega must be finite and >= 0")
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 10.0, dim_p)
    eps = sigma_omega * rng.standard_normal((n_nodes, dim_p))
    return RidgeTuning(base[None, :] + eps)


# ---------------------------------------------------------------------------
# Smooth non-quadratic family (finite-difference bias checks)
# ---------------------------------------------------------------------------


class LogCoshBilevel(BilevelProblem):
    """Strongly convex non-quadratic lower level with bounded third derivative.

    g_i(x, y) = 1/2 |y|^2 + lam * sum_j logcosh(y_j) + y'B_i x
    f_i(x, y) = 1/2 |y - r_i|^2 + 1/2 |x|^2

    The Hessian-Lipschitz constant of g is lam * max |d/du (1 - tanh(u)^2)|
    = lam * 4 / (3 sqrt 3), attained at u = +/- artanh(1/sqrt 3).
    """

    def __init__(self, B: np.ndarray, r: np.ndarray, lam: float = 1.0):
        n, p, d = B.shape
        self.B = B
        self.r = r
        self.lam = lam
        super().__init__(n, d, p)

    @property
    def hessian_lipschitz(self) -> float:
        return self.lam * 4.0 / (3.0 * np.sqrt(3.0))

    def f_value(self, X, Y):
        diff = Y - self.r
        return _dot(0.5 * diff, diff) + _dot(0.5 * X, X)

    def g_value(self, X, Y):
        return (
            _dot(0.5 * Y, Y)
            + self.lam * np.sum(np.logaddexp(Y, -Y) - np.log(2.0), axis=-1)
            + _dot(Y, _mv(self.B, X))
        )

    # Deterministic: each oracle takes a sample and ignores it.
    def grad_x_f(self, X, Y, xi=None):
        return X.astype(float)

    def grad_y_f(self, X, Y, xi=None):
        return Y - self.r

    def grad_x_g(self, X, Y, zeta=None):
        return _mtv(self.B, Y)

    def grad_y_g(self, X, Y, zeta=None):
        return Y + self.lam * np.tanh(Y) + _mv(self.B, X)

    def hess_yy_g(self, X, Y, V, zeta=None):
        return V + self.lam * (1.0 - np.tanh(Y) ** 2) * V

    def cross_xy_g(self, X, Y, V, zeta=None):
        return _mtv(self.B, V)


def make_logcosh(
    seed: int, n_nodes: int, d: int, p: int, coupling: float = 0.3, lam: float = 1.0
) -> LogCoshBilevel:
    # Negated comparisons, so that NaN fails them too. lam >= 0 keeps the
    # lower level strongly convex, as the class assumes.
    if not (n_nodes >= 1 and d >= 1 and p >= 1):
        raise ValueError("n_nodes, d and p must be >= 1")
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    if not abs(coupling) < np.inf:
        raise ValueError("coupling must be finite")
    rng = np.random.default_rng(seed)
    B = coupling * rng.standard_normal((n_nodes, p, d))
    r = rng.standard_normal((n_nodes, p))
    return LogCoshBilevel(B, r, lam=lam)
