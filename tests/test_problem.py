"""Problem families: oracle consistency, closed forms, and solvers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo.engine import hvp_fo, hvp_so
from gossipbo.problem import (
    FEATURE_HALF_WIDTH,
    FEATURE_VAR,
    LowerSolveDiverged,
    SingularHessian,
    _dot,
    _mean_over_nodes,
    dense_lower_hessian,
    hypergradient_exact,
    lower_solve,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    phi_value,
    trivial_quadratic,
    z_star,
)


def fd_grad(fn, v, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    out = np.empty(len(v))
    for k in range(len(v)):
        e = np.zeros(len(v))
        e[k] = h
        out[k] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return out


def rows(prob, v):
    """One point repeated on every node's row, as the batched oracles take it."""
    return np.tile(v, (prob.n_nodes, 1))


def mean_grad_y_g(prob, x, y):
    return prob.grad_y_g(rows(prob, x), rows(prob, y)).mean(axis=0)


def one_step(prob, rng):
    """One step's (xi, zeta): step 0 of a one-step block."""
    return tuple(None if s is None else tuple(a[0] for a in s) for s in prob.draw_block(rng, 1))


def step_draws(family, prob, rng):
    """One step's (xi, zeta) drawn variate by variate, in the family's order:
    the f-sample, then the g-sample, each variate one (n, .) block whose
    row i is node i's draw. Labels are formed with ``_dot``, as
    ``draw_block`` forms them, so that the bytes agree."""
    n, p, d = prob.n_nodes, prob.dim_y, prob.dim_x
    if family == "quad":
        xi = (rng.standard_normal((n, p)), rng.standard_normal((n, d)))
        zeta = (
            rng.standard_normal((n, p)),
            rng.standard_normal((n, d)),
            rng.standard_normal(n),
            rng.standard_normal(n),
        )
        return xi, zeta
    if family == "ridge":
        def pair():
            feats = rng.uniform(-FEATURE_HALF_WIDTH, FEATURE_HALF_WIDTH, (n, p))
            noise = rng.standard_normal(n)
            return feats, _dot(feats, prob.omega) + noise

        return pair(), pair()
    return None, None


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)


@pytest.fixture(scope="module")
def ridge():
    return make_ridge_tuning(5, n_nodes=4, dim_p=6, sigma_omega=0.5)


@pytest.fixture(scope="module")
def logcosh():
    return make_logcosh(3, n_nodes=3, d=2, p=5)


@pytest.mark.parametrize("family", ["quad", "ridge", "logcosh"])
def test_gradients_match_finite_differences(family, request):
    prob = request.getfixturevalue(family)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(prob.dim_x)
    if family == "ridge":
        x = np.abs(x) + 0.1  # keep away from the |x| kink
    y = rng.standard_normal(prob.dim_y)
    X, Y = rows(prob, x), rows(prob, y)
    for i in range(prob.n_nodes):
        assert np.allclose(
            prob.grad_y_f(X, Y)[i], fd_grad(lambda v: prob.f_value(X, rows(prob, v))[i], y),
            atol=1e-5,
        )
        assert np.allclose(
            prob.grad_y_g(X, Y)[i], fd_grad(lambda v: prob.g_value(X, rows(prob, v))[i], y),
            atol=1e-5,
        )
        assert np.allclose(
            prob.grad_x_g(X, Y)[i], fd_grad(lambda v: prob.g_value(rows(prob, v), Y)[i], x),
            atol=1e-5,
        )


@pytest.mark.parametrize("family", ["quad", "ridge", "logcosh"])
def test_second_order_products_match_gradient_differences(family, request):
    prob = request.getfixturevalue(family)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.dim_x)
    if family == "ridge":
        x = np.abs(x) + 0.1
    y = rng.standard_normal(prob.dim_y)
    v = rng.standard_normal(prob.dim_y)
    h = 1e-6
    X, Y, V = rows(prob, x), rows(prob, y), rows(prob, v)
    for i in range(prob.n_nodes):
        hv = (prob.grad_y_g(X, Y + h * V)[i] - prob.grad_y_g(X, Y - h * V)[i]) / (2 * h)
        assert np.allclose(prob.hess_yy_g(X, Y, V)[i], hv, atol=1e-5)
        cv = (prob.grad_x_g(X, Y + h * V)[i] - prob.grad_x_g(X, Y - h * V)[i]) / (2 * h)
        assert np.allclose(prob.cross_xy_g(X, Y, V)[i], cv, atol=1e-5)


# Each derivative oracle with no sample and with one, then its s* forward.
ORACLE_ARGS = (
    ("f_value", "XY"), ("g_value", "XY"), ("grad_x_f", "XY"), ("grad_y_f", "XY"),
    ("grad_x_g", "XY"), ("grad_y_g", "XY"), ("hess_yy_g", "XYV"), ("cross_xy_g", "XYV"),
    ("grad_x_f", "XYf"), ("grad_y_f", "XYf"), ("grad_x_g", "XYg"), ("grad_y_g", "XYg"),
    ("hess_yy_g", "XYVg"), ("cross_xy_g", "XYVg"),
    ("sgrad_x_f", "XYf"), ("sgrad_y_f", "XYf"), ("sgrad_x_g", "XYg"), ("sgrad_y_g", "XYg"),
    ("shess_yy_g", "XYVg"), ("scross_xy_g", "XYVg"),
)


@pytest.mark.parametrize("family", ["quad", "ridge", "logcosh"])
def test_batched_row_is_its_own_node(family, request):
    # Row i of every oracle depends on row i of its inputs and sample only:
    # a swarm whose every row holds node i's point and sample gives the same
    # row i, bit for bit.
    prob = request.getfixturevalue(family)
    rng = np.random.default_rng(4)
    n = prob.n_nodes
    sample_rng = np.random.default_rng(9)
    args = {
        "X": rng.standard_normal((n, prob.dim_x)),
        "Y": rng.standard_normal((n, prob.dim_y)),
        "V": rng.standard_normal((n, prob.dim_y)),
    }
    args["f"], args["g"] = one_step(prob, sample_rng)

    def node_everywhere(a, i):
        if a is None:
            return None
        if isinstance(a, tuple):
            return tuple(node_everywhere(part, i) for part in a)
        return np.repeat(a[i : i + 1], n, axis=0)

    for name, keys in ORACLE_ARGS:
        oracle = getattr(prob, name)
        full = oracle(*(args[k] for k in keys))
        assert full.shape[0] == n
        for i in range(n):
            own = oracle(*(node_everywhere(args[k], i) for k in keys))
            assert np.array_equal(own[i], full[i]), (name, keys, i)

    # A leading cell axis: points stacked as (C, n, .), one (n, .) sample
    # broadcast over every cell. Row (c, i) is row i of the (n, .) call on
    # cell c alone, bit for bit.
    cells = 3
    stacked = dict(args)
    for k in "XYV":
        others = [rng.standard_normal(args[k].shape) for _ in range(cells - 1)]
        stacked[k] = np.stack([args[k]] + others)

    def cell(k, c):
        return stacked[k][c] if k in "XYV" else stacked[k]

    calls = [(name, getattr(prob, name), keys) for name, keys in ORACLE_ARGS]
    calls.append(("hvp_so", lambda X, Y, V, g: hvp_so(prob, X, Y, V, g), "XYVg"))
    calls.append(("hvp_fo", lambda X, Y, V, g: hvp_fo(prob, X, Y, V, 1e-3, g), "XYVg"))
    for name, oracle, keys in calls:
        full = oracle(*(stacked[k] for k in keys))
        for c in range(cells):
            own = oracle(*(cell(k, c) for k in keys))
            if name.startswith("hvp"):
                assert full.p_h.shape[:2] == full.p_j.shape[:2] == (cells, n), name
                assert np.array_equal(full.p_h[c], own.p_h), (name, c)
                assert np.array_equal(full.p_j[c], own.p_j), (name, c)
            else:
                assert full.shape[:2] == (cells, n), name
                assert np.array_equal(full[c], own), (name, keys, c)


def test_trivial_instance_ground_truth():
    prob = trivial_quadratic(dim=3, n_nodes=2)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(lower_solve(prob, x), x, atol=1e-12)
    assert np.allclose(hypergradient_exact(prob, x), x, atol=1e-10)
    assert abs(phi_value(prob, x) - 0.5 * x @ x) < 1e-12


def test_quadratic_y_star_solves_lower_level(quad):
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(quad.dim_x)
        y = quad.y_star(x)
        assert np.linalg.norm(mean_grad_y_g(quad, x, y)) < 1e-10 * max(
            1.0, np.linalg.norm(y)
        )


def test_quadratic_x_opt_is_stationary(quad):
    g = hypergradient_exact(quad, quad.x_opt())
    assert np.linalg.norm(g) < 1e-8


def test_quadratic_phi_star_derived_once_on_first_call(monkeypatch):
    prob = make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)
    fresh = make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)
    calls = []
    x_opt = prob.x_opt

    def counted_x_opt():
        calls.append(1)
        return x_opt()

    monkeypatch.setattr(prob, "x_opt", counted_x_opt)
    assert calls == []  # construction does not derive it
    first = prob.phi_star()
    assert prob.phi_star() == first and calls == [1]
    assert first == phi_value(fresh, fresh.x_opt())  # the same float, bit for bit


def test_quadratic_phi_star_is_minimal(quad):
    star = quad.phi_star()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = quad.x_opt() + rng.standard_normal(quad.dim_x)
        assert phi_value(quad, x) >= star - 1e-9


def test_dense_lower_hessian_matches_family_matrix(quad):
    x = np.zeros(quad.dim_x)
    y = np.zeros(quad.dim_y)
    H = dense_lower_hessian(quad, x, y)
    assert np.allclose(H, quad.A_bar, atol=1e-12)


@pytest.mark.parametrize("family", ["quad", "ridge", "logcosh"])
def test_dense_lower_hessian_is_one_product_call(family, request, monkeypatch):
    # One hess_yy_g call on a stack of basis rows assembles the Hessian at
    # every point of a stack; each equals the column-by-column assembly from
    # one product per basis vector at that point alone, bit for bit. The
    # product spans the points only where the Hessian depends on the point:
    # the quadratic's is one (p, 1, n, p) product however many points.
    prob = request.getfixturevalue(family)
    rng = np.random.default_rng(8)
    x = 0.1 + np.abs(rng.standard_normal((3, prob.dim_x)))
    y = rng.standard_normal((3, prob.dim_y))
    shapes = []
    product = prob.hess_yy_g

    def counted(*args):
        out = product(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(prob, "hess_yy_g", counted)
    H = dense_lower_hessian(prob, x, y)
    n, p = prob.n_nodes, prob.dim_y
    assert shapes == [(p, 1 if family == "quad" else 3, n, p)]
    assert H.shape == (3, p, p)
    monkeypatch.undo()
    for k in range(3):
        X, Y = rows(prob, x[k]), rows(prob, y[k])
        columns = [
            np.cumsum(prob.hess_yy_g(X, Y, rows(prob, e)), axis=0)[-1] / n
            for e in np.eye(prob.dim_y)
        ]
        assert np.column_stack(columns).tobytes() == H[k].tobytes(), k
        assert dense_lower_hessian(prob, x[k], y[k]).tobytes() == H[k].tobytes(), k


@pytest.mark.parametrize("width", [1, 2, 10])
@pytest.mark.parametrize("n", [1, 2, 8, 9, 100])
def test_mean_over_nodes_sums_node_by_node(n, width):
    # Byte for byte, sign bit included, as a node-by-node loop sums: -0.0
    # plus -0.0 is -0.0, so a column of -0.0 must not come back as +0.0.
    rng = np.random.default_rng(1000 * n + width)
    A = rng.choice([-1.0, 1.0], (5, n, width)) * 10.0 ** rng.uniform(-8, 8, (5, n, width))
    A[rng.random(A.shape) < 0.2] = 0.0
    A[rng.random(A.shape) < 0.2] = -0.0
    A[1, :, 0] = -0.0
    A[2] = -0.0
    expected = A[:, 0].copy()
    for i in range(1, n):
        expected = expected + A[:, i]
    expected = expected / n
    assert np.signbit(expected[2]).all()
    # A layout whose node axis is innermost in memory sums the same.
    for layout in (A, np.ascontiguousarray(A.swapaxes(-1, -2)).swapaxes(-1, -2)):
        assert _mean_over_nodes(layout).tobytes() == expected.tobytes()


def test_z_star_solves_linear_system(quad):
    x = np.array([0.3, -0.7])
    y = lower_solve(quad, x)
    z = z_star(quad, x)
    H = dense_lower_hessian(quad, x, y)
    assert np.allclose(H @ z, quad.grad_y_f(rows(quad, x), rows(quad, y)).mean(axis=0), atol=1e-9)


@pytest.mark.parametrize("helper", [z_star, hypergradient_exact])
def test_exact_helpers_reject_a_y_that_does_not_match_x(helper):
    # A y whose points do not match x's would broadcast to wrong values
    # (one y* row for three points, three rows for one point): each such
    # call raises, naming both shapes.
    prob = make_quadratic(1, n_nodes=8, d=2, p=4, conditioning=5.0, heterogeneity=0.3,
                          noise_scale=0.2)
    x = np.array([[1.0, -1.0], [0.5, 2.0], [-1.0, 0.3]])
    y = lower_solve(prob, x)
    assert helper(prob, x, y=y).tobytes() == helper(prob, x).tobytes()
    for xs, ys in ((x, y[0]), (x[0], y), (x, y[:, :3]), (x, y[None])):
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(ys.shape))}.*"
                                             rf"shape {re.escape(str(xs.shape))}"):
            helper(prob, xs, y=ys)


def test_lower_solve_newton_on_nonquadratic(logcosh):
    x = np.array([0.4, -0.2])
    y = lower_solve(logcosh, x)
    res = np.linalg.norm(mean_grad_y_g(logcosh, x, y))
    assert res <= 1e-10 * max(1.0, np.linalg.norm(y))


def test_hypergradient_matches_fd_on_nonquadratic(logcosh):
    x = np.array([0.25, -0.5])
    h = 1e-5
    fd = fd_grad(lambda v: phi_value(logcosh, v), x, h=h)
    g = hypergradient_exact(logcosh, x)
    assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(g))


def test_singular_hessian_raises():
    prob = trivial_quadratic(dim=2, n_nodes=1)
    with pytest.raises(ValueError):
        # Zero lower curvature is rejected at construction.
        prob.A[:] = 0.0
        type(prob)(prob.P, prob.Q, prob.q, prob.R, prob.A, prob.B, prob.c)


def test_ridge_constants():
    assert abs(FEATURE_HALF_WIDTH - 2.0 * 1.5 ** (1 / 3)) < 1e-15
    assert abs(FEATURE_VAR - FEATURE_HALF_WIDTH**2 / 3.0) < 1e-15


def test_ridge_population_oracles_match_monte_carlo(ridge):
    # The deterministic oracles are population expectations of the
    # streaming-sample losses; check both value and gradient by averaging
    # many stochastic draws at a fixed point.
    rng = np.random.default_rng(7)
    x = np.array([0.8])
    y = rng.standard_normal(ridge.dim_y)
    i = 1
    n_samples = 200_000
    feats = rng.uniform(-FEATURE_HALF_WIDTH, FEATURE_HALF_WIDTH, (n_samples, ridge.dim_y))
    labels = feats @ ridge.omega[i] + rng.standard_normal(n_samples)
    resid = feats @ y - labels
    mc_f = np.mean(resid**2)
    f_i = ridge.f_value(rows(ridge, x), rows(ridge, y))[i]
    assert abs(mc_f - f_i) < 0.05 * f_i
    mc_grad = (2.0 * resid[:, None] * feats).mean(axis=0)
    assert np.allclose(mc_grad, ridge.grad_y_f(rows(ridge, x), rows(ridge, y))[i], atol=0.3)


def test_ridge_y_star_and_phi_star(ridge):
    x = np.array([1.3])
    y = ridge.y_star(x)
    assert np.linalg.norm(mean_grad_y_g(ridge, x, y)) < 1e-10 * max(
        1.0, np.linalg.norm(y)
    )
    # At x = 0 the lower solution is the mean weight vector and the upper
    # objective attains its analytic optimum.
    assert abs(phi_value(ridge, np.zeros(1)) - ridge.phi_star()) < 1e-10
    assert phi_value(ridge, np.array([0.5])) > ridge.phi_star()


@pytest.mark.parametrize("family", ["quad", "ridge"])
def test_samples_are_node_blocks_in_a_fixed_order(family, request):
    # One generator per run: a step draws the f-sample and then the
    # g-sample, each variate one (n, .) block whose row i is node i's draw.
    prob = request.getfixturevalue(family)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    xi, zeta = one_step(prob, rng)
    expected_f, expected_g = step_draws(family, prob, ref)
    assert len(xi + zeta) == len(expected_f + expected_g)
    for got, want in zip(xi + zeta, expected_f + expected_g):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("k", [1, 3, 17])
@pytest.mark.parametrize("family", ["quad", "ridge", "logcosh"])
def test_draw_block_is_k_rounds_of_step_draws(family, k, request):
    # Row j of every variate is step j's f- or g-sample, bit for bit, and
    # the generator ends where k rounds of the per-step draws leave it.
    prob = request.getfixturevalue(family)
    for seed in (0, 3, 12345):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        xi, zeta = prob.draw_block(rng, k)
        for j in range(k):
            for block, one in zip((xi, zeta), step_draws(family, prob, ref)):
                if one is None:
                    assert block is None
                    continue
                assert len(block) == len(one)
                for got, want in zip(block, one):
                    assert got.shape == (k,) + want.shape
                    assert got[j].tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_ridge_sign_zero_freezes_regularizer_gradient(ridge):
    X, Y = rows(ridge, np.zeros(1)), rows(ridge, np.ones(ridge.dim_y))
    assert ridge.grad_x_g(X, Y)[0] == pytest.approx(0.0)
    assert ridge.cross_xy_g(X, Y, Y)[0] == pytest.approx(0.0)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_ridge_stochastic_gradient_unbiased_in_sample_mean(seed):
    prob = make_ridge_tuning(9, n_nodes=3, dim_p=4, sigma_omega=1.0)
    rng = np.random.default_rng(seed)
    X = rows(prob, np.array([0.2]))
    Y = rows(prob, rng.standard_normal(prob.dim_y))
    k = 4000
    _, zeta = prob.draw_block(rng, k)
    grads = np.array([prob.sgrad_y_g(X, Y, tuple(a[j] for a in zeta))[0] for j in range(k)])
    err = grads.mean(axis=0) - prob.grad_y_g(X, Y)[0]
    se = grads.std(axis=0, ddof=1) / np.sqrt(k)
    # Each coordinate's sample-mean error over its own standard error is
    # about standard normal at k = 4000, and P(|Z| > 5) = 5.7e-7. Over 4
    # coordinates and 25 examples, an unbiased sampler fails a Tier-1 run
    # with probability about 6e-5. A bias of 5.0 on one coordinate is about
    # 6 standard errors (se is 0.66 to 0.99 here).
    assert np.max(np.abs(err) / se) < 5.0


def test_quadratic_stochastic_noise_is_zero_mean(quad):
    noisy = make_quadratic(
        11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4, noise_scale=0.3
    )
    rng = np.random.default_rng(12)
    X = rows(noisy, rng.standard_normal(noisy.dim_x))
    Y = rows(noisy, rng.standard_normal(noisy.dim_y))
    acc = np.zeros(noisy.dim_y)
    k = 20000
    _, zeta = noisy.draw_block(rng, k)
    for j in range(k):
        acc += noisy.sgrad_y_g(X, Y, tuple(a[j] for a in zeta))[0]
    assert np.linalg.norm(acc / k - noisy.grad_y_g(X, Y)[0]) < 0.05


@pytest.mark.parametrize("d, p", [(3, 2), (3, 3), (2, 5), (1, 4)])
def test_quadratic_coupling_is_the_explicit_truncated_identity(d, p):
    # The sampled cross terms couple through J = np.eye(p, d). Reference:
    # the products with the explicit matrix, compared as bytes, on stacks
    # holding +0.0 and -0.0 and on the broadcast shapes hvp_fo passes.
    from gossipbo.problem import _coordinates, _mtv, _mv

    prob = make_quadratic(5, n_nodes=3, d=d, p=p, heterogeneity=0.3, noise_scale=0.7)
    J = np.eye(p, d)
    a1, a2, a3, sigma = prob._a1, prob._a2, prob._a3, prob.sigma
    rng = np.random.default_rng(10 * d + p)
    for _ in range(25):
        X = rng.standard_normal((1, 2, 3, d))
        Y, V = rng.standard_normal((2, 2, 2, 3, p))
        for M in (X, Y, V):
            M[rng.random(M.shape) < 0.3] = 0.0
            M[rng.random(M.shape) < 0.3] = -0.0
        assert _coordinates(X, p).tobytes() == _mv(J, X).tobytes()
        assert _coordinates(Y, d).tobytes() == _mtv(J, Y).tobytes()
        e_y, e_x, s, s2 = zeta = one_step(prob, rng)[1]
        want_gy = prob.grad_y_g(X, Y) + sigma * (
            a1 * e_y / np.sqrt(p) + a2 * s[..., None] * Y + a3 * s2[..., None] * _mv(J, X)
        )
        want_gx = prob.grad_x_g(X, Y) + sigma * (
            a1 * e_x / np.sqrt(d) + a3 * s2[..., None] * _mtv(J, Y)
        )
        want_cross = prob.cross_xy_g(X, Y, V) + sigma * a3 * s2[..., None] * _mtv(J, V)
        assert prob.sgrad_y_g(X, Y, zeta).tobytes() == want_gy.tobytes()
        assert prob.sgrad_x_g(X, Y, zeta).tobytes() == want_gx.tobytes()
        assert prob.scross_xy_g(X, Y, V, zeta).tobytes() == want_cross.tobytes()


def test_logcosh_hessian_lipschitz_constant_vs_sampling(logcosh):
    # Third derivative of the separable part is lam * d/du(1 - tanh^2 u);
    # scan densely for its maximum magnitude.
    u = np.linspace(-4, 4, 200001)
    vals = np.abs(-2.0 * np.tanh(u) * (1.0 - np.tanh(u) ** 2))
    measured = logcosh.lam * vals.max()
    assert measured <= logcosh.hessian_lipschitz + 1e-9
    assert measured >= logcosh.hessian_lipschitz - 1e-6


def test_make_quadratic_validates_args():
    with pytest.raises(ValueError):
        make_quadratic(0, 2, 0, 3)
    with pytest.raises(ValueError):
        make_quadratic(0, 2, 2, 3, conditioning=0.5)


@pytest.mark.parametrize("name, value", [
    ("n_nodes", 0), ("d", 0), ("p", 0), ("lam", -2.0), ("lam", np.nan), ("lam", np.inf),
    ("coupling", np.inf), ("coupling", -np.inf), ("coupling", np.nan),
])
def test_make_logcosh_validates_args(name, value):
    # A negative lam makes the lower level concave where |y| is small, and
    # lower_solve would return a local maximum there.
    with pytest.raises(ValueError, match=name):
        make_logcosh(3, **{"n_nodes": 4, "d": 2, "p": 3, name: value})


def test_lower_solve_diverged_propagates(quad, ridge, logcosh):
    prob = make_logcosh(3, n_nodes=2, d=2, p=3)
    with pytest.raises(LowerSolveDiverged):
        lower_solve(prob, np.array([0.1, 0.1]), tol=1e-10, max_iter=0)
    # A NaN point: closed form and Newton alike return a NaN y*.
    for prob in (quad, ridge, logcosh):
        nan = np.full(prob.dim_x, np.nan)
        with pytest.raises(LowerSolveDiverged):
            lower_solve(prob, nan)
        with pytest.raises(LowerSolveDiverged):
            phi_value(prob, nan)
