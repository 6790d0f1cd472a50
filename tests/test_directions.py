"""Direction terms: exact oracles, sampled second-order, and central-difference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo.directions import DegenerateDelta, hvp_fo, hvp_so
from gossipbo.problem import (
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
)


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(21, n_nodes=3, d=2, p=4, conditioning=5.0, noise_scale=0.5)


@pytest.fixture(scope="module")
def logcosh():
    return make_logcosh(8, n_nodes=2, d=2, p=5, coupling=0.4, lam=1.5)


def rows(prob, *points):
    """Each point repeated on every node's row, as the batched oracles take it."""
    return tuple(np.tile(v, (prob.n_nodes, 1)) for v in points)


def random_point(prob, seed):
    rng = np.random.default_rng(seed)
    return rows(
        prob,
        rng.standard_normal(prob.dim_x),
        rng.standard_normal(prob.dim_y),
        rng.standard_normal(prob.dim_y),
    )


def one_g_sample(prob, rng):
    """One step's g-sample: the zeta of a one-step block."""
    _, zeta = prob.draw_block(rng, 1)
    return None if zeta is None else tuple(a[0] for a in zeta)


def directions(prob, X, Y, Z):
    """Exact directions of every node: d_x, d_y and d_z by row."""
    d_x = prob.grad_x_f(X, Y) - prob.cross_xy_g(X, Y, Z)
    d_z = prob.hess_yy_g(X, Y, Z) - prob.grad_y_f(X, Y)
    return d_x, prob.grad_y_g(X, Y), d_z


def test_deterministic_directions_match_oracles(quad):
    X, Y, Z = random_point(quad, 0)
    x, y, z = X[0], Y[0], Z[0]
    d_x, d_y, d_z = directions(quad, X, Y, Z)
    for i in range(quad.n_nodes):
        s = quad
        assert np.allclose(d_x[i], s.Q[i].T @ y + s.R[i] @ x - s.B[i].T @ z, atol=1e-12)
        assert np.allclose(d_y[i], s.A[i] @ y + s.B[i] @ x + s.c[i], atol=1e-12)
        assert np.allclose(
            d_z[i], s.A[i] @ z - (s.P[i] @ y + s.Q[i] @ x + s.q[i]), atol=1e-12
        )


def test_deterministic_directions_vanish_at_stationarity(quad):
    # At (x, y*(x), z*(x)) the y and z directions are zero for the
    # network mean; check via the node average on a homogeneous instance.
    from gossipbo.problem import lower_solve, z_star

    prob = make_quadratic(4, n_nodes=3, d=2, p=3, conditioning=3.0, heterogeneity=0.0)
    x = np.array([0.2, -0.4])
    _, d_y, d_z = directions(prob, *rows(prob, x, lower_solve(prob, x), z_star(prob, x)))
    assert np.linalg.norm(d_y[0]) < 1e-9
    assert np.linalg.norm(d_z[0]) < 1e-9


def test_hvp_so_matches_dense_products(quad):
    X, Y, Z = random_point(quad, 1)
    rng = np.random.default_rng(0)
    zeta = one_g_sample(quad, rng)
    pair = hvp_so(quad, X, Y, Z, zeta)
    assert np.allclose(pair.p_h, quad.shess_yy_g(X, Y, Z, zeta), atol=1e-14)
    assert np.allclose(pair.p_j, quad.scross_xy_g(X, Y, Z, zeta), atol=1e-14)


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=1e-6, max_value=1e-2))
@settings(max_examples=40, deadline=None)
def test_fo_equals_so_on_quadratics_with_common_sample(seed, delta):
    prob = make_quadratic(21, n_nodes=2, d=2, p=3, conditioning=4.0, noise_scale=0.7)
    rng = np.random.default_rng(seed)
    X, Y, Z = rows(
        prob,
        rng.standard_normal(prob.dim_x),
        rng.standard_normal(prob.dim_y),
        rng.standard_normal(prob.dim_y),
    )
    zeta = one_g_sample(prob, rng)
    so = hvp_so(prob, X, Y, Z, zeta)
    fo = hvp_fo(prob, X, Y, Z, delta, zeta)
    # Exact on quadratics up to rounding of the divided difference.
    tol = 1e-13 * max(1.0, np.linalg.norm(so.p_h[0])) / delta + 1e-10
    assert np.linalg.norm(fo.p_h[0] - so.p_h[0]) < tol
    assert np.linalg.norm(fo.p_j[0] - so.p_j[0]) < tol


def test_fo_bias_quadratic_in_delta(logcosh):
    X, Y, Z = random_point(logcosh, 3)
    exact = logcosh.hess_yy_g(X, Y, Z)[0]
    errs = []
    deltas = [1e-1, 1e-2]
    for d in deltas:
        pair = hvp_fo(logcosh, X, Y, Z, d, None)  # log-cosh samples are None
        errs.append(np.linalg.norm(pair.p_h[0] - exact))
    # Central differences: error ratio should track delta^2 = 100x.
    assert 50.0 < errs[0] / errs[1] < 200.0


def test_fo_uses_same_sample_for_both_sides():
    # With per-sample curvature noise, evaluating the two perturbed
    # gradients on the same draw keeps the difference free of O(1/delta)
    # noise amplification.
    prob = make_quadratic(5, n_nodes=1, d=2, p=3, noise_scale=1.0)
    rng = np.random.default_rng(4)
    X, Y, Z = rows(prob, rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(3))
    zeta = one_g_sample(prob, rng)
    pair = hvp_fo(prob, X, Y, Z, 1e-7, zeta)
    assert np.all(np.isfinite(pair.p_h))
    assert np.linalg.norm(pair.p_h) < 1e3  # no 1/delta blow-up


def test_ridge_fo_products(quad):
    prob = make_ridge_tuning(2, n_nodes=3, dim_p=5, sigma_omega=0.5)
    rng = np.random.default_rng(1)
    X, Y, Z = rows(prob, np.array([0.6]), rng.standard_normal(5), rng.standard_normal(5))
    zeta = one_g_sample(prob, rng)
    so = hvp_so(prob, X, Y, Z, zeta)
    fo = hvp_fo(prob, X, Y, Z, 1e-6, zeta)
    assert np.allclose(fo.p_h[0], so.p_h[0], atol=1e-6)
    assert np.allclose(fo.p_j[0], so.p_j[0], atol=1e-6)


def test_degenerate_delta_rejected(quad):
    X, Y, Z = random_point(quad, 5)
    for delta in (0.0, -1e-3, np.nan, np.inf, -np.inf):
        with pytest.raises(DegenerateDelta):
            hvp_fo(quad, X, Y, Z, delta, None)


@pytest.mark.parametrize("per_cell", [True, False], ids=["per-cell-sample", "shared-sample"])
@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_fo_stacked_pair_equals_four_calls(family, per_cell):
    # hvp_fo evaluates Y + delta Z and Y - delta Z in one call of each
    # gradient oracle; on several cells, each with its own sample or all
    # sharing one, the products are the four-call central difference bit for bit.
    if family == "quadratic":
        prob = make_quadratic(21, n_nodes=3, d=2, p=4, conditioning=5.0, noise_scale=0.5)
    elif family == "ridge":
        prob = make_ridge_tuning(2, n_nodes=3, dim_p=5, sigma_omega=0.5)
    else:
        prob = make_logcosh(8, n_nodes=3, d=2, p=5, coupling=0.4, lam=1.5)
    C, n = 5, prob.n_nodes
    rng = np.random.default_rng(7)
    X = rng.standard_normal((C, n, prob.dim_x))
    Y, Z = (rng.standard_normal((C, n, prob.dim_y)) for _ in range(2))
    samples = [one_g_sample(prob, np.random.default_rng(s)) for s in range(C if per_cell else 1)]
    zeta = None if samples[0] is None else tuple(
        np.stack(v) if per_cell else v[0] for v in zip(*samples)
    )
    delta = 1e-4
    pair = hvp_fo(prob, X, Y, Z, delta, zeta)
    plus, minus = Y + delta * Z, Y - delta * Z
    p_h = (prob.sgrad_y_g(X, plus, zeta) - prob.sgrad_y_g(X, minus, zeta)) / (2.0 * delta)
    p_j = (prob.sgrad_x_g(X, plus, zeta) - prob.sgrad_x_g(X, minus, zeta)) / (2.0 * delta)
    assert pair.p_h.shape == p_h.shape and pair.p_h.tobytes() == p_h.tobytes()
    assert pair.p_j.shape == p_j.shape and pair.p_j.tobytes() == p_j.tobytes()
