"""The single-loop recursion written out node by node, as a reference for the engine tests.

It restates the recursion that the ``engine`` module docstring and the
README describe, and does not import ``engine``. With
alpha_t = alpha0 * decay_factor ** (t // decay_period), beta_t = c1 alpha_t,
gamma_t = c2 alpha_t and theta_t = c3 alpha_t (or ``fixed_theta``), every
node i of an iteration-t snapshot takes its directions from the samples of
step t and then

    x_i <- sum_j w_ij (x_j - tau alpha_t h_j)
    y_i <- sum_j w_ij (y_j - beta_t grad_y g_j(x_j, y_j))
    z_i <- sum_j w_ij (z_j - gamma_t (p_h,j - grad_y f_j(x_j, y_j)))
    h_i <- (1 - theta_t) h_i + theta_t (grad_x f_i(x_i, y_i) - p_j,i)

where (p_h, p_j) are the sampled Hessian- and Jacobian-vector products
with z (so), or central differences of the sampled lower gradients at
y +- delta z (fo). h is not gossiped. The centralized reference is the
so recursion with w_ij = 1/n. The oracles are called on whole (n, .)
stacks, since a one-row stack broadcasts against every node's data
without error.
"""

import numpy as np


def reference_samples(problem, T, seed):
    """Step t's (xi, zeta) for t < T, from one ``draw_block(rng, T)`` of the seed's generator."""
    blocks = problem.draw_block(np.random.default_rng(seed), T)
    return [tuple(None if b is None else tuple(v[t] for v in b) for b in blocks) for t in range(T)]


def gossip(W, A):
    """Row i is sum_j w_ij a_j, summed over the nodes j in turn, not as a matrix product."""
    return sum(W[:, j, None] * A[j] for j in range(len(A)))


def local_step(problem, hyper, t, iterates, sample):
    """Step t before gossip: each node's x, y and z after its local step, and its new h.

    ``iterates`` is the nodes' (x, y, z, h), each (n, .). ``hyper`` is read by
    attribute only: alpha0, c1, c2, c3, tau, decay_factor, decay_period,
    fixed_theta, delta and variant ("so" or "fo").
    """
    X, Y, Z, H = iterates
    xi, zeta = sample
    alpha = hyper.alpha0 * hyper.decay_factor ** (t // hyper.decay_period)
    theta = hyper.c3 * alpha if hyper.fixed_theta is None else hyper.fixed_theta
    if hyper.variant == "fo":
        up, down, two_delta = Y + hyper.delta * Z, Y - hyper.delta * Z, 2.0 * hyper.delta
        p_h = (problem.grad_y_g(X, up, zeta) - problem.grad_y_g(X, down, zeta)) / two_delta
        p_j = (problem.grad_x_g(X, up, zeta) - problem.grad_x_g(X, down, zeta)) / two_delta
    else:
        p_h, p_j = problem.hess_yy_g(X, Y, Z, zeta), problem.cross_xy_g(X, Y, Z, zeta)
    return (
        X - hyper.tau * alpha * H,
        Y - hyper.c1 * alpha * problem.grad_y_g(X, Y, zeta),
        Z - hyper.c2 * alpha * (p_h - problem.grad_y_f(X, Y, xi)),
        (1.0 - theta) * H + theta * (problem.grad_x_f(X, Y, xi) - p_j),
    )
