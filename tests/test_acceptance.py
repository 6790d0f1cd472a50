"""End-to-end acceptance checks.

Each test function is one acceptance criterion; ``pytest -v`` prints one
pass/fail line per criterion. Oracles here are built independently of the
library's own verification helpers wherever the criterion demands it
(finite differences, dense SVDs, Monte Carlo majorities).

Criterion 7 runs two sweeps. The ridge-tuning sweep (7a, 7b) reproduces
the shipped ridge configs. The heterogeneity ordering (7c) runs on a
quadratic pair instead, because on the ridge instance heterogeneity
reaches the loss only as sampling noise; the section comment says why.
"""

import time

import numpy as np
import pytest

import gossipbo as g
from gossipbo import topology as topo
from gossipbo.engine import HyperParams, Variant, init, run, step
from gossipbo.problem import (
    hypergradient_exact,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
)

# ---------------------------------------------------------------------------
# Criterion 1: hypergradient vs central finite differences of Phi
# ---------------------------------------------------------------------------


def _phi_independent(prob, x):
    """Upper objective via an oracle-only lower solve.

    Assembles the mean lower Hessian by finite differences of the mean
    lower gradient and takes one Newton step from zero, exact for the
    quadratic family; avoids the library's own solver helpers.
    """
    p = prob.dim_y
    X = np.tile(x, (prob.n_nodes, 1))

    def mean_grad_y_g(y):
        return prob.grad_y_g(X, np.tile(y, (prob.n_nodes, 1))).mean(axis=0)

    y = np.zeros(p)
    H = np.empty((p, p))
    h = 1e-2  # the lower gradient is linear; a large step minimizes rounding
    for k in range(p):
        e = np.zeros(p)
        e[k] = h
        H[:, k] = (mean_grad_y_g(y + e) - mean_grad_y_g(y - e)) / (2 * h)
    for _ in range(3):
        y = y - np.linalg.solve(H, mean_grad_y_g(y))
    return prob.mean_f_value(x, y)


def test_criterion_1_hypergradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    h = 1e-5
    for trial in range(20):
        d = int(rng.integers(1, 11))
        p = int(rng.integers(1, 11))
        n = int(rng.integers(1, 9))
        prob = make_quadratic(
            1000 + trial, n_nodes=n, d=d, p=p,
            conditioning=float(rng.uniform(1, 20)),
            heterogeneity=float(rng.uniform(0, 1)),
        )
        x = rng.standard_normal(d)
        grad = hypergradient_exact(prob, x)
        fd = np.empty(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd[k] = (_phi_independent(prob, x + e) - _phi_independent(prob, x - e)) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert rel < 1e-5, f"instance {trial}: relative error {rel:.2e}"
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: topology contracts across all families and sizes
# ---------------------------------------------------------------------------


def test_criterion_2_topology_contracts():
    tol = 1e-12
    built = {"fully_connected": [], "ring": [], "adjusted_ring": [],
             "torus2d": [], "exponential": []}
    for n in range(3, 37):
        built["fully_connected"].append(topo.fully_connected(n))
        built["ring"].append(topo.ring(n))
        built["adjusted_ring"].append(topo.ring(n, 0.2, 0.4))
        built["exponential"].append(topo.exponential(n))
        for r in range(2, n):
            if n % r == 0 and n // r >= 2:
                built["torus2d"].append(topo.torus2d(n, r, n // r))
    for family, mats in built.items():
        for W in mats:
            assert np.max(np.abs(W.weights.sum(axis=1) - 1.0)) <= tol
            assert np.max(np.abs(W.weights.sum(axis=0) - 1.0)) <= tol
    for W in built["fully_connected"]:
        assert W.rho <= tol
    ar9 = topo.ring(9, 0.2, 0.4)
    dev = ar9.weights - np.full((9, 9), 1.0 / 9.0)
    svd_rho = float(np.linalg.svd(dev, compute_uv=False)[0])
    assert abs(ar9.rho - svd_rho) < 1e-10
    rng = np.random.default_rng(7)
    for family, mats in built.items():
        for _ in range(100):
            W = mats[int(rng.integers(len(mats)))]
            U = rng.standard_normal((W.n, 3))
            mean = U.mean(axis=0)
            assert (
                np.linalg.norm(W.weights @ U - mean)
                <= W.rho * np.linalg.norm(U - mean) + 1e-12
            )


# ---------------------------------------------------------------------------
# Criterion 3: first-order/second-order trajectory agreement on quadratics
# ---------------------------------------------------------------------------


def test_criterion_3_fo_so_trajectory_agreement():
    prob = make_quadratic(55, n_nodes=4, d=2, p=3, conditioning=4.0, noise_scale=0.5)
    W = topo.ring(4, 0.2, 0.4)
    common = dict(alpha0=0.02, fixed_theta=0.2)
    so, fo = run(prob, [W, W], [HyperParams(variant=Variant.SECOND_ORDER, **common),
                                HyperParams(variant=Variant.FIRST_ORDER, delta=1e-6, **common)],
                 T=2000, seed=77, probe_every=100)
    for name in ("grad_sq_norm", "upper_loss", "consensus_error", "phi_gap"):
        a, b = so.column(name), fo.column(name)
        assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# Criterion 4: central-difference bias bound and its delta scaling
# ---------------------------------------------------------------------------


def test_criterion_4_finite_difference_bias_bound():
    prob = make_logcosh(9, n_nodes=3, d=2, p=6, coupling=0.4, lam=1.2)
    # Independent Hessian-Lipschitz estimate: dense scan of the third
    # derivative of the separable lower-level nonlinearity.
    u = np.linspace(-6, 6, 400001)
    lip = prob.lam * np.max(np.abs(-2.0 * np.tanh(u) * (1.0 - np.tanh(u) ** 2)))
    assert lip <= prob.hessian_lipschitz + 1e-9
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    rng = np.random.default_rng(17)
    mean_errs = []
    for delta in deltas:
        errs = []
        for _ in range(100):
            i = int(rng.integers(prob.n_nodes))
            x = rng.standard_normal(prob.dim_x)
            y = rng.standard_normal(prob.dim_y)
            z = rng.standard_normal(prob.dim_y)
            X, Y, Z = (np.tile(v, (prob.n_nodes, 1)) for v in (x, y, z))
            exact = prob.hess_yy_g(X, Y, Z)[i]
            pair = g.hvp_fo(prob, X, Y, Z, delta, None)  # log-cosh samples are None
            err_sq = float(np.sum((pair.p_h[i] - exact) ** 2))
            bound = (1.0 / 3.0) * lip**2 * delta**2 * float(z @ z) ** 2
            assert err_sq <= bound, f"delta={delta}: {err_sq:.3e} > {bound:.3e}"
            errs.append(np.sqrt(err_sq))
        mean_errs.append(np.mean(errs))
    slope = np.polyfit(np.log(deltas), np.log(mean_errs), 1)[0]
    assert slope >= 1.9, f"log-log error slope {slope:.3f} < 1.9"


# ---------------------------------------------------------------------------
# Criterion 5: fully connected + identical data equals the centralized run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.SECOND_ORDER, Variant.FIRST_ORDER])
def test_criterion_5_centralized_equivalence(variant):
    prob = make_quadratic(31, n_nodes=5, d=2, p=3, heterogeneity=0.0, noise_scale=0.4)
    W = topo.fully_connected(5)
    # The difference quotient is exact on quadratics; delta only scales
    # its rounding noise, so a moderate value keeps the FO run tight.
    hp_d = HyperParams(alpha0=0.02, fixed_theta=0.2, delta=1e-2, variant=variant)
    hp_c = HyperParams(alpha0=0.02, fixed_theta=0.2, delta=1e-2,
                       variant=Variant.SECOND_ORDER)
    st_d = init(prob, W, hp_d, seed=5)
    st_c = init(prob, W, hp_c, seed=5)
    for _ in range(1000):
        st_d = step(prob, st_d)
        st_c = step(prob, st_c)
        for a, b in ((st_d.X, st_c.X), (st_d.Y, st_c.Y), (st_d.Z, st_c.Z)):
            assert np.max(np.abs(a - b)) < 1e-10
        assert g.consensus_error(st_d) < 1e-10


# ---------------------------------------------------------------------------
# Criterion 6: deterministic regime reaches machine-level stationarity
# ---------------------------------------------------------------------------


def test_criterion_6_deterministic_regime():
    prob = make_quadratic(7, n_nodes=4, d=3, p=3, conditioning=5.0,
                          heterogeneity=0.0, noise_scale=0.0)
    W = topo.ring(4)
    hp = HyperParams(alpha0=0.05, fixed_theta=0.5, variant=Variant.SECOND_ORDER)
    rec = run(prob, W, hp, T=10_000, seed=0, probe_every=100)
    grad = rec.column("grad_sq_norm")
    assert grad[-1] <= 1e-10
    smoothed = np.array([np.median(grad[max(0, i - 9): i + 1]) for i in range(len(grad))])
    assert np.all(np.diff(smoothed) <= 1e-18), "smoothed gradient curve not monotone"


# ---------------------------------------------------------------------------
# Criterion 7: reduced-trial transient-cutoff sweeps on 9 nodes
#
# 7a and 7b use the ridge-tuning sweep of configs/ridge_heterogeneity_*.ini.
# From zero init the ridge upper variable sits at its optimum and never
# moves, and every node shares one lower Hessian, so sigma_omega enters the
# loss gap only as label noise that raises the centralized reference as much
# as the decentralized excess. 7c therefore compares two heterogeneity
# levels of one quadratic instance: they perturb node curvature around the
# same mean problem, the gradient noise does not depend on them, and the
# metric is |grad Phi|^2, which the ridge sweep holds at 0.
# ---------------------------------------------------------------------------

N_TRIALS = 10
SWEEP_TOPOLOGIES = ("ring", "torus", "full")


@pytest.fixture(scope="module")
def ridge_sweep():
    """All cutoffs and final losses for the 9-node ridge-tuning sweep.

    Transient cutoffs use the upper loss measured above the known optimal
    value, compared against the per-trial centralized reference.
    """
    topos = {
        "ring": topo.ring(9, 0.2, 0.4),
        "torus": topo.torus2d(9, 3, 3),
        "full": topo.fully_connected(9),
    }
    schedule = dict(alpha0=0.1, fixed_theta=0.2, decay_factor=0.8, decay_period=1000)
    # One engine call per level: every trial's centralized reference and
    # topology cells, each trial on its own seed.
    cells = [(trial, name) for trial in range(N_TRIALS) for name in ("centralized", *topos)]
    results = {}
    for label, sigma_omega in (("mild", 0.5), ("severe", 2.0)):
        prob = make_ridge_tuning(42, n_nodes=9, dim_p=10, sigma_omega=sigma_omega)
        phi_star = prob.phi_star()
        outcomes = run(
            prob,
            [topos["full" if name == "centralized" else name] for _, name in cells],
            # The centralized reference is so on the fully connected matrix.
            [HyperParams(variant=Variant.SECOND_ORDER, **schedule) for _ in cells],
            T=10_000, seed=[1000 + trial for trial, _ in cells], probe_every=100,
        )
        recs = dict(zip(cells, outcomes))
        for trial in range(N_TRIALS):
            cen = recs[(trial, "centralized")]
            for name in topos:
                rec = recs[(trial, name)]
                est = g.transient_cutoff(
                    rec, cen, rel_tol=0.2, window=5,
                    metric="upper_loss", baseline=phi_star,
                )
                results[(label, trial, name)] = {
                    "cutoff": est.cutoff_iteration,
                    "matched": est.matched,
                    "final_loss": rec.column("upper_loss")[-1],
                }
    return results


def test_criterion_7a_final_losses_agree(ridge_sweep):
    for label in ("mild", "severe"):
        for trial in range(N_TRIALS):
            finals = [
                ridge_sweep[(label, trial, name)]["final_loss"]
                for name in SWEEP_TOPOLOGIES
            ]
            spread = (max(finals) - min(finals)) / min(finals)
            assert spread < 0.10, f"{label} trial {trial}: spread {spread:.3f}"


def ordered(a, b, strict=False):
    """a >= b (a > b if strict) on two cutoffs, a win only when b is matched.

    An unmatched cutoff reads the horizon and says only that the true
    cutoff lies past it: a lower bound, which makes a on the left of an
    ordering no smaller, but b on the right unknown.
    """
    holds = a["cutoff"] > b["cutoff"] if strict else a["cutoff"] >= b["cutoff"]
    return b["matched"] and holds


def test_criterion_7b_topology_ordering(ridge_sweep):
    for label in ("mild", "severe"):
        cut = {(t, name): ridge_sweep[(label, t, name)]
               for t in range(N_TRIALS) for name in SWEEP_TOPOLOGIES}
        wins = sum(
            ordered(cut[(t, "ring")], cut[(t, "torus")])
            and ordered(cut[(t, "torus")], cut[(t, "full")])
            for t in range(N_TRIALS)
        )
        censored = sum(not c["matched"] for c in cut.values())
        assert wins >= 8, (f"{label}: ring >= torus >= full in only {wins}/{N_TRIALS} "
                           f"({censored} of {len(cut)} cutoffs censored)")


@pytest.fixture(scope="module")
def quadratic_heterogeneity_sweep():
    """Cutoffs, optimum and centralized curves for the 9-node quadratic pair.

    ``make_quadratic`` draws the same base matrices and the same zero-mean
    node perturbations at every level and scales only the perturbations by
    ``heterogeneity``, so both levels share the node-averaged problem
    (unless its eigenvalue shift fires, which the test rules out) and the
    noise model. Cutoffs use |grad Phi(x_bar)|^2 against the per-trial
    centralized reference.
    """
    topos = {
        "ring": topo.ring(9, 0.2, 0.4),
        "torus": topo.torus2d(9, 3, 3),
    }
    full = topo.fully_connected(9)
    schedule = dict(alpha0=0.1, fixed_theta=0.2, decay_factor=0.8, decay_period=1000)
    # One engine call per level, as in ridge_sweep.
    cells = [(trial, name) for trial in range(N_TRIALS) for name in ("centralized", *topos)]
    results = {}
    for label, heterogeneity in (("mild", 0.02), ("severe", 0.08)):
        prob = make_quadratic(42, n_nodes=9, d=1, p=10, conditioning=5.0,
                              noise_scale=0.2, heterogeneity=heterogeneity)
        # Phi is quadratic in x, so one difference of exact hypergradients
        # is its (1 x 1) Hessian.
        curvature = (hypergradient_exact(prob, np.ones(1))
                     - hypergradient_exact(prob, np.zeros(1)))[0]
        level = {"x_opt": prob.x_opt(), "phi_star": prob.phi_star(),
                 "curvature": curvature, "centralized": [], "cutoff": {}}
        outcomes = run(
            prob,
            [full if name == "centralized" else topos[name] for _, name in cells],
            # The centralized reference is so on the fully connected matrix.
            [HyperParams(variant=Variant.SECOND_ORDER, **schedule) for _ in cells],
            T=10_000, seed=[1000 + trial for trial, _ in cells], probe_every=100,
        )
        recs = dict(zip(cells, outcomes))
        for trial in range(N_TRIALS):
            cen = recs[(trial, "centralized")]
            level["centralized"].append(cen.column("grad_sq_norm"))
            for name in topos:
                est = g.transient_cutoff(recs[(trial, name)], cen, rel_tol=0.2, window=5,
                                         metric="grad_sq_norm")
                level["cutoff"][(trial, name)] = {"cutoff": est.cutoff_iteration,
                                                  "matched": est.matched}
        results[label] = level
    return results


def test_criterion_7c_heterogeneity_ordering(quadratic_heterogeneity_sweep):
    mild = quadratic_heterogeneity_sweep["mild"]
    severe = quadratic_heterogeneity_sweep["severe"]
    # Like with like: one upper objective with a strict minimum, and the
    # same centralized run, so only node dissimilarity differs.
    assert np.max(np.abs(mild["x_opt"] - severe["x_opt"])) <= 1e-12
    assert abs(mild["phi_star"] - severe["phi_star"]) <= 1e-12
    assert mild["curvature"] > 0 and severe["curvature"] > 0
    for t in range(N_TRIALS):
        a, b = mild["centralized"][t], severe["centralized"][t]
        assert np.all(np.abs(a - b) <= 1e-6 * np.abs(a)), f"trial {t}: centralized curves differ"
    for name in ("ring", "torus"):
        wins = sum(
            ordered(severe["cutoff"][(t, name)], mild["cutoff"][(t, name)], strict=True)
            for t in range(N_TRIALS)
        )
        censored = {label: sum(not level["cutoff"][(t, name)]["matched"] for t in range(N_TRIALS))
                    for label, level in (("mild", mild), ("severe", severe))}
        assert wins >= 8, (f"{name}: severe > mild in only {wins}/{N_TRIALS} "
                           f"(censored cutoffs: {censored})")


# ---------------------------------------------------------------------------
# Criterion 8: consensus-error scaling with the step size
# ---------------------------------------------------------------------------


def test_criterion_8_consensus_error_scaling():
    prob = make_ridge_tuning(42, n_nodes=9, dim_p=10, sigma_omega=2.0)
    W = topo.ring(9, 0.2, 0.4)
    # Both step sizes of all ten trials in one call.
    cells = [(1000 + trial, alpha) for trial in range(10) for alpha in (0.1, 0.01)]
    hps = [HyperParams(alpha0=alpha, fixed_theta=0.2, variant=Variant.SECOND_ORDER)
           for _, alpha in cells]
    recs = run(prob, [W] * len(cells), hps, T=2000, seed=[seed for seed, _ in cells],
               probe_every=100)
    averages = {cell: float(np.mean(rec.column("consensus_error")))
                for cell, rec in zip(cells, recs)}
    wins = sum(averages[seed, 0.01] < averages[seed, 0.1] for seed, _ in cells[::2])
    assert wins >= 8, f"smaller step won only {wins}/10"

    # Zero step size: pure gossip, geometric consensus decay at rate rho^2.
    rng = np.random.default_rng(3)
    hp0 = HyperParams(alpha0=0.0, fixed_theta=0.0, variant=Variant.SECOND_ORDER)
    rec0 = run(
        prob, W, hp0, T=30, seed=0, probe_every=1,
        X0=rng.standard_normal((9, 1)),
        Y0=rng.standard_normal((9, 10)),
        Z0=rng.standard_normal((9, 10)),
    )
    errors = rec0.column("consensus_error")
    rates = errors[1:] / errors[:-1]
    assert np.max(rates[5:]) <= W.rho**2 + 0.02


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical CSV determinism
# ---------------------------------------------------------------------------


def test_criterion_9_csv_determinism():
    quad = make_quadratic(7, n_nodes=4, d=3, p=3, conditioning=5.0)
    ridge = make_ridge_tuning(42, n_nodes=9, dim_p=10, sigma_omega=0.5)
    cases = [
        (quad, topo.ring(4),
         HyperParams(alpha0=0.05, fixed_theta=0.5, variant=Variant.SECOND_ORDER)),
        (ridge, topo.ring(9, 0.2, 0.4),
         HyperParams(alpha0=0.1, fixed_theta=0.2, decay_factor=0.8,
                     decay_period=1000, variant=Variant.SECOND_ORDER)),
        (ridge, topo.fully_connected(9),
         HyperParams(alpha0=0.1, fixed_theta=0.2, variant=Variant.SECOND_ORDER)),
    ]
    for prob, W, hp in cases:
        a = run(prob, W, hp, T=1000, seed=4242, probe_every=100).to_csv()
        b = run(prob, W, hp, T=1000, seed=4242, probe_every=100).to_csv()
        assert a.encode() == b.encode()
