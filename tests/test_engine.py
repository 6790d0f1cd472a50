"""Iteration engine: updates, variants, determinism, and failure modes."""

import numpy as np
import pytest

from gossipbo.engine import (
    ConfigMismatch,
    EngineError,
    HyperParams,
    NumericalDivergence,
    Variant,
    init,
    run,
    step,
)
from gossipbo.metrics import consensus_error
from gossipbo.problem import (
    RidgeTuningSpec,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    trivial_quadratic,
)
from gossipbo.topology import FullyConnected, Ring, build_topology


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(30, n_nodes=4, d=2, p=3, conditioning=4.0, noise_scale=0.2)


def hyper(**kw):
    kw.setdefault("alpha0", 0.05)
    return HyperParams(**kw)


def test_hyperparams_schedules():
    hp = HyperParams(alpha0=0.1, c1=2.0, c2=3.0, c3=0.5, decay_factor=0.8, decay_period=10)
    assert hp.alpha(0) == pytest.approx(0.1)
    assert hp.alpha(9) == pytest.approx(0.1)
    assert hp.alpha(10) == pytest.approx(0.08)
    assert hp.alpha(25) == pytest.approx(0.1 * 0.8**2)
    assert hp.beta(0) == pytest.approx(0.2)
    assert hp.gamma(0) == pytest.approx(0.3)
    assert hp.theta(0) == pytest.approx(0.05)
    pinned = HyperParams(alpha0=0.1, fixed_theta=0.2)
    assert pinned.theta(12345) == pytest.approx(0.2)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(alpha0=-0.1)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, decay_factor=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, decay_period=0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, tau=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, c2=-1.0)


@pytest.mark.parametrize("delta", [0.0, -1e-3])
def test_hyperparams_reject_nonpositive_delta(delta):
    for variant in Variant:
        with pytest.raises(ValueError):
            HyperParams(alpha0=0.1, delta=delta, variant=variant)


def test_init_shapes_and_overrides(quad):
    W = build_topology(Ring(), 4)
    st0 = init(quad, W, hyper(), seed=0)
    assert st0.X.shape == (4, 2) and st0.Y.shape == (4, 3)
    assert st0.Z.shape == (4, 3) and st0.H.shape == (4, 2)
    assert st0.t == 0 and isinstance(st0.rng, np.random.Generator)
    X0 = np.ones((4, 2))
    st1 = init(quad, W, hyper(), seed=0, X0=X0)
    assert np.array_equal(st1.X, X0)
    with pytest.raises(ConfigMismatch):
        init(quad, W, hyper(), seed=0, Y0=np.zeros((4, 2)))
    with pytest.raises(ConfigMismatch):
        init(quad, build_topology(Ring(), 5), hyper(), seed=0)


def test_step_advances_counter_and_keeps_shapes(quad):
    W = build_topology(Ring(), 4)
    st0 = init(quad, W, hyper(), seed=1)
    st1 = step(quad, W, hyper(), st0)
    assert st1.t == 1
    assert st1.X.shape == st0.X.shape
    assert st1.rng is st0.rng  # the generator advances in place


def test_zero_steps_reduce_to_gossip(quad):
    # With all step sizes zero the update is one gossip round of X, Y, Z
    # while h stays fixed (it is a local moving average, not mixed).
    W = build_topology(Ring(), 4)
    rng = np.random.default_rng(5)
    X0, Y0 = rng.standard_normal((4, 2)), rng.standard_normal((4, 3))
    Z0, H0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
    hp = hyper(alpha0=0.0, fixed_theta=0.0)
    st0 = init(quad, W, hp, seed=2, X0=X0, Y0=Y0, Z0=Z0, H0=H0)
    st1 = step(quad, W, hp, st0)
    assert np.allclose(st1.X, W.weights @ X0, atol=1e-14)
    assert np.allclose(st1.Y, W.weights @ Y0, atol=1e-14)
    assert np.allclose(st1.Z, W.weights @ Z0, atol=1e-14)
    assert np.array_equal(st1.H, H0)


def test_mean_iterate_preserved_by_mixing(quad):
    # The gossip part of the update never moves the network mean; with a
    # zero upper step the X mean is exactly preserved.
    W = build_topology(Ring(0.2, 0.4), 4)
    rng = np.random.default_rng(6)
    X0 = rng.standard_normal((4, 2))
    hp = hyper(alpha0=0.0, fixed_theta=0.0)
    st = init(quad, W, hp, seed=3, X0=X0)
    for _ in range(5):
        st = step(quad, W, hp, st)
    assert np.allclose(st.x_bar(), X0.mean(axis=0), atol=1e-13)


def test_run_probe_grid(quad):
    W = build_topology(Ring(), 4)
    rec = run(quad, W, hyper(), T=250, seed=4, probe_every=100)
    assert list(rec.ts) == [0, 100, 200, 250]
    assert rec.metadata["variant"] == "so"
    assert rec.metadata["seed"] == 4


def test_run_determinism(quad):
    W = build_topology(Ring(), 4)
    a = run(quad, W, hyper(), T=200, seed=7, probe_every=50)
    b = run(quad, W, hyper(), T=200, seed=7, probe_every=50)
    assert a.to_csv() == b.to_csv()
    c = run(quad, W, hyper(), T=200, seed=8, probe_every=50)
    assert a.to_csv() != c.to_csv()


def test_variants_run_and_differ(quad):
    W = build_topology(Ring(), 4)
    so = run(quad, W, hyper(variant=Variant.SECOND_ORDER), T=100, seed=9)
    fo = run(quad, W, hyper(variant=Variant.FIRST_ORDER, delta=1e-6), T=100, seed=9)
    cen = run(quad, W, hyper(variant=Variant.CENTRALIZED), T=100, seed=9)
    # FO approximates SO closely on quadratics under common samples.
    assert np.allclose(so.column("upper_loss"), fo.column("upper_loss"), rtol=1e-6)
    # The centralized trajectory genuinely differs from the gossip one.
    assert not np.allclose(so.column("consensus_error"), cen.column("consensus_error"))


def test_centralized_has_zero_consensus_error(quad):
    W = build_topology(Ring(), 4)
    hp = hyper(variant=Variant.CENTRALIZED)
    st = init(quad, W, hp, seed=10)
    for _ in range(20):
        st = step(quad, W, hp, st)
        assert consensus_error(st) < 1e-24
        assert np.allclose(st.X, st.X[0], atol=0)


def test_fully_connected_identical_data_matches_centralized():
    # One gossip round on the complete graph averages exactly, so with
    # node-identical data and common samples the decentralized iterates
    # coincide with the centralized recursion.
    prob = make_quadratic(12, n_nodes=4, d=2, p=3, heterogeneity=0.0, noise_scale=0.3)
    W = build_topology(FullyConnected(), 4)
    hp_d = hyper(variant=Variant.SECOND_ORDER)
    hp_c = hyper(variant=Variant.CENTRALIZED)
    st_d = init(prob, W, hp_d, seed=11)
    st_c = init(prob, W, hp_c, seed=11)
    for _ in range(50):
        st_d = step(prob, W, hp_d, st_d)
        st_c = step(prob, W, hp_c, st_c)
        assert np.allclose(st_d.X, st_c.X, atol=1e-12)
        assert np.allclose(st_d.Y, st_c.Y, atol=1e-12)
        assert np.allclose(st_d.Z, st_c.Z, atol=1e-12)


def test_numerical_divergence_raised():
    prob = trivial_quadratic(dim=2, n_nodes=3)
    W = build_topology(Ring(), 3)
    hp = hyper(alpha0=1e9, fixed_theta=1.0)
    st = init(prob, W, hp, seed=12, Y0=np.full((3, 2), 1e6))
    with pytest.raises(NumericalDivergence) as exc_info:
        for _ in range(100):
            st = step(prob, W, hp, st)
    assert exc_info.value.iteration >= 1


def test_divergence_carries_probes_before_blow_up():
    prob = trivial_quadratic(dim=2, n_nodes=3)
    W = build_topology(Ring(), 3)
    hp = hyper(alpha0=1e3, fixed_theta=1.0)
    with pytest.raises(NumericalDivergence) as exc_info:
        run(prob, W, hp, T=100, seed=12, probe_every=1, Y0=np.full((3, 2), 1.0))
    exc = exc_info.value
    assert exc.iteration > 1
    assert list(exc.record.ts) == list(range(exc.iteration))


def test_run_rejects_bad_horizon(quad):
    W = build_topology(Ring(), 4)
    with pytest.raises(ValueError):
        run(quad, W, hyper(), T=0, seed=0)
    with pytest.raises(ValueError):
        run(quad, W, hyper(), T=10, seed=0, probe_every=0)


def test_wall_limit_enforced(quad):
    W = build_topology(Ring(), 4)
    with pytest.raises(EngineError):
        run(quad, W, hyper(), T=5000, seed=0, probe_every=10, wall_limit_s=1e-9)


def test_ridge_end_to_end_smoke():
    prob = make_ridge_tuning(42, RidgeTuningSpec(dim_p=10, sigma_omega=0.5), 9)
    W = build_topology(Ring(0.2, 0.4), 9)
    hp = HyperParams(alpha0=0.1, fixed_theta=0.2, decay_factor=0.8, decay_period=1000)
    rec = run(prob, W, hp, T=500, seed=100, probe_every=100)
    loss = rec.column("upper_loss")
    assert loss[-1] < loss[0]  # the lower level makes progress
    assert np.all(np.isfinite(loss))


def test_logcosh_runs_every_variant():
    # The log-cosh family is deterministic: its samples are None, and the
    # engine passes them through to the oracles like any other sample.
    prob = make_logcosh(1, 4, 2, 3)
    W = build_topology(Ring(), 4)
    recs = {v: run(prob, W, hyper(variant=v), T=5, seed=0) for v in Variant}
    for rec in recs.values():
        assert list(rec.ts) == [0, 5]
        for name in ("grad_sq_norm", "consensus_error", "upper_loss"):
            assert np.all(np.isfinite(rec.column(name)))
    # Central differences carry a bias of order delta^2 per product (at most
    # sqrt(1/3) L delta^2 |z|^2, L < 1 here), so the fo curves stay that close.
    delta = hyper().delta
    so, fo = recs[Variant.SECOND_ORDER], recs[Variant.FIRST_ORDER]
    for name in ("grad_sq_norm", "consensus_error", "upper_loss"):
        a, b = so.column(name), fo.column(name)
        assert np.max(np.abs(a - b)) <= delta**2 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_group_matches_solo_runs(family):
    # so, fo and centralized cells advanced as groups -- so with centralized,
    # fo apart -- give each cell the record of its one-matrix run, byte for byte.
    if family == "quadratic":
        prob = make_quadratic(1, n_nodes=8, d=2, p=4, conditioning=5.0, heterogeneity=0.3,
                              noise_scale=0.2)
    elif family == "ridge":
        prob = make_ridge_tuning(42, RidgeTuningSpec(dim_p=10, sigma_omega=2.0), 9)
    else:
        prob = make_logcosh(3, n_nodes=6, d=2, p=5)
    n = prob.n_nodes
    topologies = [Ring(0.2, 0.4), Ring(), FullyConnected()]
    Ws = [build_topology(t, n) for t in topologies]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, seed=17, probe_every=7, X0=X0)
    groups = [
        (Ws + Ws[-1:], [Variant.SECOND_ORDER] * 3 + [Variant.CENTRALIZED]),
        (Ws, [Variant.FIRST_ORDER] * 3),
    ]
    for group_Ws, variants in groups:
        hps = [hyper(variant=v, fixed_theta=0.2, delta=1e-4) for v in variants]
        metas = [{"cell": k} for k in range(len(hps))]
        outcomes = run(prob, group_Ws, hps, metadata=metas, **kw)
        assert len(outcomes) == len(hps)
        for k, (W, hp, rec) in enumerate(zip(group_Ws, hps, outcomes)):
            solo = run(prob, W, hp, **kw)
            assert rec.to_csv() == solo.to_csv(), (family, hp.variant, k)
            assert rec.metadata == {**solo.metadata, "cell": k}


def test_group_needs_one_estimator_and_schedule(quad):
    Ws = [build_topology(Ring(), 4)] * 2
    with pytest.raises(ConfigMismatch):
        run(quad, Ws, [hyper(variant=Variant.SECOND_ORDER), hyper(variant=Variant.FIRST_ORDER)],
            T=5, seed=0)
    with pytest.raises(ConfigMismatch):
        run(quad, Ws, [hyper(alpha0=0.05), hyper(alpha0=0.04)], T=5, seed=0)


def test_group_cells_diverge_on_their_own():
    # A lazy ring mixes too slowly to tame the strongly heterogeneous nodes:
    # at alpha0 = 0.3 it alone diverges, at 0.5 every cell does, at
    # different iterations. Each cell of the group diverges when and as its
    # solo run does and keeps the probes before it; the others go on as if
    # alone.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    Ws = [build_topology(t, 4) for t in (Ring(0.9, 0.05), Ring(), FullyConnected())]
    Ws.append(Ws[-1])
    variants = [Variant.SECOND_ORDER] * 3 + [Variant.CENTRALIZED]
    seen = {}
    for alpha0 in (0.3, 0.5):
        hps = [hyper(alpha0=alpha0, variant=v) for v in variants]
        kw = dict(T=200, seed=7, probe_every=3)
        outcomes = run(prob, Ws, hps, **kw)
        for W, hp, out in zip(Ws, hps, outcomes):
            try:
                solo = run(prob, W, hp, **kw)
            except NumericalDivergence as exc:
                solo = exc
            assert type(out) is type(solo)
            if isinstance(out, NumericalDivergence):
                assert (out.iteration, str(out)) == (solo.iteration, str(solo))
                assert out.record.to_csv() == solo.record.to_csv()
                assert list(out.record.ts) == list(range(0, out.iteration, 3))
            else:
                assert out.to_csv() == solo.to_csv()
        seen[alpha0] = [
            o.iteration if isinstance(o, NumericalDivergence) else None for o in outcomes
        ]
    assert seen[0.3][0] is not None and seen[0.3][1:] == [None] * 3
    assert None not in seen[0.5] and len(set(seen[0.5])) > 1


def test_step_gives_one_verdict_per_cell(quad):
    # Three cells in one (3, n, .) state: a NaN in cell 1's y and a huge h in
    # cell 2 (which the upper step carries into x) fail those cells only,
    # each under the first iterate that left the finite range.
    W = build_topology(Ring(), 4)
    st = init(quad, [W] * 3, hyper(), seed=0)
    assert st.X.shape == (3, 4, 2) and st.Y.shape == (3, 4, 3)
    st.Y[1, 2, 0] = np.nan
    st.H[2, 0, 1] = 1e14
    with pytest.raises(NumericalDivergence) as exc_info:
        step(quad, np.stack([W.weights] * 3), hyper(), st)
    exc = exc_info.value
    assert exc.cells == {
        1: "y-iterates diverged at iteration 1",
        2: "x-iterates diverged at iteration 1",
    }
    assert str(exc) == exc.cells[1] and exc.iteration == 1
    assert exc.state.t == 1
    assert all(np.all(np.isfinite(a[0])) for a in (exc.state.X, exc.state.Y, exc.state.H))
