"""Iteration engine: updates, variants, determinism, and failure modes."""

import numpy as np
import pytest

from gossipbo import engine
from gossipbo.engine import (
    BLOCK_STEPS,
    ConfigMismatch,
    EngineError,
    HyperParams,
    NumericalDivergence,
    Variant,
    init,
    run,
    step,
)
from gossipbo.metrics import RunRecord, consensus_error, probe
from gossipbo.problem import (
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    trivial_quadratic,
)
from gossipbo import topology as topo


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
        HyperParams(alpha0=0.1, decay_factor=0.8, decay_period=np.nan)
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
    W = topo.ring(4)
    st0 = init(quad, W, hyper(), seed=0)
    assert st0.X.shape == (4, 2) and st0.Y.shape == (4, 3)
    assert st0.Z.shape == (4, 3) and st0.H.shape == (4, 2)
    assert st0.t == 0 and len(st0.rngs) == 1 and isinstance(st0.rngs[0], np.random.Generator)
    X0 = np.ones((4, 2))
    st1 = init(quad, W, hyper(), seed=0, X0=X0)
    assert np.array_equal(st1.X, X0)
    with pytest.raises(ConfigMismatch):
        init(quad, W, hyper(), seed=0, Y0=np.zeros((4, 2)))
    with pytest.raises(ConfigMismatch):
        init(quad, topo.ring(5), hyper(), seed=0)


def test_init_rejects_a_first_order_cell_before_a_second_order_one(quad):
    # step serves the leading cells with the second-order estimator, so a
    # first-order cell ahead of a second-order one would swap their estimators.
    Ws = [topo.ring(4)] * 2
    so, fo = hyper(variant=Variant.SECOND_ORDER), hyper(variant=Variant.FIRST_ORDER)
    with pytest.raises(ConfigMismatch, match="second-order"):
        init(quad, Ws, [fo, so], seed=0)
    assert init(quad, Ws, [so, fo], seed=0).fo.tolist() == [False, True]


def test_step_advances_counter_and_keeps_shapes(quad):
    W = topo.ring(4)
    st0 = init(quad, W, hyper(), seed=1)
    st1 = step(quad, W, hyper(), st0)
    assert st1.t == 1
    assert st1.X.shape == st0.X.shape
    assert st1.rngs[0] is st0.rngs[0]  # the generator advances in place


def test_zero_steps_reduce_to_gossip(quad):
    # With all step sizes zero the update is one gossip round of X, Y, Z
    # while h stays fixed (it is a local moving average, not mixed).
    W = topo.ring(4)
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
    W = topo.ring(4, 0.2, 0.4)
    rng = np.random.default_rng(6)
    X0 = rng.standard_normal((4, 2))
    hp = hyper(alpha0=0.0, fixed_theta=0.0)
    st = init(quad, W, hp, seed=3, X0=X0)
    for _ in range(5):
        st = step(quad, W, hp, st)
    assert np.allclose(st.x_bar(), X0.mean(axis=0), atol=1e-13)


def test_run_probe_grid(quad):
    W = topo.ring(4)
    rec = run(quad, W, hyper(), T=250, seed=4, probe_every=100)
    assert list(rec.ts) == [0, 100, 200, 250]


def test_run_determinism(quad):
    W = topo.ring(4)
    a = run(quad, W, hyper(), T=200, seed=7, probe_every=50)
    b = run(quad, W, hyper(), T=200, seed=7, probe_every=50)
    assert a.to_csv() == b.to_csv()
    c = run(quad, W, hyper(), T=200, seed=8, probe_every=50)
    assert a.to_csv() != c.to_csv()


def test_variants_run_and_differ(quad):
    W = topo.ring(4)
    so = run(quad, W, hyper(variant=Variant.SECOND_ORDER), T=100, seed=9)
    fo = run(quad, W, hyper(variant=Variant.FIRST_ORDER, delta=1e-6), T=100, seed=9)
    cen = run(quad, W, hyper(variant=Variant.CENTRALIZED), T=100, seed=9)
    # FO approximates SO closely on quadratics under common samples.
    assert np.allclose(so.column("upper_loss"), fo.column("upper_loss"), rtol=1e-6)
    # The centralized trajectory genuinely differs from the gossip one.
    assert not np.allclose(so.column("consensus_error"), cen.column("consensus_error"))


def test_centralized_has_zero_consensus_error(quad):
    W = topo.ring(4)
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
    W = topo.fully_connected(4)
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
    W = topo.ring(3)
    hp = hyper(alpha0=1e9, fixed_theta=1.0)
    st = init(prob, W, hp, seed=12, Y0=np.full((3, 2), 1e6))
    with pytest.raises(NumericalDivergence) as exc_info:
        for _ in range(100):
            st = step(prob, W, hp, st)
    assert exc_info.value.iteration >= 1


def test_divergence_carries_probes_before_blow_up():
    prob = trivial_quadratic(dim=2, n_nodes=3)
    W = topo.ring(3)
    hp = hyper(alpha0=1e3, fixed_theta=1.0)
    with pytest.raises(NumericalDivergence) as exc_info:
        run(prob, W, hp, T=100, seed=12, probe_every=1, Y0=np.full((3, 2), 1.0))
    exc = exc_info.value
    assert exc.iteration > 1
    assert list(exc.record.ts) == list(range(exc.iteration))


def test_run_rejects_bad_horizon(quad):
    # T and probe_every are whole counts: a fraction would probe on another
    # grid than asked. A NaN or negative wall-clock limit would disable it.
    W = topo.ring(4)
    for T in (0, np.nan, 10.0, np.inf):
        with pytest.raises(ValueError, match="T must"):
            run(quad, W, hyper(), T=T, seed=0)
    for probe_every in (0, np.nan, 2.5):
        with pytest.raises(ValueError, match="probe_every must"):
            run(quad, W, hyper(), T=10, seed=0, probe_every=probe_every)
    for wall_limit_s in (np.nan, -1.0):
        with pytest.raises(ValueError, match="wall_limit_s must"):
            run(quad, W, hyper(), T=10, seed=0, wall_limit_s=wall_limit_s)


def test_wall_limit_enforced(quad):
    W = topo.ring(4)
    with pytest.raises(EngineError):
        run(quad, W, hyper(), T=5000, seed=0, probe_every=10, wall_limit_s=1e-9)


def test_ridge_end_to_end_smoke():
    prob = make_ridge_tuning(42, n_nodes=9, dim_p=10, sigma_omega=0.5)
    W = topo.ring(9, 0.2, 0.4)
    hp = HyperParams(alpha0=0.1, fixed_theta=0.2, decay_factor=0.8, decay_period=1000)
    rec = run(prob, W, hp, T=500, seed=100, probe_every=100)
    loss = rec.column("upper_loss")
    assert loss[-1] < loss[0]  # the lower level makes progress
    assert np.all(np.isfinite(loss))


def test_logcosh_runs_every_variant():
    # The log-cosh family is deterministic: its samples are None, and the
    # engine passes them through to the oracles like any other sample.
    prob = make_logcosh(1, 4, 2, 3)
    W = topo.ring(4)
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


def family_instance(family):
    if family == "quadratic":
        return make_quadratic(1, n_nodes=8, d=2, p=4, conditioning=5.0, heterogeneity=0.3,
                              noise_scale=0.2)
    if family == "ridge":
        return make_ridge_tuning(42, n_nodes=9, dim_p=10, sigma_omega=2.0)
    return make_logcosh(3, n_nodes=6, d=2, p=5)


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_group_matches_solo_runs(family):
    # so, fo and centralized cells advanced as groups -- so with centralized,
    # fo apart -- give each cell the record of its one-matrix run, byte for byte.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, seed=17, probe_every=7, X0=X0)
    groups = [
        (Ws + Ws[-1:], [Variant.SECOND_ORDER] * 3 + [Variant.CENTRALIZED]),
        (Ws, [Variant.FIRST_ORDER] * 3),
    ]
    for group_Ws, variants in groups:
        hps = [hyper(variant=v, fixed_theta=0.2, delta=1e-4) for v in variants]
        outcomes = run(prob, group_Ws, hps, **kw)
        assert len(outcomes) == len(hps)
        for k, (W, hp, rec) in enumerate(zip(group_Ws, hps, outcomes)):
            solo = run(prob, W, hp, **kw)
            assert rec.to_csv() == solo.to_csv(), (family, hp.variant, k)


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_trial_axis_matches_solo_runs(family):
    # Every trial's cells in one call per estimator, the trials interleaved
    # on the cell axis: each cell draws from its own seed's generator and
    # gets the record of its one-matrix run with that seed, byte for byte.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, probe_every=7, X0=X0)
    seeds = [17, 4, 99]
    groups = [
        (Ws + Ws[-1:], [Variant.SECOND_ORDER] * 3 + [Variant.CENTRALIZED]),
        (Ws, [Variant.FIRST_ORDER] * 3),
    ]
    for group_Ws, variants in groups:
        cells = [(k, seed) for k in range(len(group_Ws)) for seed in seeds]
        hps = [hyper(variant=variants[k], fixed_theta=0.2, delta=1e-4) for k, _ in cells]
        outcomes = run(prob, [group_Ws[k] for k, _ in cells], hps,
                       seed=[seed for _, seed in cells], **kw)
        assert len(outcomes) == len(cells)
        for (k, seed), hp, rec in zip(cells, hps, outcomes):
            solo = run(prob, group_Ws[k], hp, seed=seed, **kw)
            assert rec.to_csv() == solo.to_csv(), (family, hp.variant, k, seed)


def test_run_needs_one_seed_per_cell(quad):
    Ws = [topo.ring(4)] * 3
    with pytest.raises(ConfigMismatch):
        run(quad, Ws, hyper(), T=5, seed=[1, 2])
    with pytest.raises(ConfigMismatch):
        init(quad, Ws, hyper(), seed=[1, 2, 3, 4])


def test_run_checks_node_counts_before_it_stacks_the_matrices(quad):
    # A 5-node matrix among 4-node ones is a ConfigMismatch from init, not
    # a ValueError from stacking matrices of two sizes.
    Ws = [topo.ring(4), topo.ring(5)]
    with pytest.raises(ConfigMismatch, match="nodes"):
        run(quad, Ws, hyper(), T=5, seed=0)


def test_group_needs_one_schedule_and_mixes_estimators(quad):
    Ws = [topo.ring(4)] * 2
    hps = [hyper(variant=Variant.FIRST_ORDER), hyper(variant=Variant.SECOND_ORDER)]
    for W, hp, rec in zip(Ws, hps, run(quad, Ws, hps, T=5, seed=0)):
        assert rec.to_csv() == run(quad, W, hp, T=5, seed=0).to_csv()
    with pytest.raises(ConfigMismatch):
        run(quad, Ws, [hyper(alpha0=0.05), hyper(alpha0=0.04)], T=5, seed=0)
    with pytest.raises(ConfigMismatch):
        run(quad, Ws, [hyper(variant=Variant.SECOND_ORDER, delta=1e-3),
                       hyper(variant=Variant.FIRST_ORDER, delta=1e-4)], T=5, seed=0)


# Handed to ``run`` interleaved, fo before so: (topology index, variant).
MIXED_ORDER = [
    (0, Variant.FIRST_ORDER), (1, Variant.SECOND_ORDER), (2, Variant.CENTRALIZED),
    (1, Variant.FIRST_ORDER), (0, Variant.SECOND_ORDER), (2, Variant.FIRST_ORDER),
    (2, Variant.SECOND_ORDER), (0, Variant.CENTRALIZED),
]


@pytest.mark.parametrize("seeds", [[17], [17, 4, 99]], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_mixed_call_matches_solo_runs(family, seeds):
    # so, fo and centralized cells of every trial in one call, in no
    # particular order: each cell's record is that of its
    # one-matrix run, byte for byte. Every cell takes its own seed's sample
    # rows, so the sample has a cell axis that each estimator's block slices,
    # with one seed (eight cells, as many as the quadratic has nodes) as
    # with three.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, probe_every=7, X0=X0)
    cells = [(k, v, seed) for seed in seeds for k, v in MIXED_ORDER]
    hps = [hyper(variant=v, fixed_theta=0.2, delta=1e-4) for _, v, _ in cells]
    outcomes = run(prob, [Ws[k] for k, _, _ in cells], hps, seed=[s for _, _, s in cells], **kw)
    assert len(outcomes) == len(cells)
    for (k, v, seed), hp, rec in zip(cells, hps, outcomes):
        solo = run(prob, Ws[k], hp, seed=seed, **kw)
        assert rec.to_csv() == solo.to_csv(), (family, v, k, seed)


@pytest.mark.parametrize("seeds", [(7, 8), (7, 7)], ids=["two-seeds", "one-seed"])
@pytest.mark.parametrize("lazy", [Variant.FIRST_ORDER, Variant.SECOND_ORDER])
def test_mixed_cells_diverge_across_the_estimator_boundary(lazy, seeds, monkeypatch):
    # At alpha0 = 0.3 the two lazy rings diverge under either estimator, at
    # iterations 82 and 105 (test_group_cells_diverge_on_their_own runs the
    # first). Here only the ``lazy`` estimator runs on them: those cells
    # leave the call one at a time while the other estimator's cells go on.
    # After each drop the second-order estimator gets exactly the live so
    # and centralized cells and the first-order one the live fo cells, and
    # every cell is its solo run, whether the cells draw from two
    # generators or all from one.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, lazy_W, ring, full = (
        topo.ring(4, 0.9, 0.05), topo.ring(4, 0.8, 0.1), topo.ring(4), topo.fully_connected(4)
    )
    other = Variant.SECOND_ORDER if lazy is Variant.FIRST_ORDER else Variant.FIRST_ORDER
    a, b = seeds
    cells = [(ring, other, a), (lazier, lazy, a), (full, other, b), (lazy_W, lazy, b),
             (full, Variant.CENTRALIZED, a), (ring, lazy, b)]
    hps = [hyper(alpha0=0.3, variant=v) for _, v, _ in cells]
    kw = dict(T=200, probe_every=3)
    sizes = {"so": [], "fo": []}
    for name in sizes:
        original = getattr(engine, f"hvp_{name}")

        def counted(problem, X, *args, _name=name, _original=original):
            sizes[_name].append(X.shape[0])
            return _original(problem, X, *args)

        monkeypatch.setattr(engine, f"hvp_{name}", counted)
    outcomes = run(prob, [W for W, _, _ in cells], hps, seed=[s for _, _, s in cells], **kw)
    monkeypatch.undo()

    ends = []
    for (W, _, seed), hp, out in zip(cells, hps, outcomes):
        try:
            solo = run(prob, W, hp, seed=seed, **kw)
        except NumericalDivergence as exc:
            solo = exc
        assert type(out) is type(solo)
        if isinstance(out, NumericalDivergence):
            assert (out.iteration, str(out)) == (solo.iteration, str(solo))
            assert out.record.to_csv() == solo.record.to_csv()
            ends.append(out.iteration)
        else:
            assert out.to_csv() == solo.to_csv()
            ends.append(kw["T"])
    diverged = {i for i, out in enumerate(outcomes) if isinstance(out, NumericalDivergence)}
    assert diverged == {1, 3}
    assert ends[1] < ends[3]  # two drops
    # A cell takes part in every step before the iteration it diverged at.
    # Cells alike in weights, estimator and seed are computed as one: with
    # one seed, the fully connected so cell and the centralized cell.
    computed = [(engine._weights(W, hp).tobytes(), v is Variant.FIRST_ORDER, seed)
                for (W, v, seed), hp in zip(cells, hps)]
    for name in sizes:
        fo = name == "fo"
        live = [
            len({key for key, end in zip(computed, ends) if key[1] == fo and s < end})
            for s in range(max(ends))
        ]
        assert sizes[name] == [k for k in live if k], name


def test_group_cells_diverge_on_their_own():
    # A lazy ring mixes too slowly to tame the strongly heterogeneous nodes:
    # at alpha0 = 0.3 it alone diverges, at 0.5 every cell does, at
    # different iterations. Each cell of the group diverges when and as its
    # solo run does and keeps the probes before it; the others go on as if
    # alone.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    Ws = [topo.ring(4, 0.9, 0.05), topo.ring(4), topo.fully_connected(4)]
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
    W = topo.ring(4)
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


@pytest.mark.parametrize("where, value", [("Y", np.inf), ("Y", -np.inf), ("Z", 1e13),
                                          ("Z", -1e13)])
def test_step_verdict_names_exactly_the_cell_out_of_range(quad, where, value):
    # As with NaN: an infinite y entry, or a z entry whose gossiped value
    # (a third of it on the ring) is past the limit either way, fails
    # exactly its cell, under that iterate.
    W = topo.ring(4)
    st = init(quad, [W] * 3, hyper(), seed=[0, 1, 2])
    getattr(st, where)[1, 2, 0] = value
    # inf - inf in an infinite cell's noisy gradient is NaN, also caught.
    with pytest.raises(NumericalDivergence) as exc_info, np.errstate(invalid="ignore"):
        step(quad, np.stack([W.weights] * 3), hyper(), st)
    exc = exc_info.value
    message = f"{where.lower()}-iterates diverged at iteration 1"
    assert exc.cells == {1: message} and str(exc) == message and exc.iteration == 1
    for c in (0, 2):
        assert all(np.all(np.abs(a[c]) <= 1e12) for a in (exc.state.X, exc.state.Y,
                                                           exc.state.Z, exc.state.H))


def stepwise(prob, W, hp, T, seed, probe_every, X0=None):
    """A cell's CSV from bare ``step`` calls, each drawing its own one-step
    sample, with the divergence (iteration, message) or None. The probes
    filed one by one give the CSV of their rows filed as one block."""
    st = init(prob, W, hp, seed=seed, X0=X0)
    rec = RunRecord()
    ts, rows = [], []

    def probe_now():
        ts.append(st.t)
        rows.append(probe(prob, st, alpha=hp.alpha(st.t)))
        rec.add_probe(ts[-1], rows[-1])

    probe_now()
    divergence = None
    for t in range(T):
        try:
            st = step(prob, W, hp, st)
        except NumericalDivergence as exc:
            divergence = (exc.iteration, str(exc))
            break
        if (t + 1) % probe_every == 0 or t + 1 == T:
            probe_now()
    assert RunRecord(ts, rows).to_csv() == rec.to_csv()
    return rec.to_csv(), divergence


def outcome_of(out):
    if isinstance(out, NumericalDivergence):
        return out.record.to_csv(), (out.iteration, str(out))
    return out.to_csv(), None


@pytest.mark.parametrize("T", [1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
                               3 * BLOCK_STEPS + 5])
@pytest.mark.parametrize("seeds", [[5], [17, 4, 99]], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("family", ["quadratic", "ridge"])
def test_block_edges_match_step_by_step(family, seeds, T):
    # Samples drawn a block at a time, the last block cut at T, give every
    # cell what stepping it alone, one draw per step, gives.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    cells = [(W, v, seed) for seed in seeds for W in Ws
             for v in (Variant.SECOND_ORDER, Variant.FIRST_ORDER)]
    hps = [hyper(variant=v, fixed_theta=0.2, delta=1e-4) for _, v, _ in cells]
    outcomes = run(prob, [W for W, _, _ in cells], hps, T=T, seed=[s for _, _, s in cells],
                   probe_every=7, X0=X0)
    for (W, _, seed), hp, out in zip(cells, hps, outcomes):
        assert outcome_of(out) == stepwise(prob, W, hp, T, seed, 7, X0=X0)


def test_cell_diverging_mid_block_matches_step_by_step():
    # The lazier ring diverges at iteration 82, inside a block: its columns
    # leave the pending block and every other cell goes on as if alone.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, ring, full = topo.ring(4, 0.9, 0.05), topo.ring(4), topo.fully_connected(4)
    cells = [(ring, Variant.SECOND_ORDER, 8), (lazier, Variant.SECOND_ORDER, 7),
             (full, Variant.CENTRALIZED, 8), (ring, Variant.FIRST_ORDER, 7),
             (lazier, Variant.FIRST_ORDER, 9)]
    hps = [hyper(alpha0=0.3, variant=v) for _, v, _ in cells]
    T = 120
    outcomes = run(prob, [W for W, _, _ in cells], hps, T=T, seed=[s for _, _, s in cells],
                   probe_every=3)
    ends = {}
    for i, ((W, _, seed), hp, out) in enumerate(zip(cells, hps, outcomes)):
        assert outcome_of(out) == stepwise(prob, W, hp, T, seed, 3)
        if isinstance(out, NumericalDivergence):
            ends[i] = out.iteration
    assert 1 in ends and ends[1] % BLOCK_STEPS not in (0, 1)
    assert set(ends) <= {1, 4}


def test_alike_cells_are_computed_once(monkeypatch):
    # A fully connected so cell and a centralized cell of the same seed
    # gossip with the same weights, as does an exact duplicate pair: the
    # engine advances one cell per (weights, estimator, seed), and each
    # member gets its solo record, as an object of its own.
    prob = family_instance("ridge")
    n = prob.n_nodes
    full, ring = topo.fully_connected(n), topo.ring(n, 0.2, 0.4)
    so, cen = Variant.SECOND_ORDER, Variant.CENTRALIZED
    cells = [(full, so, 17), (ring, cen, 17), (full, so, 4), (full, cen, 4),
             (ring, so, 4), (ring, so, 4)]
    hps = [hyper(variant=v, fixed_theta=0.2) for _, v, _ in cells]
    kw = dict(T=40, probe_every=7)
    widths = []
    original = engine.step

    def counted(problem, W, hyper, state, *args):
        widths.append(state.X.shape[0])
        return original(problem, W, hyper, state, *args)

    monkeypatch.setattr(engine, "step", counted)
    outcomes = run(prob, [W for W, _, _ in cells], hps, seed=[s for _, _, s in cells], **kw)
    monkeypatch.undo()
    assert widths == [3] * kw["T"]
    for (W, _, seed), hp, rec in zip(cells, hps, outcomes):
        solo = run(prob, W, hp, seed=seed, **kw)
        assert rec.to_csv() == solo.to_csv()
    assert len({id(rec) for rec in outcomes}) == len(cells)


def test_alike_cells_diverge_each_with_its_own_error():
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, ring = topo.ring(4, 0.9, 0.05), topo.ring(4)
    Ws = [lazier, ring, lazier]
    hp = hyper(alpha0=0.3)
    outcomes = run(prob, Ws, hp, T=120, seed=7, probe_every=3)
    first, _, twin = outcomes
    solo = run(prob, ring, hp, T=120, seed=7, probe_every=3)
    assert outcomes[1].to_csv() == solo.to_csv()
    assert isinstance(first, NumericalDivergence) and isinstance(twin, NumericalDivergence)
    assert first is not twin and first.record is not twin.record
    assert (first.iteration, str(first)) == (twin.iteration, str(twin))
    assert first.record.to_csv() == twin.record.to_csv()
    assert outcome_of(first) == stepwise(prob, lazier, hp, 120, 7, 3)


@pytest.mark.parametrize("probe_every", [1, 3])
@pytest.mark.parametrize("seeds", [[5], [17, 4, 99]], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_batched_probes_match_step_by_step(family, seeds, probe_every, monkeypatch):
    # Probes evaluated at most PROBE_NODE_ROWS node rows at a time, over a
    # horizon that crosses several flushes, give every cell the CSV that a
    # probe at each probe time gives.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    cells = [(W, v, seed) for seed in seeds for W in Ws
             for v in (Variant.SECOND_ORDER, Variant.FIRST_ORDER)]
    hps = [hyper(variant=v, fixed_theta=0.2, delta=1e-4) for _, v, _ in cells]
    T = 150
    calls = []
    original = engine.metrics_mod.probe

    def counted(problem, state, alpha):
        calls.append(state.X.shape[0])
        return original(problem, state, alpha)

    monkeypatch.setattr(engine.metrics_mod, "probe", counted)
    outcomes = run(prob, [W for W, _, _ in cells], hps, T=T, seed=[s for _, _, s in cells],
                   probe_every=probe_every, X0=X0)
    monkeypatch.undo()
    assert len(calls) >= 3
    for (W, _, seed), hp, out in zip(cells, hps, outcomes):
        assert outcome_of(out) == stepwise(prob, W, hp, T, seed, probe_every, X0=X0)


def test_pending_probes_stay_within_the_budget(monkeypatch):
    # Fewer probe calls than probe times, and no call holds more node rows
    # than the budget; under a budget smaller than one probe, each probe is
    # evaluated alone.
    prob = family_instance("quadratic")
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    hp = hyper(fixed_theta=0.2)
    T, probe_every = 300, 2
    calls = []
    original = engine.metrics_mod.probe

    def counted(problem, state, alpha):
        calls.append(state.X.shape[0] * n)
        return original(problem, state, alpha)

    monkeypatch.setattr(engine.metrics_mod, "probe", counted)
    outcomes = run(prob, Ws, hp, T=T, seed=3, probe_every=probe_every)
    monkeypatch.undo()
    probe_times = T // probe_every + 1
    assert 1 < len(calls) < probe_times
    assert max(calls) <= engine.PROBE_NODE_ROWS
    assert sum(calls) == probe_times * len(Ws) * n
    for W, rec in zip(Ws, outcomes):
        assert rec.to_csv() == stepwise(prob, W, hp, T, 3, probe_every)[0]
    calls.clear()
    monkeypatch.setattr(engine.metrics_mod, "probe", counted)
    monkeypatch.setattr(engine, "PROBE_NODE_ROWS", n)
    alone = run(prob, Ws, hp, T=T, seed=3, probe_every=probe_every)
    monkeypatch.undo()
    assert calls == [len(Ws) * n] * probe_times
    assert [rec.to_csv() for rec in alone] == [rec.to_csv() for rec in outcomes]


def test_cell_diverging_with_probes_pending_matches_step_by_step(monkeypatch):
    # The lazier ring diverges at iteration 82 while its latest probes wait
    # in the pending batch: they still reach its partial record, and every
    # other cell goes on as if alone.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, ring = topo.ring(4, 0.9, 0.05), topo.ring(4)
    cells = [(ring, Variant.SECOND_ORDER), (lazier, Variant.SECOND_ORDER),
             (ring, Variant.FIRST_ORDER)]
    hps = [hyper(alpha0=0.3, variant=v) for _, v in cells]
    T, probe_every = 200, 1
    spans = []
    original = engine.metrics_mod.probe

    def counted(problem, state, alpha):
        spans.append((int(np.min(state.t)), int(np.max(state.t))))
        return original(problem, state, alpha)

    monkeypatch.setattr(engine.metrics_mod, "probe", counted)
    outcomes = run(prob, [W for W, _ in cells], hps, T=T, seed=7, probe_every=probe_every)
    monkeypatch.undo()
    diverged = outcomes[1]
    assert isinstance(diverged, NumericalDivergence)
    assert any(lo < diverged.iteration <= hi for lo, hi in spans)
    for (W, _), hp, out in zip(cells, hps, outcomes):
        assert outcome_of(out) == stepwise(prob, W, hp, T, 7, probe_every)


def failing_lower_solve(monkeypatch, bad_points, kind):
    """Make the exact lower solve fail at every point of ``bad_points``; the
    message names how many points the call had, so a batched call's error
    differs from a single probe's."""
    from gossipbo import problem as problem_mod

    original = problem_mod.lower_solve
    bad = {x.tobytes() for x in bad_points}
    sizes = []

    def lower_solve(problem, x, *args, **kwargs):
        points = np.asarray(x).reshape(-1, problem.dim_x)
        sizes.append(len(points))
        hits = [k for k, p in enumerate(points) if p.tobytes() in bad]
        if hits:
            message = f"point {hits[0]} of {len(points)} failed"
            if kind == "warning":
                import warnings

                warnings.warn(message, RuntimeWarning)  # an error under the suite's filter
            raise problem_mod.LowerSolveDiverged(message)
        return original(problem, x, *args, **kwargs)

    monkeypatch.setattr(problem_mod, "lower_solve", lower_solve)
    return sizes


def probed_steps(prob, Ws, hp, T, seed, probe_every):
    """Every probe of a (C, n, .) state stepped by bare ``step`` calls, each
    probe evaluated at its own time."""
    st = init(prob, Ws, hp, seed=seed)
    weights = np.stack([W.weights for W in Ws])
    states = [st]
    rows = [probe(prob, st, alpha=hp.alpha(0))]
    for t in range(T):
        st = step(prob, weights, hp, st)
        if (t + 1) % probe_every == 0 or t + 1 == T:
            states.append(st)
            rows.append(probe(prob, st, alpha=hp.alpha(st.t)))
    return states, rows


@pytest.mark.parametrize("kind", ["error", "warning"])
def test_probe_error_in_a_batch_is_the_first_failing_probes(kind, monkeypatch):
    # The exact oracle fails from probe time 30 on, in the middle of a batch
    # (24 node rows per probe: probes 0-20 make the first batch). The run
    # raises what the probe at t = 30 raises on its own, not the batch's error.
    prob = family_instance("quadratic")
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.ring(n, 0.5, 0.25)]
    hp = hyper(fixed_theta=0.2)
    T, fail_from = 60, 30
    states, _ = probed_steps(prob, Ws, hp, T, 11, 1)
    bad = [x for st in states[fail_from:] for x in st.x_bar()]
    sizes = failing_lower_solve(monkeypatch, bad, kind)
    expected = RuntimeWarning if kind == "warning" else engine.metrics_mod.problem_mod.ProblemError
    with pytest.raises(expected) as reference:
        probed_steps(prob, Ws, hp, T, 11, 1)
    assert sizes[-1] == len(Ws)
    sizes.clear()
    with pytest.raises(type(reference.value)) as raised:
        run(prob, Ws, hp, T=T, seed=11, probe_every=1)
    assert str(raised.value) == str(reference.value) == f"point 0 of {len(Ws)} failed"
    assert max(sizes) > len(Ws)  # the batch failed first
    # A wall-clock limit passed at t = 1 does not hide the error of the probe at t = 1.
    sizes = failing_lower_solve(monkeypatch, [x for st in states[1:] for x in st.x_bar()], kind)
    with pytest.raises(type(reference.value)) as raised:
        run(prob, Ws, hp, T=T, seed=11, probe_every=1, wall_limit_s=1e-9)
    assert str(raised.value) == f"point 0 of {len(Ws)} failed"
    assert sizes[0] == 2 * len(Ws)


@pytest.mark.parametrize("value", [1e12, -1e12, np.nextafter(1e12, np.inf), 6e11, np.nan,
                                   np.inf, -np.inf, 1e200])
def test_guard_filter_gives_the_exact_verdict(quad, value):
    # With alpha = theta = 0 the new h is the old one, so ``value`` reaches
    # an iterate as it is (inf and NaN also reach x, through 0 * h). The
    # step's verdicts and messages are those of the exact per-cell check,
    # including for 6e11, which is within the limit but fails the quick
    # sum-of-squares test, and 1e200, whose square overflows.
    W = topo.ring(4)
    hp = hyper(alpha0=0.0, fixed_theta=0.0)
    st = init(quad, [W] * 3, hp, seed=[0, 1, 2])
    st.H[1, 2, 0] = value
    with np.errstate(invalid="ignore"):
        try:
            new, cells = step(quad, np.stack([W.weights] * 3), hp, st), {}
        except NumericalDivergence as exc:
            new, cells = exc.state, exc.cells
    expected: dict[int, str] = {}
    for name, arr in zip("xyzh", (new.X, new.Y, new.Z, new.H)):
        for c in np.flatnonzero(~(np.abs(arr).max(axis=(-2, -1)) <= 1e12)):
            expected.setdefault(int(c), f"{name}-iterates diverged at iteration 1")
    assert cells == expected
    assert (1 in cells) == (not abs(value) <= 1e12)
    assert set(cells) <= {1}
