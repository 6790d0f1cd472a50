"""Iteration engine: updates, variants, determinism, and failure modes."""

import gc
import re
import weakref

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
from reference_stepper import gossip, local_step, reference_samples


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
    _, beta, gamma, theta, _ = hp.rates(0)
    assert beta == pytest.approx(0.2)
    assert gamma == pytest.approx(0.3)
    assert theta == pytest.approx(0.05)
    pinned = HyperParams(alpha0=0.1, fixed_theta=0.2)
    assert pinned.rates(12345)[3] == pytest.approx(0.2)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(alpha0=-0.1)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, decay_factor=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, decay_period=0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, decay_factor=0.8, decay_period=np.nan)
    # A stage is a whole number of steps: 2.5 would decay at t = 3, 5, 8,
    # and inf never.
    for period in (2.5, np.inf):
        with pytest.raises(ValueError, match="decay_period"):
            HyperParams(alpha0=0.1, decay_factor=0.5, decay_period=period)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, tau=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha0=0.1, c2=-1.0)


def test_hyperparams_take_the_variant_by_value(quad):
    # A variant given by its name is that variant: "fo" takes central
    # differences, as its enum member does. "centralized" names no estimator:
    # the centralized reference is a second-order cell on the uniform matrix.
    W = topo.ring(4)
    for variant in Variant:
        hp = hyper(variant=variant.value)
        assert hp.variant is variant
        assert run(quad, W, hp, T=5, seed=0).to_csv() == \
            run(quad, W, hyper(variant=variant), T=5, seed=0).to_csv()
    for name in ("bogus", "centralized"):
        with pytest.raises(ValueError, match=name):
            hyper(variant=name)


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


@pytest.mark.parametrize("variants, calls", [
    (["so", "so", "fo"], dict(so=1, fo=1)),
    (["so", "so"], dict(so=1, fo=0)),
], ids=["mixed", "so-only"])
def test_step_calls_each_estimator_once_by_its_engine_name(quad, monkeypatch, variants, calls):
    # perfbench's tracer wraps engine.hvp_so and engine.hvp_fo by name, so a
    # step must look both up as engine globals and call each at most once.
    import gossipbo

    assert (gossipbo.hvp_so, gossipbo.hvp_fo, gossipbo.HvpPair) == (
        engine.hvp_so, engine.hvp_fo, engine.HvpPair)
    counts = dict(so=0, fo=0)
    for name in counts:
        original = getattr(engine, f"hvp_{name}")

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(engine, f"hvp_{name}", counted)
    hps = [hyper(variant=v) for v in variants]
    Ws = [topo.ring(4)] * len(hps)
    step(quad, init(quad, Ws, hps, seed=[1] * len(hps)))
    assert counts == calls


def test_step_advances_counter_and_keeps_shapes(quad):
    W = topo.ring(4)
    st0 = init(quad, W, hyper(), seed=1)
    st1 = step(quad, st0)
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
    st1 = step(quad, st0)
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
        st = step(quad, st)
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
    cen = run(quad, topo.fully_connected(4), hyper(variant=Variant.SECOND_ORDER), T=100, seed=9)
    # FO approximates SO closely on quadratics under common samples.
    assert np.allclose(so.column("upper_loss"), fo.column("upper_loss"), rtol=1e-6)
    # The centralized trajectory genuinely differs from the gossip one.
    assert not np.allclose(so.column("consensus_error"), cen.column("consensus_error"))


def test_centralized_has_zero_consensus_error(quad):
    W = topo.fully_connected(4)
    hp = hyper(variant=Variant.SECOND_ORDER)
    st = init(quad, W, hp, seed=10)
    for _ in range(20):
        st = step(quad, st)
        assert consensus_error(st) < 1e-24
        assert np.allclose(st.X, st.X[0], atol=0)


def test_fully_connected_identical_data_matches_centralized():
    # One gossip round on the complete graph averages exactly, so with
    # node-identical data and common samples the decentralized iterates
    # coincide with the centralized recursion.
    prob = make_quadratic(12, n_nodes=4, d=2, p=3, heterogeneity=0.0, noise_scale=0.3)
    W = topo.fully_connected(4)
    hp_d = hyper(variant=Variant.SECOND_ORDER)
    hp_c = hyper(variant=Variant.SECOND_ORDER)
    st_d = init(prob, W, hp_d, seed=11)
    st_c = init(prob, W, hp_c, seed=11)
    for _ in range(50):
        st_d = step(prob, st_d)
        st_c = step(prob, st_c)
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
            st = step(prob, st)
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


def test_wall_limit_bounds_a_call_with_no_probe_before_the_horizon(quad):
    # 20000 steps take far longer than 0.05 s; the limit is checked every
    # BLOCK_STEPS steps, not only at the probe at T, and named as given.
    T = 20_000
    with pytest.raises(EngineError, match=r"limit 0\.05s exceeded") as raised:
        run(quad, topo.ring(4), hyper(), T=T, seed=0, probe_every=T, wall_limit_s=0.05)
    iteration = int(re.search(r"iteration (\d+)", str(raised.value)).group(1))
    assert iteration < T and iteration % BLOCK_STEPS == 0


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
    recs["centralized"] = run(prob, topo.fully_connected(4), hyper(), T=5, seed=0)
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
    # the so cell on the fully connected matrix, fo apart -- give each cell
    # the record of its one-matrix run, byte for byte.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, seed=17, probe_every=7, X0=X0)
    groups = [
        (Ws + Ws[-1:], [Variant.SECOND_ORDER] * 4),
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
        (Ws + Ws[-1:], [Variant.SECOND_ORDER] * 4),
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


def test_run_reads_seeds_strictly(quad):
    # One integer seeds every cell; a range or an array holds one seed per
    # cell; a negative seed or anything else is a ConfigMismatch that names it.
    Ws = [topo.ring(4), topo.ring(4, 0.2, 0.4), topo.ring(4)]
    solo = [run(quad, W, hyper(), T=5, seed=c).to_csv() for c, W in enumerate(Ws)]
    for seeds in (range(3), np.arange(3), [np.int64(0), 1, 2]):
        assert [rec.to_csv() for rec in run(quad, Ws, hyper(), T=5, seed=seeds)] == solo
    assert run(quad, Ws[:2], hyper(), T=5, seed=np.int64(1))[1].to_csv() == solo[1]
    for bad in (None, 1.5, "7", [0, 1.0, 2], [[0, 1, 2]], -1, [0, -2, 1]):
        with pytest.raises(ConfigMismatch, match=re.escape(repr(bad))):
            run(quad, Ws, hyper(), T=5, seed=bad)
        with pytest.raises(ConfigMismatch, match=re.escape(repr(bad))):
            init(quad, Ws, hyper(), seed=bad)


def test_run_checks_node_counts_before_it_stacks_the_matrices(quad):
    # A 5-node matrix among 4-node ones is a ConfigMismatch from init, not
    # a ValueError from stacking matrices of two sizes.
    Ws = [topo.ring(4), topo.ring(5)]
    with pytest.raises(ConfigMismatch, match="nodes"):
        run(quad, Ws, hyper(), T=5, seed=0)


def test_group_mixes_schedules_and_estimators(quad):
    # Cells that differ in estimator, in step size, or in estimator and delta
    # share one call, and each gets the record of its one-matrix run.
    Ws = [topo.ring(4)] * 2
    for hps in ([hyper(variant=Variant.FIRST_ORDER), hyper(variant=Variant.SECOND_ORDER)],
                [hyper(alpha0=0.05), hyper(alpha0=0.04)],
                [hyper(variant=Variant.SECOND_ORDER, delta=1e-3),
                 hyper(variant=Variant.FIRST_ORDER, delta=1e-4)]):
        for W, hp, rec in zip(Ws, hps, run(quad, Ws, hps, T=5, seed=0)):
            assert rec.to_csv() == run(quad, W, hp, T=5, seed=0).to_csv(), hp


# Handed to ``run`` interleaved, fo before so: (topology index, variant).
# Index 2 is the fully connected matrix, on which so is the centralized cell.
MIXED_ORDER = [
    (0, Variant.FIRST_ORDER), (1, Variant.SECOND_ORDER), (2, Variant.SECOND_ORDER),
    (1, Variant.FIRST_ORDER), (0, Variant.SECOND_ORDER), (2, Variant.FIRST_ORDER),
    (2, Variant.SECOND_ORDER), (2, Variant.SECOND_ORDER),
]


# Schedules that differ from one another in every HyperParams field but
# the variant; the first is the one the other engine tests run.
SCHEDULES = [
    dict(alpha0=0.05, fixed_theta=0.2, delta=1e-4),
    dict(alpha0=0.03, c1=1.5, c2=0.7, c3=2.0, tau=0.5, decay_factor=0.8, decay_period=20,
         delta=1e-3),
    dict(alpha0=0.03, c1=0.6, c2=1.3, c3=0.8, tau=2.0, decay_factor=0.5, decay_period=25,
         fixed_theta=0.5, delta=3e-4),
    dict(alpha0=0.02, c1=1.2, c2=1.1, c3=0.5, tau=1.5, decay_factor=0.9, decay_period=7,
         fixed_theta=0.05, delta=1e-2),
]


@pytest.mark.parametrize("schedules", [1, len(SCHEDULES)], ids=["one-schedule", "all-schedules"])
@pytest.mark.parametrize("seeds", [[17], [17, 4, 99]], ids=["one-seed", "three-seeds"])
@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_mixed_call_matches_solo_runs(family, seeds, schedules):
    # so, fo and centralized cells of every trial in one call, in no
    # particular order: each cell's record is that of its
    # one-matrix run, byte for byte. Every cell takes its own seed's sample
    # rows, so the sample has a cell axis that each estimator's block slices,
    # with one seed (eight cells, as many as the quadratic has nodes) as
    # with three. With every schedule, each cell also steps with its own
    # step sizes and delta, and probes its own alpha.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    kw = dict(T=60, probe_every=7, X0=X0)
    cells = [(k, v, seed, j) for seed in seeds for k, v in MIXED_ORDER for j in range(schedules)]
    hps = [hyper(variant=v, **SCHEDULES[j]) for _, v, _, j in cells]
    outcomes = run(prob, [Ws[k] for k, *_ in cells], hps, seed=[s for _, _, s, _ in cells], **kw)
    assert len(outcomes) == len(cells)
    for (k, v, seed, j), hp, rec in zip(cells, hps, outcomes):
        solo = run(prob, Ws[k], hp, seed=seed, **kw)
        assert rec.to_csv() == solo.to_csv(), (family, v, k, seed, j)


@pytest.mark.parametrize("seeds", [(7, 8), (7, 7)], ids=["two-seeds", "one-seed"])
@pytest.mark.parametrize("lazy", [Variant.FIRST_ORDER, Variant.SECOND_ORDER])
def test_mixed_cells_diverge_across_the_estimator_boundary(lazy, seeds, monkeypatch):
    # At alpha0 = 0.3 the two lazy rings diverge under either estimator, at
    # iterations 82 and 105 (test_group_cells_diverge_on_their_own runs the
    # first). Here only the ``lazy`` estimator runs on them: those cells
    # leave the call one at a time while the other estimator's cells go on.
    # After each drop the second-order estimator gets exactly the live so
    # cells and the first-order one the live fo cells, and every cell is its
    # solo run, whether the cells draw from two generators or all from one.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, lazy_W, ring, full = (
        topo.ring(4, 0.9, 0.05), topo.ring(4, 0.8, 0.1), topo.ring(4), topo.fully_connected(4)
    )
    other = Variant.SECOND_ORDER if lazy is Variant.FIRST_ORDER else Variant.FIRST_ORDER
    a, b = seeds
    cells = [(ring, other, a), (lazier, lazy, a), (full, other, b), (lazy_W, lazy, b),
             (full, Variant.SECOND_ORDER, a), (ring, lazy, b)]
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
    # one seed and a first-order lazy estimator, the two fully connected so cells.
    computed = [(W.weights.tobytes(), v is Variant.FIRST_ORDER, seed) for W, v, seed in cells]
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
    # alone. So too when both step sizes share one call, the 0.5 cells
    # first, so that the 0.3 cells move along the cell axis as cells drop.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    Ws = [topo.ring(4, 0.9, 0.05), topo.ring(4), topo.fully_connected(4)]
    Ws.append(Ws[-1])
    variants = [Variant.SECOND_ORDER] * 4
    seen = {}
    for alphas in ((0.3,), (0.5,), (0.5, 0.3)):
        hps = [hyper(alpha0=alpha0, variant=v) for alpha0 in alphas for v in variants]
        kw = dict(T=200, seed=7, probe_every=3)
        outcomes = run(prob, Ws * len(alphas), hps, **kw)
        for W, hp, out in zip(Ws * len(alphas), hps, outcomes):
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
        seen[alphas] = [
            o.iteration if isinstance(o, NumericalDivergence) else None for o in outcomes
        ]
    assert seen[(0.3,)][0] is not None and seen[(0.3,)][1:] == [None] * 3
    assert None not in seen[(0.5,)] and len(set(seen[(0.5,)])) > 1
    assert seen[(0.5, 0.3)] == seen[(0.5,)] + seen[(0.3,)]


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
        step(quad, st)
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
        step(quad, st)
    exc = exc_info.value
    message = f"{where.lower()}-iterates diverged at iteration 1"
    assert exc.cells == {1: message} and str(exc) == message and exc.iteration == 1
    for c in (0, 2):
        assert all(np.all(np.abs(a[c]) <= 1e12) for a in (exc.state.X, exc.state.Y,
                                                           exc.state.Z, exc.state.H))


def stepwise(prob, W, hp, T, seed, probe_every, X0=None):
    """A cell's CSV from bare ``step`` calls on one cell's state, which draws
    its own sample blocks, with the divergence (iteration, message) or None.
    The probes filed one by one give the CSV of their rows filed as one block."""
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
            st = step(prob, st)
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
    # A many-cell call, its blocks drawn once per seed, gives every cell what
    # stepping that cell's own state by hand gives, wherever T falls in a block.
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


@pytest.mark.parametrize("family", ["quadratic", "ridge"])
def test_pending_block_holds_one_row_per_seed(family):
    # Six cells on two seeds: the pending block holds each generator's draws
    # once, row g being what rngs[g] draws alone; each step takes its cells'
    # rows from it.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.fully_connected(n), topo.ring(n)] * 2
    st = init(prob, Ws, hyper(), seed=[3, 3, 3, 8, 8, 8])
    block = engine._draw_block(prob, st, 5)
    alone = [prob.draw_block(np.random.default_rng(s), 5) for s in (3, 8)]
    for part, *own in zip(block, *alone):
        for v, *rows in zip(part, *own):
            assert v.shape[:3] == (5, 2, n)
            for g, row in enumerate(rows):
                assert v[:, g].tobytes() == np.ascontiguousarray(row).tobytes()


def test_hand_steps_draw_whole_blocks_once_per_seed(monkeypatch):
    # 40 steps of a three-cell state on two seeds: each generator draws
    # ceil(40 / BLOCK_STEPS) = 3 blocks of BLOCK_STEPS steps, held by the state.
    prob = family_instance("ridge")
    n = prob.n_nodes
    st = init(prob, [topo.ring(n), topo.fully_connected(n), topo.ring(n, 0.2, 0.4)], hyper(),
              seed=[5, 6, 5])
    ks = []
    original = prob.draw_block

    def counted(rng, k):
        ks.append(k)
        return original(rng, k)

    monkeypatch.setattr(prob, "draw_block", counted)
    for _ in range(40):
        st = step(prob, st)
    assert ks == [BLOCK_STEPS] * 6


def test_cell_diverging_mid_block_matches_step_by_step():
    # The lazier ring diverges at iteration 82, inside a block: it leaves the
    # batch mid-block and every other cell goes on as if alone.
    prob = make_quadratic(1, n_nodes=4, d=2, p=3, conditioning=4.0, heterogeneity=2.0,
                          noise_scale=0.2)
    lazier, ring, full = topo.ring(4, 0.9, 0.05), topo.ring(4), topo.fully_connected(4)
    cells = [(ring, Variant.SECOND_ORDER, 8), (lazier, Variant.SECOND_ORDER, 7),
             (full, Variant.SECOND_ORDER, 8), (ring, Variant.FIRST_ORDER, 7),
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
    # A fully connected so cell and the centralized cell of the same seed,
    # itself so on the fully connected matrix, are alike, as is an exact
    # duplicate pair: the engine advances one cell per (weights, estimator,
    # seed), and each member gets its solo record, as an object of its own.
    prob = family_instance("ridge")
    n = prob.n_nodes
    full, ring = topo.fully_connected(n), topo.ring(n, 0.2, 0.4)
    so = Variant.SECOND_ORDER
    cells = [(full, so, 17), (full, so, 17), (full, so, 4), (full, so, 4),
             (ring, so, 4), (ring, so, 4)]
    hps = [hyper(variant=v, fixed_theta=0.2) for _, v, _ in cells]
    kw = dict(T=40, probe_every=7)
    widths = []
    original = engine.step

    def counted(problem, state, *args):
        widths.append(state.X.shape[0])
        return original(problem, state, *args)

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


def test_pending_probes_keep_no_sample_block_alive(monkeypatch):
    # A pending probe holds what a probe reads, not its state: when a probe
    # call runs, the only sample block alive is the current state's. Three
    # cells of 9 nodes probed every block make 26 probes, so two calls.
    prob = family_instance("ridge")
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    blocks, alive = [], []
    draw, original = engine._draw_block, engine.metrics_mod.probe

    def drawn(problem, state, k):
        block = draw(problem, state, k)
        blocks.append([weakref.ref(v) for part in block if part is not None for v in part])
        return block

    def counted(problem, state, alpha):
        gc.collect()
        alive.append(sum(any(ref() is not None for ref in refs) for refs in blocks))
        return original(problem, state, alpha)

    monkeypatch.setattr(engine, "_draw_block", drawn)
    monkeypatch.setattr(engine.metrics_mod, "probe", counted)
    run(prob, Ws, hyper(fixed_theta=0.2), T=400, seed=5, probe_every=BLOCK_STEPS)
    monkeypatch.undo()
    assert len(blocks) == 400 // BLOCK_STEPS
    assert alive == [1, 1]


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
    states = [st]
    rows = [probe(prob, st, alpha=hp.alpha(0))]
    for t in range(T):
        st = step(prob, st)
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
            new, cells = step(quad, st), {}
        except NumericalDivergence as exc:
            new, cells = exc.state, exc.cells
    expected: dict[int, str] = {}
    for name, arr in zip("xyzh", (new.X, new.Y, new.Z, new.H)):
        for c in np.flatnonzero(~(np.abs(arr).max(axis=(-2, -1)) <= 1e12)):
            expected.setdefault(int(c), f"{name}-iterates diverged at iteration 1")
    assert cells == expected
    assert (1 in cells) == (not abs(value) <= 1e12)
    assert set(cells) <= {1}



def iterates(state, *cell):
    """The state's (x, y, z, h), or those of one cell of a (C, n, .) state."""
    return tuple(a[cell] for a in (state.X, state.Y, state.Z, state.H))


def assert_step_follows_recursion(prob, weights, hp, t, before, after, sample):
    """``after`` is step t of the per-node recursion from ``before``, to the gossip sum's rounding.

    Both sides apply every operation to the same operands in the same order
    but one, the gossip sum. The engine's matmul and the node-by-node sum
    each lie within gamma_n = n u / (1 - n u) of the exact sum, times
    sum_j |w_ij| |a_j| <= max |a|, as a row of W holds convex weights. So x,
    y and z agree to 2 gamma_n max |a| for the local values a they gossip,
    and h, which is not gossiped, agrees exactly. Each step starts from the
    engine's own state, so no difference carries over from one to the next.
    A trajectory could not be bounded so: a sampled ridge lower Hessian
    reaches 2 |features|^2, about 35, so a y-step with beta > 2/35 expands
    a difference along it.
    """
    local = local_step(prob, hp, t, before, sample)
    n = len(weights)
    u = np.finfo(float).eps / 2
    gamma_n = n * u / (1 - n * u)
    for name, got, a in zip("xyz", after, local):
        off = np.max(np.abs(got - gossip(weights, a)))
        assert off <= 2 * gamma_n * np.max(np.abs(a)), (name, t, off)
    np.testing.assert_array_equal(after[3], local[3], err_msg=f"h at step {t}")


def steps_of_run(monkeypatch, *args, **kw):
    """Each (state before, state after) of ``run``'s steps, in order."""
    steps = []
    original = engine.step

    def kept(problem, state, *rest):
        steps.append((state, original(problem, state, *rest)))
        return steps[-1][1]

    monkeypatch.setattr(engine, "step", kept)
    run(*args, **kw)
    monkeypatch.undo()
    return steps


@pytest.mark.parametrize("variant, topology", [
    (Variant.SECOND_ORDER, "ring"), (Variant.FIRST_ORDER, "ring"),
    (Variant.SECOND_ORDER, "full"),
], ids=["so", "fo", "centralized"])
@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_every_step_follows_the_recursion_node_by_node(family, variant, topology, monkeypatch):
    # Each of step's and run's T steps against one step of the recursion
    # written out per node, from the same state, with the samples of one
    # draw of all T steps. The centralized cell is so on the fully connected matrix.
    prob = family_instance(family)
    n = prob.n_nodes
    W = topo.ring(n, 0.2, 0.4) if topology == "ring" else topo.fully_connected(n)
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    hp = hyper(variant=variant, **SCHEDULES[1])  # decaying, tau != 1, c1 != c2
    T, seed = 60, 3
    samples = reference_samples(prob, T, seed)
    state = init(prob, W, hp, seed, X0=X0)
    for t in range(T):
        new = step(prob, state)
        assert_step_follows_recursion(prob, W.weights, hp, t, iterates(state), iterates(new),
                                      samples[t])
        state = new
    steps = steps_of_run(monkeypatch, prob, W, hp, T=T, seed=seed, X0=X0)
    assert len(steps) == T
    for t, (before, after) in enumerate(steps):
        assert_step_follows_recursion(prob, W.weights, hp, t, iterates(before, 0),
                                      iterates(after, 0), samples[t])


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_every_step_of_a_mixed_call_follows_the_recursion(family, monkeypatch):
    # One call whose cells differ in every HyperParams field, in topology
    # and in seed, some seeds shared: every step of step and of run, cell by
    # cell, against one step of the per-node recursion under that cell's
    # own hyper. The cells come second-order first and no two are alike, so
    # the state's cell axis follows the list.
    prob = family_instance(family)
    n = prob.n_nodes
    Ws = [topo.ring(n, 0.2, 0.4), topo.ring(n), topo.fully_connected(n)]
    X0 = np.random.default_rng(0).uniform(-0.05, 0.05, (n, prob.dim_x))
    # so cells, centralized ones (so on the fully connected matrix), fo cells.
    groups = ((Variant.SECOND_ORDER, Ws), (Variant.SECOND_ORDER, Ws[2:]), (Variant.FIRST_ORDER, Ws))
    cells = [(group[j % len(group)], hyper(variant=v, **SCHEDULES[j]))
             for v, group in groups for j in range(len(SCHEDULES))]
    hps = [hp for _, hp in cells]
    seeds = [3 + c % 5 for c in range(len(cells))]
    T = 60
    samples = {seed: reference_samples(prob, T, seed) for seed in set(seeds)}

    def assert_cells_follow(t, before, after):
        for c, ((W, hp), seed) in enumerate(zip(cells, seeds)):
            assert_step_follows_recursion(prob, W.weights, hp, t, iterates(before, c),
                                          iterates(after, c), samples[seed][t])

    state = init(prob, [W for W, _ in cells], hps, seeds, X0=X0)
    for t in range(T):
        new = step(prob, state)
        assert_cells_follow(t, state, new)
        state = new
    steps = steps_of_run(monkeypatch, prob, [W for W, _ in cells], hps, T=T, seed=seeds, X0=X0)
    assert len(steps) == T
    for t, (before, after) in enumerate(steps):
        assert before.X.shape[0] == len(cells)
        assert_cells_follow(t, before, after)
