"""Metrics: consensus error, records, CSV round trips, transient cutoffs."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo.engine import HyperParams, Variant, init, step
from gossipbo.metrics import (
    CSV_HEADER,
    EmptyInput,
    GridMismatch,
    MetricsError,
    ProbeRow,
    RunRecord,
    consensus_error,
    probe,
    summarize,
    transient_cutoff,
)
from gossipbo.problem import (
    ProblemError,
    RidgeTuningSpec,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    trivial_quadratic,
)
from gossipbo.topology import Ring, build_topology


class FakeState:
    def __init__(self, X, Y, Z):
        self.X, self.Y, self.Z = X, Y, Z

    def x_bar(self):
        return self.X.mean(axis=0)


def test_consensus_error_hand_examples():
    zeros = np.zeros((2, 2))
    same = FakeState(np.ones((2, 3)), np.full((2, 2), 4.0), np.full((2, 2), -1.0))
    assert consensus_error(same) == 0.0
    e1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    state = FakeState(e1, zeros, zeros)
    assert consensus_error(state) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_consensus_error_translation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 3))
    Y = rng.standard_normal((5, 2))
    Z = rng.standard_normal((5, 2))
    shift = rng.standard_normal(3)
    a = consensus_error(FakeState(X, Y, Z))
    b = consensus_error(FakeState(X + shift, Y, Z))
    assert a == pytest.approx(b, rel=1e-9)


def test_consensus_error_gossip_contraction():
    # Pure gossip (zero steps): error after k rounds <= rho^{2k} * initial.
    prob = make_ridge_tuning(1, RidgeTuningSpec(dim_p=3, sigma_omega=0.5), 6)
    W = build_topology(Ring(0.2, 0.4), 6)
    hp = HyperParams(alpha0=0.0, fixed_theta=0.0, variant=Variant.SECOND_ORDER)
    rng = np.random.default_rng(2)
    st0 = init(
        prob, W, hp, seed=0,
        X0=rng.standard_normal((6, 1)),
        Y0=rng.standard_normal((6, 3)),
        Z0=rng.standard_normal((6, 3)),
    )
    e0 = consensus_error(st0)
    state = st0
    for k in range(1, 6):
        state = step(prob, W, hp, state)
        assert consensus_error(state) <= W.rho ** (2 * k) * e0 * (1 + 1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_probe_reports_gap_and_rejects_nonfinite():
    # The infinite iterate is fed on purpose; NumPy warns on the way to the error.
    from gossipbo.topology import FullyConnected

    prob = trivial_quadratic(dim=1, n_nodes=2)
    hp = HyperParams(alpha0=0.1)
    state = init(prob, build_topology(FullyConnected(), 2), hp, seed=0)
    row = probe(prob, state, alpha=0.1)
    assert row.t == 0 and row.alpha == 0.1
    assert math.isfinite(row.upper_loss)
    state.X[:] = np.inf
    with pytest.raises((MetricsError, ProblemError)):
        probe(prob, state, alpha=0.1)


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_probe_solves_the_lower_problem_once(family, monkeypatch):
    # y*(x_bar) is solved once and serves z*, grad Phi and Phi alike; the
    # probe reads what the public helpers give, bit for bit.
    from gossipbo import problem as problem_mod

    if family == "quadratic":
        prob = make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)
    elif family == "ridge":
        prob = make_ridge_tuning(5, RidgeTuningSpec(dim_p=6, sigma_omega=0.5), 3)
    else:
        prob = make_logcosh(3, n_nodes=3, d=2, p=5)
    rng = np.random.default_rng(0)
    X0 = 0.1 + np.abs(rng.standard_normal((3, prob.dim_x)))
    state = init(prob, build_topology(Ring(), 3), HyperParams(alpha0=0.1), seed=0,
                 X0=X0, Y0=rng.standard_normal((3, prob.dim_y)))
    phi_star = prob.phi_star()  # a constant of the instance, derived on its first call
    calls = []
    solve = problem_mod.lower_solve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(problem_mod, "lower_solve", counted)
    row = probe(prob, state, alpha=0.1)
    assert len(calls) == 1
    monkeypatch.undo()
    x_bar = state.x_bar()
    g = problem_mod.hypergradient_exact(prob, x_bar)
    assert row.grad_sq_norm == float(g @ g)
    if phi_star is None:
        assert math.isnan(row.phi_gap)
    else:
        assert row.phi_gap == problem_mod.phi_value(prob, x_bar) - phi_star


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_batched_probe_rows_are_the_cells_own(family, monkeypatch):
    # One probe of a (K, n, .) state makes one lower solve for all K cells,
    # and row k is the probe of cell k's own (n, .) state, bit for bit.
    from dataclasses import astuple, replace

    from gossipbo import problem as problem_mod

    if family == "quadratic":
        prob = make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)
    elif family == "ridge":
        prob = make_ridge_tuning(5, RidgeTuningSpec(dim_p=6, sigma_omega=0.5), 3)
    else:
        prob = make_logcosh(3, n_nodes=3, d=2, p=5)
    rng = np.random.default_rng(1)
    K = 64
    state = init(prob, [build_topology(Ring(), 3)] * K, HyperParams(alpha0=0.1), seed=0)
    state = replace(
        state,
        t=7,
        X=0.1 + np.abs(rng.standard_normal(state.X.shape)),
        Y=rng.standard_normal(state.Y.shape),
        Z=rng.standard_normal(state.Z.shape),
    )
    prob.phi_star()  # a constant of the instance, derived on its first call
    calls = []
    solve = problem_mod.lower_solve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(problem_mod, "lower_solve", counted)
    rows = probe(prob, state, alpha=0.1)
    assert len(calls) == 1 and calls[0].shape == (K, prob.dim_x)
    assert len(rows) == K
    for k, row in enumerate(rows):
        own = probe(prob, replace(state, X=state.X[k], Y=state.Y[k], Z=state.Z[k]), alpha=0.1)
        assert [repr(v) for v in astuple(row)] == [repr(v) for v in astuple(own)], k
        # Both against the definitions, computed one cell at a time.
        g = problem_mod.hypergradient_exact(prob, state.X[k].mean(axis=0))
        assert row.grad_sq_norm == float(g @ g), k
        spread = sum(float(np.sum((M[k] - M[k].mean(axis=0)) ** 2))
                     for M in (state.X, state.Y, state.Z))
        assert row.consensus_error == spread / prob.n_nodes, k


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_probe_squared_norms_equal_the_loop(seed, K, d):
    # The probe squares each cell's hypergradient in one stacked matmul;
    # every row rounds as that cell's own dot product g[k] @ g[k] does.
    from gossipbo import problem as problem_mod

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((K, d)) * np.exp(rng.uniform(-20.0, 20.0, (K, 1)))
    want = np.array([g[k] @ g[k] for k in range(K)])
    assert problem_mod._dot(g, g).tobytes() == want.tobytes()
    assert problem_mod._dot(g[0], g[0]).tobytes() == want[0].tobytes()


def _trailing_median_loop(values, window):
    """One window at a time: the reference the vectorized median must equal."""
    out = np.empty(len(values))
    for i in range(len(values)):
        out[i] = np.median(values[max(0, i - window + 1) : i + 1])
    return out


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_trailing_median_equals_the_loop(seed, length):
    from gossipbo.metrics import _trailing_median

    rng = np.random.default_rng(seed)
    values = np.exp(rng.standard_normal(length))
    values[rng.random(length) < 0.2] = 1.0  # ties
    for window in (1, 2, 3, 4, 5, 8, length, length + 1, length + 7):
        got = _trailing_median(values, window)
        want = _trailing_median_loop(values, window)
        assert got.tobytes() == want.tobytes(), (window, length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the median of no values
        empty = _trailing_median_loop(values, 0)
    assert np.all(np.isnan(empty)) and np.all(np.isnan(_trailing_median(values, 0)))


def make_record(ts, values, metric="grad_sq_norm"):
    rec = RunRecord(metadata={})
    for t, v in zip(ts, values):
        kwargs = dict(
            t=int(t), grad_sq_norm=1.0, phi_gap=0.0,
            consensus_error=0.0, upper_loss=1.0, alpha=0.1,
        )
        kwargs[metric] = float(v)
        rec.add_probe(ProbeRow(**kwargs))
    return rec


def test_record_requires_increasing_iterations():
    rec = make_record([0, 10], [1.0, 1.0])
    with pytest.raises(MetricsError):
        rec.add_probe(ProbeRow(10, 1.0, 0.0, 0.0, 1.0, 0.1))


def test_csv_roundtrip_is_byte_identical():
    ts = [0, 100, 200]
    vals = [1.234567890123e-3, 2.0 / 3.0, math.pi]
    rec = make_record(ts, vals)
    text = rec.to_csv()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = RunRecord.from_csv(text)
    assert back.to_csv() == text
    assert np.array_equal(back.column("grad_sq_norm"), rec.column("grad_sq_norm"))


def test_csv_rejects_wrong_header():
    with pytest.raises(MetricsError):
        RunRecord.from_csv("a,b,c\n1,2,3\n")


def test_transient_cutoff_identical_records():
    rec = make_record([0, 100, 200], [9.0, 4.0, 1.0])
    est = transient_cutoff(rec, rec, rel_tol=0.1)
    assert est.matched and est.cutoff_iteration == 0


def test_transient_cutoff_never_matching():
    cen = make_record([0, 100, 200], [1.0, 1.0, 1.0])
    dec = make_record([0, 100, 200], [2.0, 2.0, 2.0])
    est = transient_cutoff(dec, cen, rel_tol=0.1)
    assert not est.matched and est.cutoff_iteration == 200


def test_transient_cutoff_simple_crossing():
    cen = make_record(range(0, 1000, 100), [1.0] * 10)
    dec = make_record(range(0, 1000, 100), [3.0, 2.5, 2.0, 1.5, 1.05, 1.0, 1.0, 1.0, 1.0, 1.0])
    est = transient_cutoff(dec, cen, rel_tol=0.2, window=1)
    assert est.matched and est.cutoff_iteration == 400


def test_transient_cutoff_baseline_shifts_comparison():
    # With a common offset, the raw curves are within 20% everywhere but
    # the baseline-adjusted gaps are not.
    cen = make_record([0, 100, 200], [10.1, 10.1, 10.1])
    dec = make_record([0, 100, 200], [10.5, 10.5, 10.5])
    raw = transient_cutoff(dec, cen, rel_tol=0.2, window=1)
    adj = transient_cutoff(dec, cen, rel_tol=0.2, window=1, baseline=10.0)
    assert raw.matched and raw.cutoff_iteration == 0
    assert not adj.matched


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_transient_cutoff_monotone_in_rel_tol(seed):
    rng = np.random.default_rng(seed)
    ts = list(range(0, 2000, 100))
    cen = make_record(ts, rng.uniform(0.5, 1.5, len(ts)))
    dec = make_record(ts, rng.uniform(0.5, 3.0, len(ts)))
    cuts = [
        transient_cutoff(dec, cen, rel_tol=r, window=3).cutoff_iteration
        for r in (0.1, 0.2, 0.5, 1.0, 3.0)
    ]
    assert all(a >= b for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("window", [0, -1])
def test_transient_cutoff_rejects_window_below_one(window):
    # A window of no probes smooths every value to NaN, which never matches.
    rec = make_record([0, 100, 200], [9.0, 4.0, 1.0])
    with pytest.raises(MetricsError, match="window"):
        transient_cutoff(rec, rec, rel_tol=0.1, window=window)


def test_transient_cutoff_grid_mismatch():
    a = make_record([0, 100], [1.0, 1.0])
    b = make_record([0, 50], [1.0, 1.0])
    with pytest.raises(GridMismatch):
        transient_cutoff(a, b, rel_tol=0.1)


def test_summarize_single_and_duplicated_records():
    rec = make_record([0, 100], [2.0, 1.0])
    table = summarize([rec])
    assert np.array_equal(table.mean["grad_sq_norm"], [2.0, 1.0])
    assert np.array_equal(table.stderr["grad_sq_norm"], [0.0, 0.0])
    table3 = summarize([rec, rec, rec])
    assert np.array_equal(table3.mean["grad_sq_norm"], [2.0, 1.0])
    assert np.allclose(table3.stderr["grad_sq_norm"], 0.0)
    assert table3.n_records == 3


def test_summarize_permutation_invariant():
    a = make_record([0, 100], [2.0, 1.0])
    b = make_record([0, 100], [4.0, 3.0])
    c = make_record([0, 100], [6.0, 5.0])
    t1 = summarize([a, b, c])
    t2 = summarize([c, a, b])
    assert np.allclose(t1.mean["grad_sq_norm"], t2.mean["grad_sq_norm"])
    assert np.allclose(t1.stderr["grad_sq_norm"], t2.stderr["grad_sq_norm"])


def test_summarize_validates_input():
    with pytest.raises(EmptyInput):
        summarize([])
    a = make_record([0, 100], [1.0, 1.0])
    b = make_record([0, 50], [1.0, 1.0])
    with pytest.raises(GridMismatch):
        summarize([a, b])
