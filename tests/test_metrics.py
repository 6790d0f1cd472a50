"""Metrics: consensus error, records, CSV round trips, transient cutoffs."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo.engine import HyperParams, Variant, init, step
from gossipbo.metrics import (
    COLUMNS,
    CSV_HEADER,
    PROBE_METRICS,
    EmptyInput,
    GridMismatch,
    MetricsError,
    RunRecord,
    SummaryTable,
    consensus_error,
    probe,
    summarize,
    transient_cutoff,
)
from gossipbo.problem import (
    ProblemError,
    make_logcosh,
    make_quadratic,
    make_ridge_tuning,
    trivial_quadratic,
)
from gossipbo import topology as topo


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
    prob = make_ridge_tuning(1, n_nodes=6, dim_p=3, sigma_omega=0.5)
    W = topo.ring(6, 0.2, 0.4)
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
    prob = trivial_quadratic(dim=1, n_nodes=2)
    hp = HyperParams(alpha0=0.1)
    state = init(prob, topo.fully_connected(2), hp, seed=0)
    row = RunRecord([state.t], [probe(prob, state, alpha=0.1)])
    assert row.ts[0] == 0 and row.column("alpha")[0] == 0.1
    assert math.isfinite(row.column("upper_loss")[0])
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
        prob = make_ridge_tuning(5, n_nodes=3, dim_p=6, sigma_omega=0.5)
    else:
        prob = make_logcosh(3, n_nodes=3, d=2, p=5)
    rng = np.random.default_rng(0)
    X0 = 0.1 + np.abs(rng.standard_normal((3, prob.dim_x)))
    state = init(prob, topo.ring(3), HyperParams(alpha0=0.1), seed=0,
                 X0=X0, Y0=rng.standard_normal((3, prob.dim_y)))
    phi_star = prob.phi_star()  # a constant of the instance, derived on its first call
    calls = []
    solve = problem_mod.lower_solve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(problem_mod, "lower_solve", counted)
    row = dict(zip(COLUMNS, probe(prob, state, alpha=0.1)))
    assert len(calls) == 1
    monkeypatch.undo()
    x_bar = state.x_bar()
    g = problem_mod.hypergradient_exact(prob, x_bar)
    assert row["grad_sq_norm"] == float(g @ g)
    if phi_star is None:
        assert math.isnan(row["phi_gap"])
    else:
        assert row["phi_gap"] == problem_mod.phi_value(prob, x_bar) - phi_star


@pytest.mark.parametrize("family", ["quadratic", "ridge", "logcosh"])
def test_batched_probe_rows_are_the_cells_own(family, monkeypatch):
    # One probe of a (K, n, .) state makes one lower solve for all K cells,
    # and row k is the probe of cell k's own (n, .) state, bit for bit. The
    # rows filed as one block give the CSV of a record filed probe by probe.
    from dataclasses import replace

    from gossipbo import problem as problem_mod

    if family == "quadratic":
        prob = make_quadratic(11, n_nodes=3, d=2, p=4, conditioning=6.0, heterogeneity=0.4)
    elif family == "ridge":
        prob = make_ridge_tuning(5, n_nodes=3, dim_p=6, sigma_omega=0.5)
    else:
        prob = make_logcosh(3, n_nodes=3, d=2, p=5)
    rng = np.random.default_rng(1)
    K = 64
    state = init(prob, [topo.ring(3)] * K, HyperParams(alpha0=0.1), seed=0)
    state = replace(
        state,
        t=7 + np.arange(K),
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
    one_by_one = RunRecord()
    for k, row in enumerate(rows):
        own = probe(prob, replace(state, t=state.t[k], X=state.X[k], Y=state.Y[k],
                                  Z=state.Z[k]), alpha=0.1)
        one_by_one.add_probe(state.t[k], own)
        assert [repr(v) for v in row.tolist()] == [repr(v) for v in own.tolist()], k
        # Both against the definitions, computed one cell at a time.
        row = dict(zip(COLUMNS, row))
        g = problem_mod.hypergradient_exact(prob, state.X[k].mean(axis=0))
        assert row["grad_sq_norm"] == float(g @ g), k
        spread = sum(float(np.sum((M[k] - M[k].mean(axis=0)) ** 2))
                     for M in (state.X, state.Y, state.Z))
        assert row["consensus_error"] == spread / prob.n_nodes, k
    assert RunRecord(state.t, rows).to_csv() == one_by_one.to_csv()


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


def test_trailing_median_equals_the_loop_on_special_values():
    # NaN in a prefix makes its median NaN; a -0.0 median reads +0.0; a
    # window holding both infinities has a NaN median.
    from gossipbo.metrics import _trailing_median

    pool = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 3.0])
    rng = np.random.default_rng(2024)
    with np.errstate(invalid="ignore"):  # the mean of -inf and +inf
        for length in range(1, 31):
            for _ in range(4):
                values = rng.choice(pool, length)
                for window in range(1, 10):
                    got = _trailing_median(values, window)
                    want = _trailing_median_loop(values, window)
                    assert got.tobytes() == want.tobytes(), (values, window)


def _csv_reference(header, rows):
    """csv.writer with each float written as its repr: the layout of every output CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for t, *values in rows:
        writer.writerow([int(t)] + [repr(float(v)) for v in values])
    return buf.getvalue()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -2.0 / 3.0]


def test_record_csv_matches_the_csv_writer_reference():
    rng = np.random.default_rng(7)
    rec = RunRecord()
    rows = []
    for t in range(0, 400, 20):
        row = [t] + [float(v) for v in rng.choice(_SPECIAL_FLOATS, 5)]
        rec.add_probe(row[0], row[1:])
        rows.append(row)
    assert rec.to_csv() == _csv_reference(CSV_HEADER, rows)
    assert RunRecord.from_csv(rec.to_csv()).to_csv() == rec.to_csv()


def test_summary_csv_matches_the_csv_writer_reference():
    rng = np.random.default_rng(8)
    ts = np.arange(0, 300, 30)
    mean = {name: rng.choice(_SPECIAL_FLOATS, len(ts)) for name in PROBE_METRICS}
    stderr = {name: rng.choice(_SPECIAL_FLOATS, len(ts)) for name in PROBE_METRICS}
    header = ["t"]
    for name in PROBE_METRICS:
        header += [f"{name}_mean", f"{name}_stderr"]
    rows = [
        [t] + [v for name in PROBE_METRICS for v in (mean[name][k], stderr[name][k])]
        for k, t in enumerate(ts)
    ]
    table = SummaryTable(ts, [row[1:] for row in rows])
    assert table.to_csv() == _csv_reference(header, rows)


def make_record(ts, values, metric="grad_sq_norm"):
    rec = RunRecord()
    for t, v in zip(ts, values):
        row = dict(grad_sq_norm=1.0, phi_gap=0.0, consensus_error=0.0, upper_loss=1.0, alpha=0.1)
        row[metric] = float(v)
        rec.add_probe(int(t), [row[name] for name in COLUMNS])
    return rec


def test_record_requires_increasing_iterations():
    rec = make_record([0, 10], [1.0, 1.0])
    with pytest.raises(MetricsError):
        rec.add_probe(10, [1.0, 0.0, 0.0, 1.0, 0.1])
    # Across blocks and within one block alike; a refused block files nothing.
    for ts in ([10, 20], [20, 30, 30], [30, 20]):
        with pytest.raises(MetricsError, match="strictly increasing"):
            rec.add_probe(ts, [[1.0, 0.0, 0.0, 1.0, 0.1]] * len(ts))
    assert rec.ts.tolist() == [0, 10]
    with pytest.raises(MetricsError, match="strictly increasing"):
        RunRecord([0, 0], [[1.0, 0.0, 0.0, 1.0, 0.1]] * 2)


def test_record_reads_cannot_change_the_record():
    rec = make_record([0, 100, 200], [9.0, 4.0, 1.0])
    block = np.ones((2, len(COLUMNS)))
    rec.add_probe([300, 400], block)
    block[:] = 7.0  # the record holds its own copy
    text = rec.to_csv()
    for read in (rec.ts, rec.column("grad_sq_norm"), rec.column("alpha")):
        with pytest.raises(ValueError):
            read[0] = 5
        with pytest.raises(ValueError):
            read.flags.writeable = True
    assert rec.to_csv() == text
    with pytest.raises(MetricsError, match="no column"):
        rec.column("t")


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


@pytest.mark.parametrize("window", [0, -1, math.nan, 2.5])
def test_transient_cutoff_rejects_a_window_that_is_no_count_of_probes(window):
    # A window of no probes smooths every value to NaN, which never matches;
    # a fractional one is no count of probes to take the median over.
    rec = make_record([0, 100, 200], [9.0, 4.0, 1.0])
    with pytest.raises(MetricsError, match="window"):
        transient_cutoff(rec, rec, rel_tol=0.1, window=window)


@pytest.mark.parametrize("rel_tol", [-1.0, -1e-9, math.nan])
def test_transient_cutoff_rejects_negative_rel_tol(rel_tol):
    # Below zero, (1 + rel_tol) * reference can fall below every curve.
    rec = make_record([0, 100, 200], [9.0, 4.0, 1.0])
    with pytest.raises(MetricsError, match="rel_tol"):
        transient_cutoff(rec, rec, rel_tol=rel_tol)


def test_transient_cutoff_grid_mismatch():
    a = make_record([0, 100], [1.0, 1.0])
    b = make_record([0, 50], [1.0, 1.0])
    with pytest.raises(GridMismatch):
        transient_cutoff(a, b, rel_tol=0.1)


def test_summarize_single_and_duplicated_records():
    rec = make_record([0, 100], [2.0, 1.0])
    table = summarize([rec])
    assert np.array_equal(table.column("grad_sq_norm_mean"), [2.0, 1.0])
    assert np.array_equal(table.column("grad_sq_norm_stderr"), [0.0, 0.0])
    table3 = summarize([rec, rec, rec])
    assert np.array_equal(table3.column("grad_sq_norm_mean"), [2.0, 1.0])
    assert np.allclose(table3.column("grad_sq_norm_stderr"), 0.0)


def test_summarize_permutation_invariant():
    a = make_record([0, 100], [2.0, 1.0])
    b = make_record([0, 100], [4.0, 3.0])
    c = make_record([0, 100], [6.0, 5.0])
    t1 = summarize([a, b, c])
    t2 = summarize([c, a, b])
    assert np.allclose(t1.column("grad_sq_norm_mean"), t2.column("grad_sq_norm_mean"))
    assert np.allclose(t1.column("grad_sq_norm_stderr"), t2.column("grad_sq_norm_stderr"))


def test_summarize_validates_input():
    with pytest.raises(EmptyInput):
        summarize([])
    a = make_record([0, 100], [1.0, 1.0])
    b = make_record([0, 50], [1.0, 1.0])
    with pytest.raises(GridMismatch):
        summarize([a, b])
