"""Mixing-matrix construction, stochasticity contracts, and contraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo.topology import (
    ExponentialGraph,
    FullyConnected,
    IncompatibleSize,
    MixingMatrix,
    NonStochasticWeights,
    Ring,
    SpectralGapDegenerate,
    Torus2D,
    build_topology,
    load_mixing_matrix,
)

TOL = 1e-12


def torus_shapes(n):
    """Factor pairs (r, c) with r, c >= 2 and r * c == n."""
    return [(r, n // r) for r in range(2, n) if n % r == 0 and n // r >= 2]


def families_for(n):
    kinds = [FullyConnected()]
    if n >= 2:
        kinds.append(ExponentialGraph())
    if n >= 3:
        kinds += [Ring(), Ring(0.2, 0.4)]
    kinds += [Torus2D(r, c) for (r, c) in torus_shapes(n)]
    return kinds


@pytest.mark.parametrize("n", range(3, 37))
def test_all_families_doubly_stochastic(n):
    for kind in families_for(n):
        W = build_topology(kind, n)
        assert np.max(np.abs(W.weights.sum(axis=1) - 1.0)) <= TOL
        assert np.max(np.abs(W.weights.sum(axis=0) - 1.0)) <= TOL
        assert np.all(W.weights >= 0.0)


def test_fully_connected_rho_zero():
    for n in (3, 9, 20):
        assert build_topology(FullyConnected(), n).rho <= TOL


def test_adjusted_ring_rho_matches_circulant_eigenvalue():
    # Circulant with symbol 0.2 + 0.8 cos(2 pi k / n); the largest
    # nontrivial singular value is at k = 1.
    W = build_topology(Ring(0.2, 0.4), 9)
    expected = 0.2 + 0.8 * np.cos(2.0 * np.pi / 9.0)
    assert abs(W.rho - expected) < 1e-10


def test_rho_matches_dense_svd_oracle():
    for n in (5, 9, 12):
        for kind in (Ring(), Ring(0.2, 0.4), ExponentialGraph()):
            W = build_topology(kind, n)
            dev = W.weights - np.full((n, n), 1.0 / n)
            assert abs(W.rho - np.linalg.svd(dev, compute_uv=False)[0]) < 1e-12


def test_torus_3x3_rho():
    # Uniform closed-neighborhood weights 1/5; eigenvalues are
    # (1 + 2 cos(2 pi a/3) + 2 cos(2 pi b/3)) / 5.
    W = build_topology(Torus2D(3, 3), 9)
    assert abs(W.rho - 0.4) < 1e-12


@given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_gossip_contraction(n, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, 4))
    for kind in (Ring(), Ring(0.2, 0.4), ExponentialGraph(), FullyConnected()):
        W = build_topology(kind, n)
        mean = U.mean(axis=0)
        mixed = W.weights @ U
        lhs = np.linalg.norm(mixed - mean)
        rhs = W.rho * np.linalg.norm(U - mean)
        assert lhs <= rhs + 1e-12


@given(st.integers(min_value=3, max_value=16), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_mix_preserves_column_means(n, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, 3))
    W = build_topology(Ring(), n)
    assert np.allclose((W.weights @ U).mean(axis=0), U.mean(axis=0), atol=1e-12)


def test_ring_rejects_bad_weights():
    with pytest.raises(NonStochasticWeights):
        build_topology(Ring(self_weight=0.5, neighbor_weight=0.5), 5)
    with pytest.raises(NonStochasticWeights):
        build_topology(Ring(self_weight=1.5, neighbor_weight=-0.25), 5)


def test_size_contracts():
    with pytest.raises(IncompatibleSize):
        build_topology(Ring(), 2)
    with pytest.raises(IncompatibleSize):
        build_topology(Ring(0.2, 0.4), 2)
    with pytest.raises(IncompatibleSize):
        build_topology(Torus2D(3, 3), 8)


def test_from_weights_rejects_non_stochastic():
    with pytest.raises(NonStochasticWeights):
        MixingMatrix.from_weights(np.array([[0.5, 0.6], [0.5, 0.4]]))
    with pytest.raises(NonStochasticWeights):
        MixingMatrix.from_weights(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonStochasticWeights):
        MixingMatrix.from_weights(np.ones((2, 3)))


def test_from_weights_rejects_weights_that_do_not_mix():
    # The identity is doubly stochastic but disconnected (rho = 1); a custom
    # file is held to this as every named family is. Uniform averaging has rho = 0.
    with pytest.raises(SpectralGapDegenerate):
        MixingMatrix.from_weights(np.eye(4))
    with pytest.raises(SpectralGapDegenerate):
        load_mixing_matrix("4\n" + "\n".join(" ".join(map(str, row)) for row in np.eye(4)))
    assert MixingMatrix.from_weights(np.full((4, 4), 0.25)).rho == 0.0


def test_weights_are_read_only():
    W = build_topology(Ring(), 4)
    with pytest.raises(ValueError):
        W.weights[0, 0] = 0.9


def test_load_mixing_matrix_roundtrip():
    W = build_topology(Ring(0.2, 0.4), 5)
    text = "5\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in W.weights)
    W2 = load_mixing_matrix(text)
    assert np.allclose(W2.weights, W.weights, atol=1e-15)
    assert abs(W2.rho - W.rho) < 1e-12


def test_load_mixing_matrix_rejects_malformed():
    with pytest.raises(NonStochasticWeights):
        load_mixing_matrix("")
    with pytest.raises(NonStochasticWeights):
        load_mixing_matrix("x\n1\n")
    with pytest.raises(NonStochasticWeights):
        load_mixing_matrix("2\n1 0\n")
    with pytest.raises(NonStochasticWeights):
        load_mixing_matrix("2\n0.7 0.3\n0.4 0.6\n")
