"""Mixing-matrix construction, stochasticity contracts, and contraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo import topology as topo
from gossipbo.topology import (
    IncompatibleSize,
    MixingMatrix,
    NonStochasticWeights,
    SpectralGapDegenerate,
    load_mixing_matrix,
)

TOL = 1e-12


def torus_shapes(n):
    """Factor pairs (r, c) with r, c >= 2 and r * c == n."""
    return [(r, n // r) for r in range(2, n) if n % r == 0 and n // r >= 2]


def families_for(n):
    mixing = [topo.fully_connected(n)]
    if n >= 2:
        mixing.append(topo.exponential(n))
    if n >= 3:
        mixing += [topo.ring(n), topo.ring(n, 0.2, 0.4)]
    mixing += [topo.torus2d(n, r, c) for (r, c) in torus_shapes(n)]
    return mixing


@pytest.mark.parametrize("n", range(3, 37))
def test_all_families_doubly_stochastic(n):
    for W in families_for(n):
        assert np.max(np.abs(W.weights.sum(axis=1) - 1.0)) <= TOL
        assert np.max(np.abs(W.weights.sum(axis=0) - 1.0)) <= TOL
        assert np.all(W.weights >= 0.0)


def test_fully_connected_rho_zero():
    for n in (3, 9, 20):
        assert topo.fully_connected(n).rho <= TOL


def test_adjusted_ring_rho_matches_circulant_eigenvalue():
    # Circulant with symbol 0.2 + 0.8 cos(2 pi k / n); the largest
    # nontrivial singular value is at k = 1.
    W = topo.ring(9, 0.2, 0.4)
    expected = 0.2 + 0.8 * np.cos(2.0 * np.pi / 9.0)
    assert abs(W.rho - expected) < 1e-10


def test_rho_matches_dense_svd_oracle():
    for n in (5, 9, 12):
        for W in (topo.ring(n), topo.ring(n, 0.2, 0.4), topo.exponential(n)):
            dev = W.weights - np.full((n, n), 1.0 / n)
            assert abs(W.rho - np.linalg.svd(dev, compute_uv=False)[0]) < 1e-12


def _svd_rho(W):
    n = W.n
    return np.linalg.svd(W.weights - np.full((n, n), 1.0 / n), compute_uv=False)[0]


@pytest.mark.parametrize("n", (9, 36, 100))
def test_rho_from_the_eigenproblem_matches_the_svd_on_every_builtin_family(n):
    # rho is the square root of the top eigenvalue of M^T M; the oracle is
    # the top singular value of M from a dense SVD.
    factor_pairs = [(r, n // r) for r in range(1, n + 1) if n % r == 0]
    mixing = [topo.fully_connected(n), topo.exponential(n), topo.ring(n),
              topo.ring(n, 0.2, 0.4), topo.ring(n, 0.5, 0.25)]
    mixing += [topo.torus2d(n, r, c) for r, c in factor_pairs]
    for W in mixing:
        assert abs(W.rho - _svd_rho(W)) < 1e-12


@pytest.mark.parametrize("seed", range(60))
def test_rho_from_the_eigenproblem_matches_the_svd_on_non_symmetric_custom_matrices(seed):
    # A convex mixture of the identity, the n-cycle and a few random
    # permutations is doubly stochastic and, with positive weight on the
    # first two, mixes (rho < 1); it is not symmetric, so the eigenvalues of
    # M itself are not its singular values.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 41))
    perms = [np.arange(n), np.roll(np.arange(n), 1)]
    perms += [rng.permutation(n) for _ in range(int(rng.integers(1, 5)))]
    weights = rng.dirichlet(np.ones(len(perms)))
    W = sum(w * np.eye(n)[p] for w, p in zip(weights, perms))
    assert not np.allclose(W, W.T)
    text = f"{n}\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in W)
    custom = load_mixing_matrix(text)
    assert np.array_equal(custom.weights, W)
    assert abs(custom.rho - _svd_rho(custom)) < 1e-12


def test_rho_without_a_gap_to_close_is_exactly_zero_and_the_identity_still_does_not_mix():
    # M = 0 for uniform weights and for one node: the clamp before the
    # square root keeps rho at 0.0, never NaN.
    for n in (1, 2, 9, 36, 100):
        assert topo.fully_connected(n).rho == 0.0
    assert MixingMatrix.from_weights(np.ones((1, 1))).rho == 0.0
    assert load_mixing_matrix("1\n1.0").rho == 0.0
    with pytest.raises(SpectralGapDegenerate):
        MixingMatrix.from_weights(np.eye(4))


def _closed_neighborhood_reference(n, neighbors):
    # One node at a time: weight 1 / |closed neighborhood| on node i and on
    # each of neighbors(i), which may repeat a node or name i itself.
    W = np.zeros((n, n))
    for i in range(n):
        closed = set(neighbors(i)) | {i}
        for j in closed:
            W[i, j] = 1.0 / len(closed)
    return W


def _torus_neighbors(rows, cols):
    def neighbors(i):
        a, b = divmod(i, cols)
        return [((a + 1) % rows) * cols + b, ((a - 1) % rows) * cols + b,
                a * cols + (b + 1) % cols, a * cols + (b - 1) % cols]
    return neighbors


def _exponential_neighbors(n):
    hops = [2**k for k in range(n) if 2**k < n]
    return lambda i: [(i + h) % n for h in hops] + [(i - h) % n for h in hops]


def test_torus_and_exponential_match_a_per_node_reference_bit_for_bit():
    for n in range(1, 65):
        for rows in (r for r in range(1, n + 1) if n % r == 0):
            cols = n // rows
            reference = _closed_neighborhood_reference(n, _torus_neighbors(rows, cols))
            W = topo.torus2d(n, rows, cols)
            assert W.weights.tobytes() == reference.tobytes(), (rows, cols)
        if n >= 2:
            reference = _closed_neighborhood_reference(n, _exponential_neighbors(n))
            assert topo.exponential(n).weights.tobytes() == reference.tobytes(), n


def test_torus_3x3_rho():
    # Uniform closed-neighborhood weights 1/5; eigenvalues are
    # (1 + 2 cos(2 pi a/3) + 2 cos(2 pi b/3)) / 5.
    W = topo.torus2d(9, 3, 3)
    assert abs(W.rho - 0.4) < 1e-12


@given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_gossip_contraction(n, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, 4))
    for W in (topo.ring(n), topo.ring(n, 0.2, 0.4), topo.exponential(n), topo.fully_connected(n)):
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
    W = topo.ring(n)
    assert np.allclose((W.weights @ U).mean(axis=0), U.mean(axis=0), atol=1e-12)


def test_ring_rejects_bad_weights():
    with pytest.raises(NonStochasticWeights):
        topo.ring(5, self_weight=0.5, neighbor_weight=0.5)
    with pytest.raises(NonStochasticWeights):
        topo.ring(5, self_weight=1.5, neighbor_weight=-0.25)


def test_size_contracts():
    with pytest.raises(IncompatibleSize):
        topo.ring(2)
    with pytest.raises(IncompatibleSize):
        topo.ring(2, 0.2, 0.4)
    with pytest.raises(IncompatibleSize):
        topo.torus2d(8, 3, 3)


@pytest.mark.parametrize("rows, cols", [(-2, -2), (-4, -1)])
def test_torus_rejects_a_shape_below_one(rows, cols):
    # Each product is 4, yet neither is a grid: without the check the first
    # indexed past the matrix and the second built the 4-node ring.
    with pytest.raises(IncompatibleSize, match=rf"rows={rows}, cols={cols}"):
        topo.torus2d(4, rows, cols)


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
    W = topo.ring(4)
    with pytest.raises(ValueError):
        W.weights[0, 0] = 0.9


def test_load_mixing_matrix_roundtrip():
    W = topo.ring(5, 0.2, 0.4)
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
    with pytest.raises(NonStochasticWeights, match="matrix row 2"):
        load_mixing_matrix("2\n0.5 0.5\n0.5 x\n")
