"""Doubly-stochastic mixing matrices for named gossip graph families.

Each family is one builder function of the node count and the family's
parameters, which returns a checked ``MixingMatrix``. A mixing matrix W
holds the weights of one neighbor-averaging round: entry (i, j) is the
weight of information flowing from node j to node i. All constructed
matrices are doubly stochastic; the cached contraction factor ``rho`` is
the largest singular value of W - 11^T/n, so 1 - rho is the spectral gap
of the topology.

``rho`` comes from one symmetric eigenproblem, the largest eigenvalue of
M^T M with M = W - 11^T/n, not from a dense SVD of M, which takes about
twice as long at n = 100. The built-in families are symmetric, but a custom
matrix need not be, and for a non-symmetric M the eigenvalues of M itself
are not its singular values; M^T M is symmetric either way, so every matrix
takes the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for row/column stochasticity of constructed families.
STOCHASTIC_TOL = 1e-12
# Looser tolerance applied to user-supplied matrices loaded from file.
CUSTOM_STOCHASTIC_TOL = 1e-10


class TopologyError(ValueError):
    pass


class IncompatibleSize(TopologyError):
    """Requested node count does not fit the graph family."""


class NonStochasticWeights(TopologyError):
    """Weight matrix violates the doubly-stochastic contract."""


class SpectralGapDegenerate(TopologyError):
    """rho >= 1: the graph is disconnected or the weights are invalid."""


@dataclass(frozen=True)
class MixingMatrix:
    n: int
    weights: np.ndarray  # (n, n), read-only
    rho: float

    @staticmethod
    def from_weights(weights: np.ndarray, tol: float = STOCHASTIC_TOL) -> "MixingMatrix":
        """Check that ``weights`` is doubly stochastic within ``tol`` and mixes (rho < 1).

        rho, the largest singular value of M = W - 11^T/n, is the square root
        of the largest eigenvalue of the symmetric M^T M, which holds whether
        or not W is symmetric. That eigenvalue is clamped at 0 before the
        root, so a rounding residue below 0 gives rho = 0, never NaN.
        """
        W = np.array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise NonStochasticWeights(f"expected a square matrix, got shape {W.shape}")
        n = W.shape[0]
        if n < 1:
            raise IncompatibleSize("node count must be >= 1")
        if not np.all(np.isfinite(W)):
            raise NonStochasticWeights("weights contain non-finite entries")
        row_err = np.max(np.abs(W.sum(axis=1) - 1.0))
        col_err = np.max(np.abs(W.sum(axis=0) - 1.0))
        if row_err > tol or col_err > tol:
            raise NonStochasticWeights(
                f"row/column sums deviate from 1 by {max(row_err, col_err):.3e} "
                f"(tolerance {tol:.1e})"
            )
        M = W - np.full((n, n), 1.0 / n)
        rho = float(np.sqrt(max(np.linalg.eigvalsh(M.T @ M)[-1], 0.0)))
        if rho >= 1.0 - 1e-12:
            raise SpectralGapDegenerate(f"rho = {rho:.12f} >= 1: the weights do not mix")
        W.setflags(write=False)
        return MixingMatrix(n=n, weights=W, rho=rho)


def _require_nodes(n: int, least: int = 1, family: str = "") -> None:
    if n < 1:
        raise IncompatibleSize("node count must be >= 1")
    if n < least:
        raise IncompatibleSize(f"{family} requires n >= {least}, got n={n}")


def fully_connected(n: int) -> MixingMatrix:
    """Uniform averaging over all n nodes (rho = 0)."""
    _require_nodes(n)
    return MixingMatrix.from_weights(np.full((n, n), 1.0 / n))


def ring(
    n: int, self_weight: float = 1.0 / 3.0, neighbor_weight: float = 1.0 / 3.0
) -> MixingMatrix:
    """Cycle on n >= 3 nodes: ``self_weight`` on i, ``neighbor_weight`` on i +/- 1."""
    _require_nodes(n, 3, "ring")
    if abs(self_weight + 2 * neighbor_weight - 1.0) > STOCHASTIC_TOL:
        raise NonStochasticWeights("ring weights must satisfy self + 2 * neighbor = 1")
    if self_weight < 0 or neighbor_weight < 0:
        raise NonStochasticWeights("ring weights must be nonnegative")
    W = np.zeros((n, n))
    idx = np.arange(n)
    W[idx, idx] = self_weight
    W[idx, (idx + 1) % n] = neighbor_weight
    W[idx, (idx - 1) % n] = neighbor_weight
    return MixingMatrix.from_weights(W)


# The torus and the exponential graph weight each node's closed neighborhood
# (itself and its neighbors) uniformly. That is doubly stochastic because
# both are vertex-transitive, so every node has the same degree.


def torus2d(n: int, rows: int, cols: int) -> MixingMatrix:
    """rows x cols grid with wrap-around; node a * cols + b sits at row a, column b."""
    _require_nodes(n)
    if rows < 1 or cols < 1:
        raise IncompatibleSize(f"torus rows and cols must be >= 1, got rows={rows}, cols={cols}")
    if rows * cols != n:
        raise IncompatibleSize(f"torus {rows}x{cols} holds {rows * cols} nodes, got n={n}")
    a, b = np.divmod(np.arange(n), cols)
    nbrs = [((a + 1) % rows) * cols + b, ((a - 1) % rows) * cols + b,
            a * cols + (b + 1) % cols, a * cols + (b - 1) % cols]
    A = np.eye(n, dtype=bool)
    A[np.arange(n), nbrs] = True
    return MixingMatrix.from_weights(A / A.sum(axis=1, keepdims=True))


def exponential(n: int) -> MixingMatrix:
    """Node i is linked to i +/- 2^k (mod n) for every 2^k < n."""
    _require_nodes(n, 2, "exponential graph")
    hops = 2 ** np.arange(int(n - 1).bit_length())
    idx = np.arange(n)[:, None]
    A = np.eye(n, dtype=bool)
    A[idx, (idx + np.concatenate([hops, -hops])) % n] = True
    return MixingMatrix.from_weights(A / A.sum(axis=1, keepdims=True))


def load_mixing_matrix(text: str) -> MixingMatrix:
    """Parse a custom matrix: first line n, then n rows of n reals."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise NonStochasticWeights("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise NonStochasticWeights(f"bad node count line: {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise NonStochasticWeights(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        vals = ln.split()
        if len(vals) != n:
            raise NonStochasticWeights(f"expected {n} entries per row, got {len(vals)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError as exc:
            raise NonStochasticWeights(f"matrix row {i}: {exc}") from exc
    return MixingMatrix.from_weights(np.array(rows), tol=CUSTOM_STOCHASTIC_TOL)
