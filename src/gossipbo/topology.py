"""Doubly-stochastic mixing matrices for named gossip graph families.

A mixing matrix W holds the weights of one neighbor-averaging round:
entry (i, j) is the weight of information flowing from node j to node i.
All constructed matrices are doubly stochastic; the cached contraction
factor ``rho`` is the largest singular value of W - 11^T/n, so 1 - rho
is the spectral gap of the topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
        """Check that ``weights`` is doubly stochastic within ``tol`` and mixes (rho < 1)."""
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
        rho = float(np.linalg.norm(W - np.full((n, n), 1.0 / n), ord=2))
        if rho >= 1.0 - 1e-12:
            raise SpectralGapDegenerate(f"rho = {rho:.12f} >= 1: the weights do not mix")
        W.setflags(write=False)
        return MixingMatrix(n=n, weights=W, rho=rho)


@dataclass(frozen=True)
class FullyConnected:
    pass


@dataclass(frozen=True)
class Ring:
    self_weight: float = 1.0 / 3.0
    neighbor_weight: float = 1.0 / 3.0


@dataclass(frozen=True)
class Torus2D:
    rows: int
    cols: int


@dataclass(frozen=True)
class ExponentialGraph:
    """Node i is linked to i +/- 2^k (mod n) for every 2^k < n."""


TopologyKind = Union[FullyConnected, Ring, Torus2D, ExponentialGraph]


def _uniform_closed_neighborhood(n: int, neighbor_sets: list[set[int]]) -> np.ndarray:
    # Uniform weights over {i} + neighbors; valid (doubly stochastic) because
    # every family here is vertex-transitive, so degrees are equal.
    W = np.zeros((n, n))
    for i, nbrs in enumerate(neighbor_sets):
        closed = set(nbrs) | {i}
        w = 1.0 / len(closed)
        for j in closed:
            W[i, j] = w
    return W


def build_topology(kind: TopologyKind, n: int) -> MixingMatrix:
    """Construct the mixing matrix of a named family on n nodes."""
    if n < 1:
        raise IncompatibleSize("node count must be >= 1")
    if isinstance(kind, FullyConnected):
        W = np.full((n, n), 1.0 / n)
    elif isinstance(kind, Ring):
        if n < 3:
            raise IncompatibleSize(f"ring requires n >= 3, got n={n}")
        if abs(kind.self_weight + 2 * kind.neighbor_weight - 1.0) > STOCHASTIC_TOL:
            raise NonStochasticWeights(
                "ring weights must satisfy self + 2 * neighbor = 1"
            )
        if kind.self_weight < 0 or kind.neighbor_weight < 0:
            raise NonStochasticWeights("ring weights must be nonnegative")
        W = np.zeros((n, n))
        idx = np.arange(n)
        W[idx, idx] = kind.self_weight
        W[idx, (idx + 1) % n] = kind.neighbor_weight
        W[idx, (idx - 1) % n] = kind.neighbor_weight
    elif isinstance(kind, Torus2D):
        if kind.rows * kind.cols != n:
            raise IncompatibleSize(
                f"torus {kind.rows}x{kind.cols} holds {kind.rows * kind.cols} "
                f"nodes, got n={n}"
            )
        r, c = kind.rows, kind.cols
        nbrs: list[set[int]] = []
        for i in range(n):
            a, b = divmod(i, c)
            nbrs.append(
                {
                    ((a + 1) % r) * c + b,
                    ((a - 1) % r) * c + b,
                    a * c + (b + 1) % c,
                    a * c + (b - 1) % c,
                }
            )
        W = _uniform_closed_neighborhood(n, nbrs)
    elif isinstance(kind, ExponentialGraph):
        if n < 2:
            raise IncompatibleSize(f"exponential graph requires n >= 2, got n={n}")
        offsets: set[int] = set()
        k = 1
        while k < n:
            offsets.add(k)
            offsets.add(n - k)
            k *= 2
        nbrs = [{(i + o) % n for o in offsets} for i in range(n)]
        W = _uniform_closed_neighborhood(n, nbrs)
    else:
        raise TypeError(f"unknown topology kind: {kind!r}")
    return MixingMatrix.from_weights(W)


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
    for ln in lines[1:]:
        vals = ln.split()
        if len(vals) != n:
            raise NonStochasticWeights(f"expected {n} entries per row, got {len(vals)}")
        rows.append([float(v) for v in vals])
    return MixingMatrix.from_weights(np.array(rows), tol=CUSTOM_STOCHASTIC_TOL)
