"""Hessian- and Jacobian-vector product estimates for the single-loop update.

Both estimators act on the whole swarm: X, Y, Z are stacked (..., n, .)
arrays, one (n, .) block per cell, and ``sample`` is the nodes' stacked
lower-level sample, one (n, .) block for every cell or one per cell.
``hvp_so`` applies the sampled Hessian and Jacobian to z; ``hvp_fo``
approximates the same products by central differences of sampled
first-order gradients. The first-order mode evaluates the two perturbed
gradients on the same sample, so on quadratic lower levels it reproduces
the second-order products up to rounding under common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import BilevelProblem


class DegenerateDelta(ValueError):
    pass


@dataclass(frozen=True)
class HvpPair:
    p_h: np.ndarray  # (..., n, p): row i approximates (d^2 g_i / dy dy) z_i
    p_j: np.ndarray  # (..., n, d): row i approximates (d^2 g_i / dx dy) z_i


def hvp_so(problem: BilevelProblem, X, Y, Z, sample) -> HvpPair:
    """Sampled second-order products."""
    return HvpPair(
        p_h=problem.shess_yy_g(X, Y, Z, sample), p_j=problem.scross_xy_g(X, Y, Z, sample)
    )


def hvp_fo(problem: BilevelProblem, X, Y, Z, delta: float, sample) -> HvpPair:
    """Central-difference products from first-order gradients only.

    Both perturbed evaluations reuse the same sample, and each oracle
    evaluates them as one call on the stacked pair (Y + delta Z, Y - delta Z);
    leading axes are batch axes, so each half is what its own call gives.
    The squared bias is bounded by (1/3) L^2 delta^2 |z|^4 with L the
    Hessian-Lipschitz constant of the lower loss.
    """
    if not 0 < delta < np.inf:  # NaN too
        raise DegenerateDelta(f"delta must be finite and positive, got {delta}")
    dZ = delta * Z
    Y_pm = np.stack([Y + dZ, Y - dZ])
    gy = problem.sgrad_y_g(X[None], Y_pm, sample)
    gx = problem.sgrad_x_g(X[None], Y_pm, sample)
    return HvpPair(p_h=(gy[0] - gy[1]) / (2.0 * delta), p_j=(gx[0] - gx[1]) / (2.0 * delta))
