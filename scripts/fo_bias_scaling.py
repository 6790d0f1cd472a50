#!/usr/bin/env python3
"""Measure how the first-order Hessian-product bias scales with delta.

On a non-quadratic lower level, the central-difference products differ
from the exact second-order ones by a discretization bias. This script
sweeps delta on a (deterministic) log-cosh instance, at one random point
per node, and reports the swarm's error norm together with the fitted
log-log slope (expected close to 2).

Usage:
    python3 scripts/fo_bias_scaling.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gossipbo import hvp_fo, hvp_so, make_logcosh  # noqa: E402


def main() -> int:
    problem = make_logcosh(seed=3, n_nodes=4, d=3, p=5)
    rng = np.random.default_rng(11)
    # One point per node, stacked by row as the batched oracles take them.
    n, d, p = problem.n_nodes, problem.dim_x, problem.dim_y
    X, Y, Z = rng.normal(size=(n, d)), rng.normal(size=(n, p)), rng.normal(size=(n, p))
    sample = None  # the log-cosh family is deterministic: its samples are None
    exact = hvp_so(problem, X, Y, Z, sample)
    deltas = np.logspace(-1, -4, 7)
    errs = []
    print(f"{'delta':>10s}  {'|p_h error|':>12s}  {'|p_j error|':>12s}")
    for delta in deltas:
        fo = hvp_fo(problem, X, Y, Z, float(delta), sample)
        eh = float(np.linalg.norm(fo.p_h - exact.p_h))
        ej = float(np.linalg.norm(fo.p_j - exact.p_j))
        errs.append(eh)
        print(f"{delta:10.2e}  {eh:12.4e}  {ej:12.4e}")

    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    print(f"\nfitted log-log slope of |p_h error| vs delta: {slope:.3f} (expect ~2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
