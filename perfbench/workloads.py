"""Workload generators: each turns a workload seed into sweep configs (INI text).

The program sees only the generated INI. Every workload is a closed loop
driven by one process: the next sweep starts when the previous one has
returned. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

# Pool size of the one workload that goes through the process pool; the
# reference host has 2 CPUs.
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_configs: int  # distinct configs in one pass; final_gap is taken over one pass
    make: Callable[[random.Random], str]  # returns INI text


def _ridge_ini(problem_seed, base_seed, n, topologies, t, n_trials, workers):
    sections = "\n".join(topologies)
    return f"""[problem]
family = ridge_tuning
seed = {problem_seed}
n_nodes = {n}
dim_y = 10
sigma_omega = 2.0

{sections}

[run]
variants = so, centralized
alpha0 = 0.1
decay_factor = 0.8
decay_period = 1000
theta = 0.2
t = {t}
probe_every = 100
n_trials = {n_trials}
base_seed = {base_seed}
transient_metric = upper_loss
workers = {workers}
"""


def _ridge_n9(rng: random.Random) -> str:
    # Shape of configs/ridge_heterogeneity_severe.ini with a shorter horizon.
    topologies = [
        "[topology.ring]\nkind = adjusted_ring\n",
        "[topology.torus]\nkind = torus2d\nrows = 3\ncols = 3\n",
        "[topology.full]\nkind = fully_connected\n",
    ]
    return _ridge_ini(
        rng.randrange(2**31), rng.randrange(2**31), 9, topologies,
        t=1000, n_trials=4, workers=POOL_WORKERS,
    )


def _ridge_n100(rng: random.Random) -> str:
    topologies = [
        "[topology.torus]\nkind = torus2d\nrows = 10\ncols = 10\n",
        "[topology.expo]\nkind = exponential\n",
    ]
    return _ridge_ini(
        rng.randrange(2**31), rng.randrange(2**31), 100, topologies,
        t=300, n_trials=1, workers=1,
    )


def _quad_dense_probe(rng: random.Random) -> str:
    # Shape of configs/quadratic_smoke.ini, probed every 2 steps, on one
    # fixed instance; the seed picks only the sample streams. Quadratic
    # instances differ so much in how far a 100-step run gets (the relative
    # gap area has a log-sd of 0.55 between instances) that final_gap would
    # need about 85 of them per run to be steady. The smoke instance
    # (problem seed 7) has an indefinite Phi Hessian, so Phi is unbounded
    # below there; problem seed 1 is the smallest with a positive definite
    # one (eigenvalues 1.42 and 3.25).
    return f"""[problem]
family = quadratic
seed = 1
n_nodes = 8
dim_x = 2
dim_y = 4
conditioning = 5.0
heterogeneity = 0.3
noise_scale = 0.2

[topology.ring]
kind = adjusted_ring

[topology.expo]
kind = exponential

[run]
variants = so, fo, centralized
alpha0 = 0.02
theta = 0.2
delta = 1e-4
t = 100
probe_every = 2
n_trials = 2
base_seed = {rng.randrange(2**31)}
transient_metric = grad_sq_norm
workers = 1
"""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ridge-n9-sweep", 4, _ridge_n9),
        Workload("quad-dense-probe", 3, _quad_dense_probe),
        Workload("ridge-n100", 6, _ridge_n100),
    )
}


def generate(name: str, seed: int) -> list[str]:
    """The workload's configs for one seed; the same seed gives the same texts."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [workload.make(rng) for _ in range(workload.n_configs)]
