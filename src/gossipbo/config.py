"""Experiment configuration: flat INI-style sections, strictly validated.

Layout:

    [problem]
    family = quadratic | ridge_tuning
    ... family-specific keys ...

    [topology.<name>]      # one section per topology in the sweep
    kind = fully_connected | ring | adjusted_ring | torus2d | exponential | custom
    ... kind-specific keys ...

    [run]
    variants = so, fo, centralized
    ... schedules, horizon, trials, output ...

Unknown keys are errors, never warnings. ``ExperimentConfig.build`` builds
what ``gossipbo validate`` and ``gossipbo run`` share.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from . import topology as topo
from .engine import HyperParams, Variant
from .problem import BilevelProblem, make_quadratic, make_ridge_tuning


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


@dataclass
class ProblemConfig:
    family: str
    seed: int = 0
    n_nodes: int = 4
    dim_x: int = 2
    dim_y: int = 2
    conditioning: float = 10.0
    heterogeneity: float = 0.0
    noise_scale: float = 0.0
    sigma_omega: float = 0.5

    def build(self) -> BilevelProblem:
        if self.family == "quadratic":
            return make_quadratic(
                self.seed,
                self.n_nodes,
                self.dim_x,
                self.dim_y,
                conditioning=self.conditioning,
                heterogeneity=self.heterogeneity,
                noise_scale=self.noise_scale,
            )
        if self.family == "ridge_tuning":
            return make_ridge_tuning(self.seed, self.n_nodes, self.dim_y, self.sigma_omega)
        raise ValidationError(f"unknown problem family {self.family!r}")


@dataclass
class TopologyConfig:
    name: str
    kind: str
    rows: int = 0
    cols: int = 0
    self_weight: float = 1.0 / 3.0
    neighbor_weight: float = 1.0 / 3.0
    path: str = ""

    def build(self, n: int) -> topo.MixingMatrix:
        if self.kind == "fully_connected":
            return topo.build_topology(topo.FullyConnected(), n)
        if self.kind == "ring":
            return topo.build_topology(
                topo.Ring(self.self_weight, self.neighbor_weight), n
            )
        if self.kind == "adjusted_ring":
            # Self weight 0.2 and 0.4 to each of the two ring neighbors.
            return topo.build_topology(topo.Ring(0.2, 0.4), n)
        if self.kind == "torus2d":
            return topo.build_topology(topo.Torus2D(self.rows, self.cols), n)
        if self.kind == "exponential":
            return topo.build_topology(topo.ExponentialGraph(), n)
        if self.kind == "custom":
            with open(self.path) as fh:
                return topo.load_mixing_matrix(fh.read())
        raise ValidationError(f"unknown topology kind {self.kind!r}")


@dataclass
class RunConfig:
    variants: list[str] = field(default_factory=lambda: ["so"])
    alpha0: float = 0.1
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    tau: float = 1.0
    decay_factor: float = 1.0
    decay_period: int = 1000
    theta: float | None = None  # None means theta_t = c3 * alpha_t
    delta: float = 1e-3
    T: int = 1000
    probe_every: int = 100
    n_trials: int = 1
    base_seed: int = 1000
    rel_tol: float = 0.2
    window: int = 5
    transient_metric: str = "grad_sq_norm"
    out_dir: str = ""
    workers: int = 1
    wall_limit_s: float = 0.0  # 0 disables the per-run wall-clock guard

    def check(self) -> None:
        """Raise a ValidationError for a variant or run-level value out of range."""
        for v in self.variants:
            if v not in _VARIANTS:
                raise ValidationError(f"[run] unknown variant {v!r}")
        if not self.variants:
            raise ValidationError("[run] variants must be non-empty")
        for key, value, low in (
            ("n_trials", self.n_trials, 1), ("base_seed", self.base_seed, 0),
            ("probe_every", self.probe_every, 1), ("t", self.T, 1),
            ("workers", self.workers, 1), ("window", self.window, 1),
            ("rel_tol", self.rel_tol, 0), ("wall_limit_s", self.wall_limit_s, 0),
        ):
            if not value >= low:  # NaN too
                raise ValidationError(f"[run] {key} must be >= {low}")
        if self.transient_metric not in _TRANSIENT_METRICS:
            raise ValidationError(
                f"[run] transient_metric must be one of {sorted(_TRANSIENT_METRICS)}"
            )

    def hyper(self, variant: str) -> HyperParams:
        return HyperParams(
            alpha0=self.alpha0,
            c1=self.c1,
            c2=self.c2,
            c3=self.c3,
            tau=self.tau,
            decay_factor=self.decay_factor,
            decay_period=self.decay_period,
            fixed_theta=self.theta,
            delta=self.delta,
            variant=Variant(variant),
        )


@dataclass
class ExperimentConfig:
    problem: ProblemConfig
    topologies: list[TopologyConfig]
    run: RunConfig

    def build(
        self,
    ) -> tuple[BilevelProblem, dict[str, topo.MixingMatrix], dict[str, HyperParams]]:
        """Build the problem, each topology at its node count and each variant's HyperParams, once.

        ``parse_config`` checks keys, types and ranges; this checks the run's
        ranges again, for fields set after parsing, and raises, as a
        ValidationError, what a run would otherwise hit inside a cell.
        Returns the problem, the mixing matrices by topology name and the
        HyperParams by variant.
        """
        self.run.check()
        try:
            problem = self.problem.build()
            mixing = {tc.name: tc.build(problem.n_nodes) for tc in self.topologies}
            hypers = {v: self.run.hyper(v) for v in self.run.variants}
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return problem, mixing, hypers


_PROBLEM_KEYS = {
    "quadratic": {
        "family", "seed", "n_nodes", "dim_x", "dim_y",
        "conditioning", "heterogeneity", "noise_scale",
    },
    "ridge_tuning": {"family", "seed", "n_nodes", "dim_y", "sigma_omega"},
}
_TOPOLOGY_KEYS = {
    "fully_connected": {"kind"},
    "ring": {"kind", "self_weight", "neighbor_weight"},
    "adjusted_ring": {"kind"},
    "torus2d": {"kind", "rows", "cols"},
    "exponential": {"kind"},
    "custom": {"kind", "path"},
}
_RUN_KEYS = {
    "variants", "alpha0", "c1", "c2", "c3", "tau", "decay_factor", "decay_period",
    "theta", "delta", "t", "probe_every", "n_trials", "base_seed", "rel_tol",
    "window", "transient_metric", "out_dir", "workers", "wall_limit_s",
}
_TRANSIENT_METRICS = {"grad_sq_norm", "phi_gap", "upper_loss", "consensus_error"}
_VARIANTS = {"so", "fo", "centralized"}


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _fill(obj, section: str, items: dict[str, str], skip=()):
    for key, raw in items.items():
        if key in skip:
            continue
        attr = "T" if key == "t" else key
        current = getattr(obj, attr)
        # The one field whose default is None, theta, is a float when set.
        setattr(obj, attr, _coerce(section, key, raw, float if current is None else type(current)))


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    if "problem" not in cp:
        raise ValidationError("missing [problem] section")
    pitems = dict(cp["problem"])
    family = pitems.get("family")
    if family not in _PROBLEM_KEYS:
        raise ValidationError(f"[problem] family must be one of {sorted(_PROBLEM_KEYS)}")
    unknown = set(pitems) - _PROBLEM_KEYS[family]
    if unknown:
        raise ValidationError(f"[problem] unknown key(s) for family {family}: {sorted(unknown)}")
    prob = ProblemConfig(family=family)
    _fill(prob, "problem", pitems, skip=("family",))

    topologies: list[TopologyConfig] = []
    run_items: dict[str, str] | None = None
    for section in cp.sections():
        if section == "problem":
            continue
        if section == "run":
            run_items = dict(cp["run"])
            continue
        if section.startswith("topology."):
            name = section[len("topology."):]
            items = dict(cp[section])
            kind = items.get("kind")
            if kind not in _TOPOLOGY_KEYS:
                raise ValidationError(
                    f"[{section}] kind must be one of {sorted(_TOPOLOGY_KEYS)}"
                )
            unknown = set(items) - _TOPOLOGY_KEYS[kind]
            if unknown:
                raise ValidationError(
                    f"[{section}] unknown key(s) for kind {kind}: {sorted(unknown)}"
                )
            tc = TopologyConfig(name=name, kind=kind)
            _fill(tc, section, items, skip=("kind",))
            topologies.append(tc)
            continue
        raise ValidationError(f"unknown section [{section}]")
    if not topologies:
        raise ValidationError("at least one [topology.<name>] section is required")
    if run_items is None:
        raise ValidationError("missing [run] section")

    unknown = set(run_items) - _RUN_KEYS
    if unknown:
        raise ValidationError(f"[run] unknown key(s): {sorted(unknown)}")
    run = RunConfig()
    _fill(run, "run", run_items, skip=("variants",))
    if "variants" in run_items:
        run.variants = [v.strip() for v in run_items["variants"].split(",") if v.strip()]
    run.check()
    return ExperimentConfig(problem=prob, topologies=topologies, run=run)


def emit_config(config: ExperimentConfig) -> dict:
    """JSON-friendly form; ``config_from_dict`` round-trips it."""
    return {
        "problem": dict(vars(config.problem)),
        "topologies": [dict(vars(t)) for t in config.topologies],
        "run": dict(vars(config.run)),
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemConfig(**data["problem"]),
        topologies=[TopologyConfig(**t) for t in data["topologies"]],
        run=RunConfig(**data["run"]),
    )
