"""Experiment configuration: flat INI-style sections, strictly validated.

Layout:

    [problem]
    family = quadratic | ridge_tuning
    ... family-specific keys ...

    [topology.<name>]      # one section per topology in the sweep
    kind = fully_connected | ring | adjusted_ring | torus2d | exponential | custom
    ... kind-specific keys ...

    [run]
    variants = so, fo, centralized   # centralized: so on the fully connected matrix
    ... schedules, horizon, trials, output ...

Unknown keys are errors, never warnings. Each family and kind is declared
once, with its constructor and the keys it takes (``_FAMILIES``, ``_KINDS``);
parsing, building and ``emit_config`` read only that, so the manifest holds
the keys each section takes and no others. ``ExperimentConfig.build`` builds
what ``gossipbo validate`` and ``gossipbo run`` share.
"""

from __future__ import annotations

import configparser
import operator
from dataclasses import dataclass, field, fields

from . import topology as topo
from .engine import HyperParams, Variant
from .metrics import PROBE_METRICS
from .problem import BilevelProblem, make_quadratic, make_ridge_tuning


class ConfigError(ValueError):
    pass


class ValidationError(ConfigError):
    pass


def _read_matrix(n: int, path: str) -> topo.MixingMatrix:
    """The matrix in ``path``; ``TopologyConfig.build`` checks that it has ``n`` nodes."""
    with open(path) as fh:
        return topo.load_mixing_matrix(fh.read())


# One table per variable section: a family or kind maps to its constructor
# and the keys it takes, which the constructor takes positionally in that
# order. Parsing, both builds and emit_config read only these.
_FAMILIES = {
    "quadratic": (make_quadratic, (
        "seed", "n_nodes", "dim_x", "dim_y", "conditioning", "heterogeneity", "noise_scale",
    )),
    "ridge_tuning": (make_ridge_tuning, ("seed", "n_nodes", "dim_y", "sigma_omega")),
}
# A kind's constructor takes the problem's node count first.
_KINDS = {
    "fully_connected": (topo.fully_connected, ()),
    "ring": (topo.ring, ("self_weight", "neighbor_weight")),
    # Self weight 0.2 and 0.4 to each of the two ring neighbors.
    "adjusted_ring": (lambda n: topo.ring(n, 0.2, 0.4), ()),
    "torus2d": (topo.torus2d, ("rows", "cols")),
    "exponential": (topo.exponential, ()),
    "custom": (_read_matrix, ("path",)),
}
# Lower bounds of the [problem] keys that seed or size an instance.
_PROBLEM_MINIMA = {"seed": 0, "n_nodes": 1, "dim_x": 1, "dim_y": 1}


def _lookup(table: dict, section: str, key: str, value) -> tuple:
    """The table's (constructor, keys) for ``value``, which the section's ``key`` names."""
    if value not in table:
        raise ValidationError(f"[{section}] {key} must be one of {sorted(table)}")
    return table[value]


def _taken(obj, keys) -> dict:
    return {k: getattr(obj, k) for k in keys}


# The RunConfig fields that HyperParams takes under the same name.
_SCHEDULE_KEYS = ("alpha0", "c1", "c2", "c3", "tau", "decay_factor", "decay_period", "delta")


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
        make, keys = _lookup(_FAMILIES, "problem", "family", self.family)
        values = _taken(self, keys)
        for key, low in _PROBLEM_MINIMA.items():
            if key in values and values[key] < low:
                raise ValidationError(f"[problem] {key} must be >= {low}")
        try:
            return make(*values.values())
        except ValueError as exc:
            raise ValidationError(f"[problem] {exc}") from exc


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
        section = f"topology.{self.name}"
        make, keys = _lookup(_KINDS, section, "kind", self.kind)
        try:
            W = make(n, *_taken(self, keys).values())
        except ValueError as exc:  # a TopologyError, or a custom file that is not text
            raise ValidationError(f"[{section}] {exc}") from exc
        if W.n != n:
            raise ValidationError(f"[{section}] the matrix has {W.n} nodes, the problem {n}")
        return W


@dataclass
class RunConfig:
    variants: list[str] = field(default_factory=lambda: ["so"])
    alpha0: float = 0.1
    c1: float = HyperParams.c1
    c2: float = HyperParams.c2
    c3: float = HyperParams.c3
    tau: float = HyperParams.tau
    decay_factor: float = HyperParams.decay_factor
    decay_period: int = HyperParams.decay_period
    theta: float | None = None  # None means theta_t = c3 * alpha_t
    delta: float = HyperParams.delta
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
        variants = [v.value for v in Variant] + ["centralized"]
        for i, v in enumerate(self.variants):
            if v not in variants:
                raise ValidationError(f"[run] unknown variant {v!r}; variants are {variants}")
            if v in self.variants[:i]:
                raise ValidationError(f"[run] variant {v!r} is listed twice")
        if not self.variants:
            raise ValidationError("[run] variants must be non-empty")
        for key, value, low in (
            ("n_trials", self.n_trials, 1), ("base_seed", self.base_seed, 0),
            ("probe_every", self.probe_every, 1), ("t", self.T, 1),
            ("workers", self.workers, 1), ("window", self.window, 1),
        ):  # a float fails, even a whole one, as in engine.run
            if not hasattr(value, "__index__") or operator.index(value) < low:
                raise ValidationError(f"[run] {key} must be an integer >= {low}, got {value!r}")
        for key, value in (("rel_tol", self.rel_tol), ("wall_limit_s", self.wall_limit_s)):
            if not value >= 0:  # NaN too
                raise ValidationError(f"[run] {key} must be >= 0")
        if self.transient_metric not in PROBE_METRICS:
            raise ValidationError(f"[run] transient_metric must be one of {list(PROBE_METRICS)}")

    def hyper(self, variant: str) -> HyperParams:
        """The variant's HyperParams; the centralized cell is a second-order one."""
        try:
            return HyperParams(
                **_taken(self, _SCHEDULE_KEYS), fixed_theta=self.theta,
                variant=Variant.SECOND_ORDER if variant == "centralized" else variant,
            )
        except ValueError as exc:
            raise ValidationError(f"[run] {exc}") from exc


def _check_topology_names(topologies: list[TopologyConfig]) -> None:
    """Raise a ValidationError for a topology name that cannot start a file name.

    A topology's name starts the name of every file its cells write, so it
    must be one path component: not empty, ``.`` or ``..``, and without a
    ``/`` or ``\\``. Two names that differ only in case would write the same
    files on a case-insensitive file system.
    """
    seen: dict[str, str] = {}
    for tc in topologies:
        section = f"topology.{tc.name}"
        if tc.name in ("", ".", "..") or "/" in tc.name or "\\" in tc.name:
            raise ValidationError(
                f"[{section}] a topology name must be one path component: "
                "not empty, '.' or '..', and without '/' or '\\'"
            )
        other = seen.setdefault(tc.name.casefold(), tc.name)
        if other != tc.name:
            raise ValidationError(
                f"[{section}] differs only in case from [topology.{other}]; "
                "both would write the same files on a case-insensitive file system"
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

        ``parse_config`` checks keys, types and the run's ranges; this checks
        the run's ranges again, for fields set after parsing, and raises what
        a run would otherwise hit inside a cell as a ValidationError that
        names its section: ``[problem]``, ``[topology.<name>]`` or ``[run]``.
        Returns the problem, the mixing matrices by topology name and the
        HyperParams by variant.
        """
        self.run.check()
        _check_topology_names(self.topologies)
        problem = self.problem.build()
        mixing = {tc.name: tc.build(problem.n_nodes) for tc in self.topologies}
        return problem, mixing, {v: self.run.hyper(v) for v in self.run.variants}


# The INI spelling of each RunConfig field: the horizon T is the key t.
_RUN_KEYS = tuple("t" if f.name == "T" else f.name for f in fields(RunConfig))


def _coerce(section: str, key: str, raw: str, current):
    """``raw`` as the type of the field's ``current`` value."""
    if isinstance(current, list):
        return [v.strip() for v in raw.split(",") if v.strip()]
    # The one field whose default is None, theta, is a float when set.
    try:
        return (float if current is None else type(current))(raw)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _fill(obj, section: str, items: dict[str, str], keys) -> None:
    """Set each of ``items`` on ``obj``; ``keys`` are the keys the section takes."""
    unknown = set(items) - set(keys)
    if unknown:
        raise ValidationError(
            f"[{section}] unknown key(s) {sorted(unknown)}; it takes {sorted(keys)}"
        )
    for key, raw in items.items():
        attr = "T" if key == "t" else key
        setattr(obj, attr, _coerce(section, key, raw, getattr(obj, attr)))


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    if "problem" not in cp:
        raise ValidationError("missing [problem] section")
    items = dict(cp["problem"])
    family = items.pop("family", None)
    prob = ProblemConfig(family=family)
    _fill(prob, "problem", items, _lookup(_FAMILIES, "problem", "family", family)[1])

    topologies: list[TopologyConfig] = []
    run_items: dict[str, str] | None = None
    for section in cp.sections():
        if section == "problem":
            continue
        if section == "run":
            run_items = dict(cp["run"])
            continue
        if section.startswith("topology."):
            items = dict(cp[section])
            kind = items.pop("kind", None)
            tc = TopologyConfig(name=section[len("topology."):], kind=kind)
            _fill(tc, section, items, _lookup(_KINDS, section, "kind", kind)[1])
            topologies.append(tc)
            continue
        raise ValidationError(f"unknown section [{section}]")
    if not topologies:
        raise ValidationError("at least one [topology.<name>] section is required")
    if run_items is None:
        raise ValidationError("missing [run] section")

    _check_topology_names(topologies)
    run = RunConfig()
    _fill(run, "run", run_items, _RUN_KEYS)
    run.check()
    return ExperimentConfig(problem=prob, topologies=topologies, run=run)


def emit_config(config: ExperimentConfig) -> dict:
    """JSON-friendly form with the keys each section takes; ``config_from_dict`` round-trips it."""
    p = config.problem
    return {
        "problem": {"family": p.family, **_taken(p, _FAMILIES[p.family][1])},
        "topologies": [
            {"name": t.name, "kind": t.kind, **_taken(t, _KINDS[t.kind][1])}
            for t in config.topologies
        ],
        "run": dict(vars(config.run)),
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemConfig(**data["problem"]),
        topologies=[TopologyConfig(**t) for t in data["topologies"]],
        run=RunConfig(**data["run"]),
    )
