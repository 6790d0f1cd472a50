"""In-memory span tracer that wraps gossipbo's public functions from outside.

Each wrapper is installed at the name its caller looks up (for example
``engine.hvp_so``, because the engine imports it by name) and removed
again when the traced block ends. A span records its name, start, end,
parent and the enclosing phase (inside ``engine.step``, inside
``metrics.probe``, or neither). Spans stay in memory until ``save``.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

PHASE_NONE, PHASE_STEP, PHASE_PROBE = 0, 1, 2

PROBLEM_DRAWS = ("draw_f_sample", "draw_g_sample")
PROBLEM_ORACLES = (
    "sgrad_x_f", "sgrad_y_f", "sgrad_x_g", "sgrad_y_g", "shess_yy_g", "scross_xy_g",
)
EXACT_ORACLES = ("lower_solve", "z_star", "hypergradient_exact", "phi_value")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._phase = PHASE_NONE

    def wrap(self, label: str, fn, phase: int | None = None):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            outer = self._phase
            if phase is not None:
                self._phase = phase
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.phase.append(self._phase)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                self._phase = outer

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "phase": np.array(self.phase, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def installed(tracer: Tracer, problem_classes):
    """Wrap every traced boundary for the duration of the block."""
    from gossipbo import cli, config, engine, metrics, problem

    patches = [
        (cli, "_run_cell", "cli.cell", None),
        (cli, "config_from_dict", "config.from_dict", None),
        (config.ProblemConfig, "build", "config.problem_build", None),
        (config.TopologyConfig, "build", "topology.build", None),
        (engine, "run", "engine.run", None),
        (engine, "init", "engine.init", None),
        (engine, "step", "engine.step", PHASE_STEP),
        (engine, "hvp_so", "directions.hvp_so", None),
        (engine, "hvp_fo", "directions.hvp_fo", None),
        (metrics, "probe", "metrics.probe", PHASE_PROBE),
        (metrics, "summarize", "metrics.summarize", None),
        (metrics, "transient_cutoff", "metrics.transient_cutoff", None),
        (metrics.RunRecord, "from_csv", "metrics.from_csv", None),
    ]
    patches += [(problem, f, f"problem.{f}", None) for f in EXACT_ORACLES]
    for cls in problem_classes:
        for f in PROBLEM_DRAWS + PROBLEM_ORACLES + ("hess_yy_g", "phi_star", "mean_f_value"):
            patches.append((cls, f, f"problem.{f}", None))
    undo = []
    try:
        for owner, attr, label, phase in patches:
            own = owner.__dict__.get(attr) if isinstance(owner, type) else None
            original = getattr(owner, attr)
            wrapped = tracer.wrap(label, original, phase)
            if isinstance(own, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, own if isinstance(owner, type) else original))
        yield tracer
    finally:
        for owner, attr, previous in reversed(undo):
            if isinstance(owner, type) and previous is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, previous)


def _tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return 100.0, float(np.max(values))


# The program's entry points as the benchmark calls them; every other span
# nests inside one of these, or belongs to the benchmark's own checks.
PROGRAM_ROOTS = ("config.parse", "cli.run_experiment")
# Spans that only hold other spans: their self time is program work that no
# layer span names (the cell loop, CSV and manifest writing, the probe loop).
CONTAINERS = ("cli.run_experiment", "cli.cell", "engine.run")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    ``wall_s`` is the benchmark's own clock around every traced call of the
    program roots, summed over the traced sweeps.
    """
    a = tracer.arrays()
    ids = {label: i for i, label in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0

    def of(*labels):
        return np.isin(a["name"], [ids[x] for x in labels if x in ids])

    def child_time(mask):
        """Per span, the time its direct children selected by ``mask`` took."""
        m = mask & has_parent
        return np.bincount(parent[m], weights=dur[m], minlength=len(dur))

    self_t = dur - child_time(np.ones(len(dur), dtype=bool))
    in_step = a["phase"] == PHASE_STEP
    in_probe = a["phase"] == PHASE_PROBE
    steps, probes = of("engine.step"), of("metrics.probe")
    n_steps, n_probes = int(steps.sum()), int(probes.sum())
    exact = of(*(f"problem.{f}" for f in EXACT_ORACLES), "problem.phi_star")
    parent_exact = np.zeros_like(exact)
    parent_exact[has_parent] = exact[parent[has_parent]]

    out: dict[str, tuple[float, str]] = {}

    def timing(label, values, unit):
        q, value = _tail(values)
        out[f"{label}.p50"] = (float(np.median(values)), unit)
        out[f"{label}.tail"] = (value, unit)
        out[f"{label}.tail_pct"] = (q, "pct")
        out[f"{label}.n"] = (len(values), "count")

    def per(label, mask, count, kind):
        out[f"{label}_us_per_{kind}"] = (float(dur[mask].sum()) * 1e6 / count, "us")
        out[f"{label}_calls_per_{kind}"] = (float(mask.sum()) / count, "count")

    timing("engine.step_us", dur[steps] * 1e6, "us")
    out["engine.step_self_us.p50"] = (float(np.median(self_t[steps])) * 1e6, "us")
    per("problem.draw", in_step & of(*(f"problem.{f}" for f in PROBLEM_DRAWS)), n_steps, "step")
    per("problem.oracle", in_step & of(*(f"problem.{f}" for f in PROBLEM_ORACLES)),
        n_steps, "step")
    per("directions.hvp", in_step & of("directions.hvp_so", "directions.hvp_fo"),
        n_steps, "step")
    timing("metrics.probe_us", dur[probes] * 1e6, "us")
    out["metrics.probe_share"] = (
        float(dur[probes].sum() / dur[of("engine.run")].sum()), "fraction"
    )
    per("problem.phi_star", in_probe & of("problem.phi_star"), n_probes, "probe")
    for f in ("lower_solve", "hypergradient_exact"):
        out[f"problem.{f}_calls_per_probe"] = (
            float((in_probe & of(f"problem.{f}")).sum()) / n_probes, "count"
        )
    out["problem.hess_products_per_probe"] = (
        float((in_probe & of("problem.hess_yy_g")).sum()) / n_probes, "count"
    )
    outer_exact = in_probe & exact & ~parent_exact
    out["problem.exact_us_per_probe"] = (float(dur[outer_exact].sum()) * 1e6 / n_probes, "us")
    out["topology.build_ms"] = (float(np.median(dur[of("topology.build")])) * 1e3, "ms")
    out["config.parse_ms"] = (float(np.median(dur[of("config.parse")])) * 1e3, "ms")
    runs = of("cli.run_experiment")
    outside_cells = dur - child_time(of("cli.cell"))
    out["cli.aggregate_s"] = (float(np.median(outside_cells[runs])), "s")
    # The program's root spans against the benchmark's clock around the same
    # calls: a shortfall means a root span was lost or cut short.
    roots = of(*PROGRAM_ROOTS) & ~has_parent
    out["trace.span_coverage"] = (float(dur[roots].sum()) / wall_s, "fraction")
    out["trace.unattributed_share"] = (float(self_t[of(*CONTAINERS)].sum()) / wall_s, "fraction")
    out["trace.spans"] = (len(dur), "count")
    return out
