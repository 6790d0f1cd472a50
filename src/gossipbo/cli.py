"""Configuration-driven experiment runner.

Subcommands:

    gossipbo run <config.ini> [--out DIR] [--workers K] [--trials N]
    gossipbo validate <config.ini>
    gossipbo transient <run.csv> <ref.csv> --rel-tol R --window W

Exit codes: 0 success, 1 config error, 2 runtime divergence or a failed
cell (partial results written; a diverged cell's probes up to the blow-up
go to ``<cell>_partial.csv``, named in its manifest entry), 3 I/O error.
``validate`` and ``run`` both build the problem, topologies and step-size
parameters before anything runs. GOSSIPBO_OUT sets the default output
directory.

The sweep runs in this process as one engine call: every trial's so and
fo cells of every topology with its centralized cell, on one problem
instance and one set of mixing matrices, which also give the ``upper_loss``
baseline and the manifest's spectral gaps. A cell's CSV is the one its own
run would give; its manifest entry holds its share of the call's wall
time, and ``wall_limit_s`` bounds the whole sweep. ``workers`` and
``--workers`` are accepted and validated but change nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import engine, metrics
# config_from_dict is not called here, but perfbench traces it as cli.config_from_dict.
from .config import ConfigError, ExperimentConfig, config_from_dict, emit_config, parse_config
from .problem import BilevelProblem, ProblemError
from .topology import MixingMatrix

ENV_OUT_DIR = "GOSSIPBO_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _run_cell(
    config: ExperimentConfig, problem: BilevelProblem, mixing: dict[str, MixingMatrix]
) -> list[dict]:
    """Execute every cell of the sweep as one engine call.

    A cell is (trial, topology name, variant); the centralized variant is
    topology-independent, so it runs once per trial under the
    pseudo-topology name "centralized". Returns one result per cell. A
    diverged cell keeps its probes and leaves the batch while the others go
    on; an error that ends the engine call is recorded on every cell. Each
    cell's ``wall_time_s`` is its share of the call's wall time, so the
    cell times add up to busy time.
    """
    n = problem.n_nodes
    weights = dict(mixing, centralized=MixingMatrix.from_weights(np.full((n, n), 1.0 / n)))
    cells = []
    for trial in range(config.run.n_trials):
        for tc in config.topologies:
            cells += [(trial, tc.name, v) for v in config.run.variants if v != "centralized"]
        if "centralized" in config.run.variants:
            cells.append((trial, "centralized", "centralized"))
    start = time.monotonic()
    results = [
        dict(topology=topo_name, variant=variant, trial=trial, seed=config.run.base_seed + trial,
             diverged_at=None, error=None, partial_csv=None, record=None)
        for trial, topo_name, variant in cells
    ]
    try:
        outcomes = engine.run(
            problem,
            [weights[topo_name] for _, topo_name, _ in cells],
            [config.run.hyper(variant) for _, _, variant in cells],
            T=config.run.T,
            seed=[r["seed"] for r in results],
            probe_every=config.run.probe_every,
            wall_limit_s=config.run.wall_limit_s,
            metadata=[{"topology": topo_name, "trial": trial} for trial, topo_name, _ in cells],
        )
    except (engine.EngineError, ProblemError, metrics.MetricsError) as exc:
        for result in results:
            result["error"] = str(exc)
    else:
        for result, outcome in zip(results, outcomes):
            if isinstance(outcome, engine.NumericalDivergence):
                result["diverged_at"] = outcome.iteration
                result["error"] = str(outcome)
                result["record"] = outcome.record
                name = _cell_filename(result["topology"], result["variant"], result["trial"])
                result["partial_csv"] = f"{name.removesuffix('.csv')}_partial.csv"
            else:
                result["record"] = outcome
    share = (time.monotonic() - start) / len(cells)
    for result in results:
        result["wall_time_s"] = share
    return results


def _cell_filename(topo_name: str, variant: str, trial: int) -> str:
    if topo_name == "centralized":
        return f"centralized_trial{trial}.csv"
    return f"{topo_name}_{variant}_trial{trial}.csv"


def run_experiment(config: ExperimentConfig, out_dir: str, workers: int = 1) -> int:
    """Run the full sweep; returns the process exit code. ``workers`` is ignored."""
    os.makedirs(out_dir, exist_ok=True)
    config_dict = emit_config(config)
    problem = config.problem.build()
    mixing = {tc.name: tc.build(problem.n_nodes) for tc in config.topologies}
    results = _run_cell(config, problem, mixing)

    # Aggregation is a deterministic reduce keyed by cell identity. A
    # diverged cell's partial record is written but kept out of the
    # summaries and transient estimates, whose probe grids must match.
    by_cell = {(r["topology"], r["variant"], r["trial"]): r for r in results}
    records: dict[tuple[str, str, int], metrics.RunRecord] = {}
    for (topo_name, variant, trial), r in sorted(by_cell.items()):
        if r["record"] is None:
            continue
        name = r["partial_csv"] or _cell_filename(topo_name, variant, trial)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(r["record"].to_csv())
        if r["partial_csv"] is None:
            records[(topo_name, variant, trial)] = r["record"]

    # Per-(topology, variant) summaries across trials.
    groups: dict[tuple[str, str], list[metrics.RunRecord]] = {}
    for (topo_name, variant, _), rec in records.items():
        groups.setdefault((topo_name, variant), []).append(rec)
    for (topo_name, variant), recs in sorted(groups.items()):
        table = metrics.summarize(recs)
        path = os.path.join(out_dir, f"summary_{topo_name}_{variant}.csv")
        with open(path, "w") as fh:
            cols = ["t"]
            for name in metrics.SUMMARY_METRICS:
                cols += [f"{name}_mean", f"{name}_stderr"]
            fh.write(",".join(cols) + "\n")
            for k, t in enumerate(table.ts):
                row = [str(int(t))]
                for name in metrics.SUMMARY_METRICS:
                    row += [repr(float(table.mean[name][k])), repr(float(table.stderr[name][k]))]
                fh.write(",".join(row) + "\n")

    # Transient estimates against the centralized reference, per trial.
    # Loss-based metrics are measured above the known optimal value when
    # the problem family provides one, so the relative tolerance compares
    # optimality gaps rather than raw losses.
    baseline = 0.0
    if config.run.transient_metric in ("upper_loss",):
        phi_star = problem.phi_star()
        if phi_star is not None:
            baseline = phi_star
    transients = []
    for (topo_name, variant, trial), rec in sorted(records.items()):
        if variant == "centralized":
            continue
        ref = records.get(("centralized", "centralized", trial))
        if ref is None:
            continue
        est = metrics.transient_cutoff(
            rec, ref, rel_tol=config.run.rel_tol, window=config.run.window,
            metric=config.run.transient_metric, baseline=baseline,
        )
        transients.append(dict(topology=topo_name, variant=variant, trial=trial,
                               cutoff_iteration=est.cutoff_iteration, matched=est.matched))

    topologies = {
        name: {"rho": W.rho, "spectral_gap": 1.0 - W.rho} for name, W in mixing.items()
    }
    config_json = json.dumps(config_dict, sort_keys=True)
    manifest = {
        "config": config_dict,
        "config_hash": hashlib.sha256(config_json.encode()).hexdigest(),
        "cells": [
            {k: v for k, v in r.items() if k != "record"} for r in sorted(
                results, key=lambda r: (r["topology"], r["variant"], r["trial"])
            )
        ],
        "transient_estimates": transients,
        "transient_metric": config.run.transient_metric,
        "rel_tol": config.run.rel_tol,
        "window": config.run.window,
        "topologies": topologies,
        # The CSVs depend on NumPy's Generator streams.
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if any(r["diverged_at"] is not None or r["error"] for r in results):
        return EXIT_DIVERGED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gossipbo")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)  # accepted; changes nothing
    p_run.add_argument("--trials", type=int, default=None)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_tr = sub.add_parser("transient", help="transient cutoff of run vs reference CSV")
    p_tr.add_argument("run_csv")
    p_tr.add_argument("ref_csv")
    p_tr.add_argument("--rel-tol", type=float, default=0.2)
    p_tr.add_argument("--window", type=int, default=5)

    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        try:
            config = parse_config(text)
            config.check_buildable()
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        if args.command == "validate":
            print("config OK")
            return EXIT_OK
        if args.trials is not None:
            config.run.n_trials = args.trials
        out_dir = args.out or config.run.out_dir or os.environ.get(ENV_OUT_DIR) or "."
        try:
            code = run_experiment(config, out_dir)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        if code == EXIT_DIVERGED:
            print("warning: some runs diverged; partial results written", file=sys.stderr)
        return code

    # transient
    try:
        with open(args.run_csv) as fh:
            rec = metrics.RunRecord.from_csv(fh.read())
        with open(args.ref_csv) as fh:
            ref = metrics.RunRecord.from_csv(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        est = metrics.transient_cutoff(rec, ref, rel_tol=args.rel_tol, window=args.window)
    except metrics.MetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        json.dumps(
            {
                "cutoff_iteration": est.cutoff_iteration,
                "matched": est.matched,
                "rel_tol": est.rel_tol,
                "window": est.window,
            }
        )
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
