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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import engine, metrics
from .config import ConfigError, ExperimentConfig, config_from_dict, emit_config, parse_config
from .problem import ProblemError
from .topology import MixingMatrix

ENV_OUT_DIR = "GOSSIPBO_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _cells(config: ExperimentConfig) -> list[tuple[str, str, int]]:
    """(topology name, variant, trial) sweep grid.

    The centralized variant is topology-independent, so it runs once per
    trial under the pseudo-topology name "centralized".
    """
    cells = []
    for trial in range(config.run.n_trials):
        for tc in config.topologies:
            for variant in config.run.variants:
                if variant == "centralized":
                    continue
                cells.append((tc.name, variant, trial))
        if "centralized" in config.run.variants:
            cells.append(("centralized", "centralized", trial))
    return cells


def _run_cell(config_dict: dict, topo_name: str, variant: str, trial: int) -> dict:
    """Execute one sweep cell; importable at top level for process pools."""
    config = config_from_dict(config_dict)
    problem = config.problem.build()
    if topo_name == "centralized":
        n = problem.n_nodes
        W = MixingMatrix.from_weights(np.full((n, n), 1.0 / n))
    else:
        tc = next(t for t in config.topologies if t.name == topo_name)
        W = tc.build(problem.n_nodes)
    hyper = config.run.hyper(variant)
    seed = config.run.base_seed + trial
    start = time.monotonic()
    result = {
        "topology": topo_name,
        "variant": variant,
        "trial": trial,
        "seed": seed,
        "diverged_at": None,
        "error": None,
        "partial_csv": None,
        "record": None,
    }
    try:
        record = engine.run(
            problem,
            W,
            hyper,
            T=config.run.T,
            seed=seed,
            probe_every=config.run.probe_every,
            wall_limit_s=config.run.wall_limit_s,
            metadata={"topology": topo_name, "trial": trial},
        )
        result["record"] = record
    except engine.NumericalDivergence as exc:
        result["diverged_at"] = exc.iteration
        result["error"] = str(exc)
        result["record"] = exc.record
        stem = _cell_filename(topo_name, variant, trial).removesuffix(".csv")
        result["partial_csv"] = f"{stem}_partial.csv"
    except (engine.EngineError, ProblemError, metrics.MetricsError) as exc:
        result["error"] = str(exc)
    result["wall_time_s"] = time.monotonic() - start
    return result


def _cell_filename(topo_name: str, variant: str, trial: int) -> str:
    if topo_name == "centralized":
        return f"centralized_trial{trial}.csv"
    return f"{topo_name}_{variant}_trial{trial}.csv"


def run_experiment(config: ExperimentConfig, out_dir: str, workers: int = 1) -> int:
    """Run the full sweep; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    config_dict = emit_config(config)
    cells = _cells(config)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, config_dict, *cell) for cell in cells]
            results = [f.result() for f in futures]
    else:
        results = [_run_cell(config_dict, *cell) for cell in cells]

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
        phi_star = config.problem.build().phi_star()
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
            rec,
            ref,
            rel_tol=config.run.rel_tol,
            window=config.run.window,
            metric=config.run.transient_metric,
            baseline=baseline,
        )
        transients.append(
            {
                "topology": topo_name,
                "variant": variant,
                "trial": trial,
                "cutoff_iteration": est.cutoff_iteration,
                "matched": est.matched,
            }
        )

    topologies = {}
    for tc in config.topologies:
        rho = tc.build(config.problem.n_nodes).rho
        topologies[tc.name] = {"rho": rho, "spectral_gap": 1.0 - rho}
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
    p_run.add_argument("--workers", type=int, default=None)
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
        workers = args.workers if args.workers is not None else config.run.workers
        try:
            code = run_experiment(config, out_dir, workers=workers)
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
