"""Configuration-driven experiment runner.

Subcommands:

    gossipbo run <config.ini> [--out DIR] [--trials N]
    gossipbo validate <config.ini>
    gossipbo transient <run.csv> <ref.csv>

Exit codes: 0 success, 1 config or usage error (or, from ``transient``, a
malformed CSV or manifest, or a reference not above its baseline), 2
runtime divergence or a failed cell (partial results written; a diverged
cell's probes up to the blow-up go to ``<cell>_partial.csv``, named in its
manifest entry), 3 I/O error (``transient`` finds no ``manifest.json``
beside ``<run.csv>``, for one).
``validate`` and ``run`` share one ``ExperimentConfig.build``, which ``run``
makes before it creates the output directory; it checks the run-level
ranges again, for fields set in code, and builds the problem, the
topologies, the centralized reference's matrix and each variant's step
sizes once, so ``validate`` builds every matrix ``run`` gossips with.
``base_seed`` must be >= 0, ``--trials`` >= 1, the step sizes finite,
torus ``rows`` and ``cols`` >= 1, and no variant may be listed twice. A
``custom`` topology's relative ``path`` names a file in the config file's
directory. GOSSIPBO_OUT sets the default output directory.

The sweep runs in this process as one engine call: each trial's copy of
the cells ``build`` returns, on one problem instance and one set of mixing
matrices, which also give the ``upper_loss`` baseline and the manifest's
spectral gaps. Only when ``centralized`` is listed does ``build`` add the
reference, a second-order cell on the fully connected matrix (the exact
averaging of the centralized recursion), which writes
``centralized_trial<k>.csv``; without it no fully connected matrix is built
and no transient estimate made. Every other cell, a topology named
``centralized`` too, writes ``<topology>_<variant>_trial<k>.csv``. A cell's
CSV is the one its own run would give; its manifest entry holds its share
of the call's wall time, and ``wall_limit_s`` bounds the whole sweep. The
``[run] workers`` key is accepted and validated but changes nothing.
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
from .config import ConfigError, ExperimentConfig, config_from_dict, emit_config, parse_config
from .problem import BilevelProblem, ProblemError

ENV_OUT_DIR = "GOSSIPBO_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _run_cell(config: ExperimentConfig, problem: BilevelProblem, cells: list[tuple]) -> list[dict]:
    """Run every trial's copy of ``cells`` as one engine call.

    ``cells`` are one trial's, as ``ExperimentConfig.build`` returns them,
    the centralized reference among them only when the sweep lists it. A
    cell of the sweep is (trial, topology name, variant); the reference is
    named "centralized", which a topology may also take. Returns one result
    per cell. A diverged cell keeps its probes and leaves the batch while
    the others go on; an error that ends the engine call is recorded on
    every cell. Each cell's ``wall_time_s`` is its share of the call's wall
    time, so the cell times add up to busy time.
    """
    sweep = [(trial, *cell) for trial in range(config.run.n_trials) for cell in cells]
    seeds = [config.run.base_seed + trial for trial, *_ in sweep]
    error = None
    start = time.monotonic()
    try:
        outcomes = engine.run(
            problem,
            [W for *_, W, _ in sweep],
            [hyper for *_, hyper in sweep],
            T=config.run.T,
            seed=seeds,
            probe_every=config.run.probe_every,
            wall_limit_s=config.run.wall_limit_s,
        )
    except (engine.EngineError, ProblemError, metrics.MetricsError) as exc:
        error, outcomes = str(exc), [None] * len(sweep)
    share = (time.monotonic() - start) / len(sweep)
    results = []
    for (trial, name, variant, *_), seed, outcome in zip(sweep, seeds, outcomes):
        diverged = isinstance(outcome, engine.NumericalDivergence)
        partial = _cell_filename(name, variant, trial).removesuffix(".csv") + "_partial.csv"
        results.append(dict(
            topology=name, variant=variant, trial=trial, seed=seed,
            diverged_at=outcome.iteration if diverged else None,
            error=str(outcome) if diverged else error,
            partial_csv=partial if diverged else None,
            record=outcome.record if diverged else outcome,
            wall_time_s=share,
        ))
    return results


def _cell_filename(topo_name: str, variant: str, trial: int) -> str:
    if variant == "centralized":
        return f"centralized_trial{trial}.csv"
    return f"{topo_name}_{variant}_trial{trial}.csv"


def _transient_question(config: ExperimentConfig, problem: BilevelProblem) -> dict:
    """``metrics.transient_cutoff``'s keywords for a run of ``config`` on ``problem``. A loss
    is measured above Phi* when the family gives it, so the tolerance compares optimality gaps."""
    run = config.run
    phi_star = problem.phi_star() if run.transient_metric == "upper_loss" else None
    return dict(metric=run.transient_metric, rel_tol=run.rel_tol, window=run.window,
                baseline=0.0 if phi_star is None else phi_star)


def run_experiment(config: ExperimentConfig, out_dir: str, workers: int = 1) -> int:
    """Build and run the full sweep; returns the process exit code. ``workers`` is ignored."""
    problem, mixing, cells = config.build()
    os.makedirs(out_dir, exist_ok=True)
    config_dict = emit_config(config)
    # Every output below follows this order of cell identity.
    results = sorted(_run_cell(config, problem, cells),
                     key=lambda r: (r["topology"], r["variant"], r["trial"]))

    # A diverged cell's partial record is written but kept out of the
    # summaries and transient estimates, whose probe grids must match.
    records: dict[tuple[str, str, int], metrics.RunRecord] = {}
    for r in results:
        cell = (r["topology"], r["variant"], r["trial"])
        if r["record"] is None:
            continue
        with open(os.path.join(out_dir, r["partial_csv"] or _cell_filename(*cell)), "w") as fh:
            fh.write(r["record"].to_csv())
        if r["partial_csv"] is None:
            records[cell] = r["record"]

    # Per-(topology, variant) summaries across trials.
    groups: dict[tuple[str, str], list[metrics.RunRecord]] = {}
    for (topo_name, variant, _), rec in records.items():
        groups.setdefault((topo_name, variant), []).append(rec)
    for (topo_name, variant), recs in groups.items():
        path = os.path.join(out_dir, f"summary_{topo_name}_{variant}.csv")
        with open(path, "w") as fh:
            fh.write(metrics.summarize(recs).to_csv())

    # Transient estimates against the centralized reference, per trial; one
    # that cannot be made holds its error in place of a cutoff.
    question = _transient_question(config, problem)
    transients = []
    for (topo_name, variant, trial), rec in records.items():
        if variant == "centralized":
            continue
        ref = records.get(("centralized", "centralized", trial))
        if ref is None:
            continue
        entry = dict(topology=topo_name, variant=variant, trial=trial)
        try:
            est = metrics.transient_cutoff(rec, ref, **question)
            entry.update(cutoff_iteration=est.cutoff_iteration, matched=est.matched, error=None)
        except metrics.MetricsError as exc:
            entry.update(cutoff_iteration=None, matched=None, error=str(exc))
        transients.append(entry)

    topologies = {
        name: {"rho": W.rho, "spectral_gap": 1.0 - W.rho} for name, W in mixing.items()
    }
    config_json = json.dumps(config_dict, sort_keys=True)
    manifest = {
        "config": config_dict,
        "config_hash": hashlib.sha256(config_json.encode()).hexdigest(),
        "cells": [{k: v for k, v in r.items() if k != "record"} for r in results],
        "transient_estimates": transients,
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
    p_run.add_argument("--trials", type=int, default=None)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_tr = sub.add_parser("transient", help="transient cutoff of run vs reference CSV")
    p_tr.add_argument("run_csv")
    p_tr.add_argument("ref_csv")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    if args.command in ("run", "validate"):
        try:
            with open(args.config) as fh:
                config = parse_config(fh.read())
            for tc in config.topologies:  # a relative custom path is read beside the INI
                if tc.kind == "custom":
                    tc.path = os.path.join(os.path.dirname(args.config), tc.path)
            if args.command == "validate":
                config.build()
                print("config OK")
                return EXIT_OK
            if args.trials is not None:
                if args.trials < 1:
                    raise ConfigError("--trials must be >= 1")
                config.run.n_trials = args.trials
            out_dir = args.out or config.run.out_dir or os.environ.get(ENV_OUT_DIR) or "."
            code = run_experiment(config, out_dir)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        if code == EXIT_DIVERGED:
            print("warning: some runs diverged; partial results written", file=sys.stderr)
        return code

    # transient: the two CSVs, then the config in the run's manifest, which asks the question
    manifest = os.path.join(os.path.dirname(args.run_csv), "manifest.json")
    parsed = []
    for path, parse in ((args.run_csv, metrics.RunRecord.from_csv),
                        (args.ref_csv, metrics.RunRecord.from_csv),
                        (manifest, lambda text: config_from_dict(json.loads(text)["config"]))):
        try:
            with open(path) as fh:
                parsed.append(parse(fh.read()))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        # A malformed file, or one that is not text; a manifest without the config's keys.
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    rec, ref, config = parsed
    try:
        config.run.check()
        question = _transient_question(config, config.problem.build())
        est = metrics.transient_cutoff(rec, ref, **question)
    except (ConfigError, metrics.MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(dict(cutoff_iteration=est.cutoff_iteration, matched=est.matched, **question)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
