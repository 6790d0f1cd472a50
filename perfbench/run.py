#!/usr/bin/env python3
"""Sweep benchmark for gossipbo.

Runs generated sweep configs through the same path as ``gossipbo run``
(``config.parse_config``, then ``cli.run_experiment``), checks every cell's
output, and prints the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload ridge-n9-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a separate
traced pass and reports the per-layer metrics. Run it from the root of a
source checkout: the program is imported from ``src/``. Scratch output goes
to ``.perfbench_out/`` in that checkout. Workloads and metrics are described
in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# Set-up is timed this many times before every sweep and the fastest repeat
# counts; setup_s is the mean of those over the run's sweeps. The host's
# speed flips between two levels about 40% apart for spans of 0.1 s to a
# minute, so the per-sweep minima are bimodal; their median jumps between
# the two levels from run to run, while their mean moves with the mix.
SETUP_REPEATS = 8
# A centralized cell keeps one shared iterate; its consensus error is the
# rounding left by subtracting the node mean in floating point (about 1e-27
# at n = 100). Anything above this is a real disagreement between nodes.
CONSENSUS_TOL = 1e-18
# fo and so cells of one trial share every sample; on a quadratic the
# central difference is exact, so they agree up to rounding (this is the
# tolerance of acceptance criterion 3).
FO_SO_RTOL = 1e-6
FO_SO_COLUMNS = ("grad_sq_norm", "upper_loss", "consensus_error", "phi_gap")
# The program's root spans (parse_config and run_experiment) must add up to
# the benchmark's own clock around those calls within this share.
SPAN_COVERAGE_TOL = 0.01


def _p50(values):
    return float(statistics.median(values))


class Bench:
    """One benchmark run: a workload's configs, the sweep loop and the output checks."""

    def __init__(self, workload: str, seed: int, texts: list[str]):
        from gossipbo import cli, config, engine, metrics

        self.cli, self.config, self.engine, self.metrics = cli, config, engine, metrics
        self.texts = texts
        self.work = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-{os.getpid()}")
        self.parsed = [config.parse_config(t) for t in texts]
        self.workers = self.parsed[0].run.workers
        self.n_sweeps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[int, str], str] = {}
        self.gap_logs: list[float] = []

    # -- one sweep ----------------------------------------------------------
    def sweep(self, workers: int, parse=None, run_experiment=None) -> dict:
        """Run the next config of the cycle; returns its timing and check results."""
        k = self.n_sweeps % len(self.texts)
        first_pass = self.n_sweeps < len(self.texts)
        out_dir = os.path.join(self.work, f"sweep{self.n_sweeps}")
        self.n_sweeps += 1
        parse = parse or self.config.parse_config
        run_experiment = run_experiment or self.cli.run_experiment
        t0 = time.perf_counter()
        try:
            code = run_experiment(parse(self.texts[k]), out_dir, workers=workers)
        except Exception:  # a crash fails the sweep's cells, not the benchmark
            code = "raised"
            self.problems.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        result = self._check(k, out_dir, code, first_pass)
        result["wall_s"] = wall
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _check(self, k: int, out_dir: str, code: int | str, first_pass: bool) -> dict:
        cfg = self.parsed[k]
        run = cfg.run
        try:
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            self.problems.append(f"config {k}: no manifest ({exc})")
            manifest = {"cells": []}
        listed = {(c["topology"], c["variant"], c["trial"]): c for c in manifest["cells"]}
        cells = []
        for trial in range(run.n_trials):
            for tc in cfg.topologies:
                cells += [(tc.name, v, trial) for v in run.variants if v != "centralized"]
            if "centralized" in run.variants:
                cells.append(("centralized", "centralized", trial))
        grid = sorted(set(range(0, run.T, run.probe_every)) | {run.T})
        records, bad = {}, set()
        for cell in cells:
            entry = listed.get(cell)
            if entry is None or entry["error"] or entry["diverged_at"] is not None:
                bad.add(cell)
                self.problems.append(f"config {k} cell {cell}: {entry and entry['error']}")
                continue
            topo, variant, trial = cell
            name = self.cli._cell_filename(topo, variant, trial)
            try:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    raw = fh.read()
                rec = self.metrics.RunRecord.from_csv(raw.decode())
            except (OSError, ValueError) as exc:
                bad.add(cell)
                self.problems.append(f"config {k} {name}: {exc}")
                continue
            if list(rec.ts) != grid:
                bad.add(cell)
                self.problems.append(f"config {k} {name}: probe grid differs")
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault((k, name), digest) != digest:
                bad.add(cell)
                self.problems.append(f"config {k} {name}: CSV differs from an earlier run")
            records[cell] = rec

        for cell, rec in records.items():
            if cell[1] == "centralized":
                worst = float(rec.column("consensus_error").max())
                if worst > CONSENSUS_TOL:
                    bad.add(cell)
                    self.problems.append(f"config {k} {cell}: consensus error {worst:.3e}")
            if cell[1] == "fo" and (cell[0], "so", cell[2]) in records:
                so = records[(cell[0], "so", cell[2])]
                for col in FO_SO_COLUMNS:
                    a, b = so.column(col), rec.column(col)
                    scale = max(1.0, float(abs(a).max()))
                    if float(abs(a - b).max()) > FO_SO_RTOL * scale:
                        bad.update({cell, (cell[0], "so", cell[2])})
                        self.problems.append(f"config {k} {cell}: fo and so differ in {col}")

        if code != 0 and not bad:
            bad.update(cells)
            self.problems.append(f"config {k}: exit code {code} with no failed cell")
        self.attempted += len(cells)
        self.failed += len(bad)
        if first_pass:
            self._add_gap(cfg, records, bad)
        done = [c for c in cells if c not in bad]
        return {
            "node_steps": len(done) * cfg.problem.n_nodes * run.T,
            "cell_s": [listed[c]["wall_time_s"] for c in cells if c in listed],
        }

    def _add_gap(self, cfg, records, bad) -> None:
        """Area under one config's transient-metric curves, as a share of where they start.

        Every cell of the config counts, decentralized and centralized: the
        scale is each curve's own value at t = 0, which no step has touched.
        """
        metric = cfg.run.transient_metric
        baseline = cfg.problem.build().phi_star() if metric == "upper_loss" else 0.0
        area = start = 0.0
        for cell, rec in records.items():
            if cell not in bad:
                gap = rec.column(metric) - baseline
                area += float(gap.sum())
                start += float(gap[0]) * len(gap)
        if area > 0.0 and start > 0.0:
            self.gap_logs.append(math.log(area / start))

    # -- end-to-end ----------------------------------------------------------
    def setup_time(self) -> float:
        """Time to parse the next sweep's config, build its problem and topologies, and init.

        The fastest of back-to-back repeats, so that a stray slow repeat (a
        garbage collection, a first allocation) does not count.
        """
        text = self.texts[self.n_sweeps % len(self.texts)]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cfg = self.config.parse_config(text)
            problem = cfg.problem.build()
            hyper = cfg.run.hyper(cfg.run.variants[0])
            for tc in cfg.topologies:
                W = tc.build(problem.n_nodes)
                self.engine.init(problem, W, hyper, seed=cfg.run.base_seed)
            times.append(time.perf_counter() - t0)
        return min(times)

    def end_to_end(self, seconds: float) -> dict:
        setup, rates = [], []
        deadline = time.perf_counter() + seconds
        # Every config of the first pass runs, so final_gap is the same
        # function of the seed however fast the host is.
        while self.n_sweeps < len(self.texts) or time.perf_counter() < deadline:
            setup.append(self.setup_time())
            r = self.sweep(self.workers)
            rates.append(r["node_steps"] / r["wall_s"])
        if len(self.gap_logs) < len(self.texts):
            self.problems.append("a config of the first pass has no final_gap")
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (statistics.fmean(setup), "s"),
            "node_steps_per_s": (_p50(rates), "1/s"),
            "peak_rss_mb": ((self_kb + self.workers * child_kb) / 1024.0, "MB"),
            "cells_ok_frac": (1.0 - self.failed / self.attempted, "fraction"),
            "final_gap": (math.exp(statistics.fmean(self.gap_logs or [0.0])), "ratio"),
        }

    # -- traced ---------------------------------------------------------------
    def traced(self, seconds: float, trace_path: str) -> dict:
        import tracing

        started = time.perf_counter()
        # Phase 1, only where the workload uses the pool: untraced, as configured.
        cell_s, pool_eff = [], []
        deadline = time.perf_counter() + seconds / 3
        while self.workers > 1 and (not pool_eff or time.perf_counter() < deadline):
            r = self.sweep(self.workers)
            cell_s += r["cell_s"]
            pool_eff.append(sum(r["cell_s"]) / (self.workers * r["wall_s"]))
        # Phase 2: untraced and traced sweeps in-process, one after the other,
        # so that both see the same host speed and their ratio is the overhead.
        tracer = tracing.Tracer()
        classes = {type(c.problem.build()) for c in self.parsed}
        untraced_rates, traced_rates, walls = [], [], []
        deadline = started + seconds
        while not traced_rates or time.perf_counter() < deadline:
            r = self.sweep(1)
            untraced_rates.append(r["node_steps"] / r["wall_s"])
            if self.workers == 1:
                cell_s += r["cell_s"]
                pool_eff.append(sum(r["cell_s"]) / r["wall_s"])
            with tracing.installed(tracer, classes):
                parse = tracer.wrap("config.parse", self.config.parse_config)
                run_experiment = tracer.wrap("cli.run_experiment", self.cli.run_experiment)
                r = self.sweep(1, parse, run_experiment)
            walls.append(r["wall_s"])
            traced_rates.append(r["node_steps"] / r["wall_s"])
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.save(trace_path)

        out = tracing.layer_metrics(tracer, sum(walls))
        if abs(out["trace.span_coverage"][0] - 1.0) > SPAN_COVERAGE_TOL:
            self.problems.append(
                f"the program's root spans cover {out['trace.span_coverage'][0]:.4f} of "
                "the traced wall time"
            )
        out["cli.cell_s.p50"] = (_p50(cell_s), "s")
        out["cli.cell_s.max"] = (float(max(cell_s)), "s")
        out["cli.pool_efficiency"] = (_p50(pool_eff), "fraction")
        untraced, traced = _p50(untraced_rates), _p50(traced_rates)
        out["trace.untraced_node_steps_per_s"] = (untraced, "1/s")
        out["trace.node_steps_per_s"] = (traced, "1/s")
        out["trace.overhead_pct"] = ((untraced / traced - 1.0) * 100.0, "pct")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gossipbo", "__init__.py")):
        print(f"error: no gossipbo sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, workloads.generate(args.workload, args.seed))
    try:
        if args.trace:
            trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.npz")
            metrics = bench.traced(args.seconds, trace_path)
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {bench.n_sweeps} sweeps, "
          f"{bench.attempted} cells, cells_failed_frac = "
          f"{bench.failed / bench.attempted} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
