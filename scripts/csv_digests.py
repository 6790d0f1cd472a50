#!/usr/bin/env python3
"""Print the sha256 of every CSV a fixed set of sweeps writes.

The sweeps are the shipped configs (``configs/*.ini``) as they are, and
the configs that every benchmark workload (``perfbench/workloads.py``)
generates for the given seeds. Each CSV gives one line
``<sha256>  <source>/<file>``, sorted by path; the source is the config's
file stem, or ``<workload>-seed<s>-<k>`` for the k-th config of a
workload seed. A change that must keep every CSV byte-identical is then
checked by running the script at the parent commit and at the change and
comparing the two outputs:

    python3 scripts/csv_digests.py > before.txt    # at the parent
    python3 scripts/csv_digests.py > after.txt     # at the change
    diff before.txt after.txt

``--configs`` replaces the shipped configs, and ``--seeds`` the workload
seeds (default 1 2; ``--seeds`` with no value runs no workload). A sweep
that exits non-zero is named on stderr, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from gossipbo.cli import run_experiment  # noqa: E402
from gossipbo.config import parse_config  # noqa: E402


def sweeps(config_paths: list[str], seeds: list[int]) -> list[tuple[str, str]]:
    """(source, INI text) of every sweep, the shipped configs first."""
    out = []
    for path in config_paths:
        with open(path) as fh:
            out.append((os.path.splitext(os.path.basename(path))[0], fh.read()))
    if seeds:
        # The benchmark's own config generator, imported as perfbench/run.py does.
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for seed in seeds:
                texts = workloads.generate(name, seed)
                out += [(f"{name}-seed{seed}-{k}", text) for k, text in enumerate(texts)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", nargs="*",
                        default=sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))))
    parser.add_argument("--seeds", nargs="*", type=int, default=[1, 2])
    args = parser.parse_args(argv)

    lines, failed = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        for source, text in sweeps(args.configs, args.seeds):
            out_dir = os.path.join(scratch, source)
            code = run_experiment(parse_config(text), out_dir)
            if code != 0:
                print(f"{source}: exit {code}", file=sys.stderr)
                failed += 1
            for name in sorted(os.listdir(out_dir)):
                if name.endswith(".csv"):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append((f"{source}/{name}", digest))
    for path, digest in sorted(lines):
        print(f"{digest}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
