"""Outputs pinned before a refactor: the shipped configs and log-cosh runs.

``tests/golden/<source>/`` holds the CSVs of four sources:

- each config under ``configs/``, as ``gossipbo run`` writes it with one
  trial and the horizon capped at 1000 (both set on the parsed config, so
  the INI files stay as shipped), and its manifest's
  ``transient_estimates`` as ``transient_estimates.json``;
- ``logcosh``: one log-cosh ``engine.run`` record each for so, fo and
  centralized, whose probes take the Newton branch of the lower solve.

``tests/golden/ridge_transients_t3000.json`` holds the ``transient_estimates``
of both ridge configs at one trial with the horizon capped at 3000, where
most cutoffs fall strictly inside the horizon (at 1000 only one does).

The test requires the same files, the same probe grids and every value
within 1e-12 relative; the transient estimates must be equal. A change
that alters an instance on purpose regenerates the files of the sources
it affects, and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import glob
import json
import os
import tempfile

import numpy as np
import pytest

from gossipbo import cli
from gossipbo.config import parse_config
from gossipbo.engine import HyperParams, Variant, run
from gossipbo.problem import make_logcosh
from gossipbo import topology as topo

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
SOURCES = sorted(
    os.path.basename(path).removesuffix(".ini")
    for path in glob.glob(os.path.join(CONFIGS, "*.ini"))
) + ["logcosh"]
RTOL = 1e-12
TRANSIENTS = "transient_estimates.json"
RIDGE_CAP = 3000
RIDGE_TRANSIENTS = os.path.join(GOLDEN, f"ridge_transients_t{RIDGE_CAP}.json")


def experiment(source: str, work: str, cap: int) -> list[dict]:
    """Run ``configs/<source>.ini`` as ``gossipbo run`` does, with one trial and
    the horizon capped at ``cap``, into the empty ``work``; returns the
    manifest's ``transient_estimates``."""
    with open(os.path.join(CONFIGS, f"{source}.ini")) as fh:
        config = parse_config(fh.read())
    config.run.n_trials = 1
    config.run.T = min(config.run.T, cap)
    assert cli.run_experiment(config, work) == cli.EXIT_OK
    with open(os.path.join(work, "manifest.json")) as fh:
        return json.load(fh)["transient_estimates"]


def ridge_transients(work: str) -> str:
    """Both ridge configs' transient estimates at the horizon ``RIDGE_CAP``, as JSON."""
    estimates = {}
    for source in (s for s in SOURCES if s.startswith("ridge_")):
        os.makedirs(os.path.join(work, source))
        estimates[source] = experiment(source, os.path.join(work, source), RIDGE_CAP)
    return json.dumps(estimates, indent=2, sort_keys=True) + "\n"


def outputs(source: str, work: str) -> dict[str, str]:
    """The files that ``source`` gives, by name; ``work`` is an empty scratch directory."""
    if source == "logcosh":
        problem = make_logcosh(5, n_nodes=4, d=2, p=3, coupling=0.4, lam=1.2)
        ring, full = topo.ring(4, 0.2, 0.4), topo.fully_connected(4)
        cells = {"so": (ring, Variant.SECOND_ORDER), "fo": (ring, Variant.FIRST_ORDER),
                 "centralized": (full, Variant.SECOND_ORDER)}
        return {
            f"logcosh_{name}.csv": run(
                problem, W, HyperParams(alpha0=0.05, fixed_theta=0.2, variant=v),
                T=200, seed=3, probe_every=20,
            ).to_csv()
            for name, (W, v) in cells.items()
        }
    estimates = experiment(source, work, 1000)
    texts = {}
    for name in sorted(os.listdir(work)):
        if name.endswith(".csv"):
            with open(os.path.join(work, name)) as fh:
                texts[name] = fh.read()
    texts[TRANSIENTS] = json.dumps(estimates, indent=2, sort_keys=True) + "\n"
    return texts


def _table(text: str) -> tuple[list[str], np.ndarray]:
    header, *rows = (line.split(",") for line in text.splitlines())
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("source", SOURCES)
def test_outputs_match_the_golden_set(tmp_path, source):
    got = outputs(source, str(tmp_path))
    pinned = sorted(os.listdir(os.path.join(GOLDEN, source)))
    assert sorted(got) == pinned
    for name in pinned:
        with open(os.path.join(GOLDEN, source, name)) as fh:
            text = fh.read()
        if name == TRANSIENTS:
            assert json.loads(got[name]) == json.loads(text), name
            continue
        want_header, want = _table(text)
        got_header, values = _table(got[name])
        assert got_header == want_header, name
        np.testing.assert_array_equal(values[:, 0], want[:, 0], err_msg=f"{name}: probe grid")
        np.testing.assert_allclose(values[:, 1:], want[:, 1:], rtol=RTOL, atol=0.0,
                                   equal_nan=True, err_msg=name)


def test_ridge_transients_at_a_longer_horizon_match_the_golden_set(tmp_path):
    with open(RIDGE_TRANSIENTS) as fh:
        assert json.loads(ridge_transients(str(tmp_path))) == json.load(fh)


if __name__ == "__main__":
    for source in SOURCES:
        target = os.path.join(GOLDEN, source)
        os.makedirs(target, exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            for name, text in outputs(source, work).items():
                with open(os.path.join(target, name), "w") as fh:
                    fh.write(text)
        print(f"wrote {os.path.relpath(target)}")
    with tempfile.TemporaryDirectory() as work, open(RIDGE_TRANSIENTS, "w") as fh:
        fh.write(ridge_transients(work))
    print(f"wrote {os.path.relpath(RIDGE_TRANSIENTS)}")
