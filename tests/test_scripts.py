"""The analysis scripts under scripts/ run against the library as it is."""

import hashlib
import importlib.util
import os
import re

from gossipbo.cli import run_experiment
from gossipbo.config import parse_config

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fo_bias_scaling_reports_quadratic_slope(capsys):
    assert load_script("fo_bias_scaling").main() == 0
    match = re.search(r"slope of \|p_h error\| vs delta: (\S+)", capsys.readouterr().out)
    assert match is not None
    assert 1.9 <= float(match.group(1)) <= 2.1


TINY_QUADRATIC = """
[problem]
family = quadratic
seed = 1
n_nodes = 4
dim_x = 2
dim_y = 3
noise_scale = 0.2

[topology.ring]
kind = ring

[run]
variants = so, fo, centralized
alpha0 = 0.05
t = 20
probe_every = 5
n_trials = 2
base_seed = 7
"""


def test_csv_digests_lists_every_csv_once(tmp_path, capsys):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_QUADRATIC)
    script = load_script("csv_digests")
    argv = ["--configs", str(config), "--seeds"]
    assert script.main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    assert script.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == first

    out = tmp_path / "out"
    assert run_experiment(parse_config(TINY_QUADRATIC), str(out)) == 0
    written = sorted(out.glob("*.csv"))
    assert len(written) > 1
    want = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  tiny/{p.name}" for p in written]
    assert sorted(first) == sorted(want)
