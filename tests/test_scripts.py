"""The analysis scripts under scripts/ run against the library as it is."""

import importlib.util
import os
import re

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
