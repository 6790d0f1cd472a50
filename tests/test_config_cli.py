"""Config parsing/validation and the experiment-runner CLI."""

import json
import os

import numpy as np
import pytest

from gossipbo import cli
from gossipbo.config import (
    ConfigError,
    ValidationError,
    config_from_dict,
    emit_config,
    parse_config,
)
from gossipbo.metrics import CSV_HEADER, MetricsError, RunRecord
from gossipbo.problem import ProblemError

GOOD_CONFIG = """
[problem]
family = ridge_tuning
seed = 42
n_nodes = 9
dim_y = 10
sigma_omega = 0.5

[topology.ring]
kind = adjusted_ring

[topology.torus]
kind = torus2d
rows = 3
cols = 3

[run]
variants = so, centralized
alpha0 = 0.1
decay_factor = 0.8
decay_period = 1000
theta = 0.2
t = 200
probe_every = 100
n_trials = 2
base_seed = 1000
transient_metric = upper_loss
"""


def test_parse_good_config():
    config = parse_config(GOOD_CONFIG)
    assert config.problem.family == "ridge_tuning"
    assert config.problem.n_nodes == 9
    assert [t.name for t in config.topologies] == ["ring", "torus"]
    assert config.topologies[1].rows == 3
    assert config.run.T == 200
    assert config.run.variants == ["so", "centralized"]
    assert config.run.theta == pytest.approx(0.2)
    assert config.run.transient_metric == "upper_loss"


def test_config_round_trips_through_dict():
    config = parse_config(GOOD_CONFIG)
    back = config_from_dict(emit_config(config))
    assert emit_config(back) == emit_config(config)


def test_hyper_maps_theta_sentinel():
    config = parse_config(GOOD_CONFIG)
    hp = config.run.hyper("so")
    assert hp.fixed_theta == pytest.approx(0.2)
    config.run.theta = -1.0
    hp2 = config.run.hyper("so")
    assert hp2.fixed_theta is None


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        ("family = nonsense", "family"),
        ("sigma_omega = abc", "sigma_omega"),
        ("conditioning = 2.0", "unknown key"),  # quadratic-only key
        ("", "missing"),
    ],
)
def test_problem_section_validation(mutation, message_part):
    if mutation == "":
        text = GOOD_CONFIG.replace("[problem]", "[problem_typo]")
    else:
        key = mutation.split(" =")[0]
        text = GOOD_CONFIG.replace("family = ridge_tuning", f"family = ridge_tuning\n{mutation}")
        if key == "family":
            text = GOOD_CONFIG.replace("family = ridge_tuning", mutation)
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert message_part.split()[0] in str(exc_info.value)


def test_unknown_run_key_rejected():
    with pytest.raises(ValidationError) as exc_info:
        parse_config(GOOD_CONFIG + "\nmomentum = 0.9\n")
    assert "momentum" in str(exc_info.value)


def test_unknown_topology_key_rejected():
    text = GOOD_CONFIG.replace("kind = adjusted_ring", "kind = adjusted_ring\nrows = 3")
    with pytest.raises(ValidationError) as exc_info:
        parse_config(text)
    assert "rows" in str(exc_info.value)


def test_unknown_variant_rejected():
    text = GOOD_CONFIG.replace("variants = so, centralized", "variants = so, magic")
    with pytest.raises(ValidationError):
        parse_config(text)


def test_missing_sections_rejected():
    with pytest.raises(ValidationError):
        parse_config("[problem]\nfamily = ridge_tuning\n")
    no_topo = GOOD_CONFIG.replace("[topology.ring]", "[ignored]")
    with pytest.raises(ValidationError):
        parse_config(no_topo)


def test_invalid_transient_metric_rejected():
    text = GOOD_CONFIG.replace("transient_metric = upper_loss", "transient_metric = speed")
    with pytest.raises(ValidationError):
        parse_config(text)


def test_custom_topology_via_file(tmp_path):
    from gossipbo.topology import Ring, build_topology

    W = build_topology(Ring(0.2, 0.4), 9)
    path = tmp_path / "mix.txt"
    path.write_text(
        "9\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in W.weights)
    )
    text = GOOD_CONFIG.replace(
        "kind = adjusted_ring", f"kind = custom\npath = {path}"
    )
    config = parse_config(text)
    built = config.topologies[0].build(9)
    assert abs(built.rho - W.rho) < 1e-10


def write_config(tmp_path, text=GOOD_CONFIG):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", write_config(tmp_path)]) == cli.EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG + "\nbogus = 1\n")
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli.main(["validate", str(tmp_path / "nope.ini")]) == cli.EXIT_IO


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"])
    assert code == cli.EXIT_OK
    names = sorted(os.listdir(out))
    assert "manifest.json" in names
    assert "ring_so_trial0.csv" in names
    assert "torus_so_trial0.csv" in names
    assert "centralized_trial0.csv" in names
    assert "summary_ring_so.csv" in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["transient_metric"] == "upper_loss"
    cells = {(c["topology"], c["variant"], c["trial"]) for c in manifest["cells"]}
    assert ("ring", "so", 0) in cells and ("centralized", "centralized", 0) in cells
    estimates = {
        (e["topology"], e["trial"]): e["cutoff_iteration"]
        for e in manifest["transient_estimates"]
    }
    assert ("ring", 0) in estimates and ("torus", 0) in estimates
    # Per-run CSVs carry the pinned schema.
    text = (out / "ring_so_trial0.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    RunRecord.from_csv(text)  # parses cleanly


def test_cli_run_is_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", config, "--out", str(out1), "--trials", "1"]) == 0
    assert cli.main(["run", config, "--out", str(out2), "--trials", "1"]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_parallel_matches_serial(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert cli.main(["run", config, "--out", str(out1)]) == 0
    assert cli.main(["run", config, "--out", str(out2), "--workers", "3"]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_env_var_out_dir(tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(out))
    assert cli.main(["run", write_config(tmp_path), "--trials", "1"]) == 0
    assert (out / "manifest.json").exists()


def test_cli_divergence_exit_code(tmp_path, capsys):
    text = GOOD_CONFIG.replace("alpha0 = 0.1", "alpha0 = 1e9").replace(
        "theta = 0.2", "theta = 1.0"
    )
    out = tmp_path / "div"
    code = cli.main(["run", write_config(tmp_path, text), "--out", str(out), "--trials", "1"])
    assert code == cli.EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(c["diverged_at"] is not None for c in manifest["cells"])


def test_cli_transient_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"]) == 0
    code = cli.main(
        [
            "transient",
            str(out / "ring_so_trial0.csv"),
            str(out / "centralized_trial0.csv"),
            "--rel-tol",
            "0.5",
            "--window",
            "3",
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {"cutoff_iteration", "matched", "rel_tol", "window"} <= set(payload)


def test_torus_size_mismatch_rejected_by_validate_and_run(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG.replace("n_nodes = 9", "n_nodes = 8"))
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_zero_delta_rejected_by_validate_and_run(tmp_path, capsys):
    text = GOOD_CONFIG.replace("variants = so, centralized", "variants = so, fo, centralized")
    path = write_config(tmp_path, text.replace("theta = 0.2", "theta = 0.2\ndelta = 0"))
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exc_type", [ProblemError, MetricsError], ids=lambda e: e.__name__)
def test_cell_error_recorded_per_cell(tmp_path, monkeypatch, exc_type):
    def failing_run(*args, **kwargs):
        raise exc_type("probe failed")

    monkeypatch.setattr(cli.engine, "run", failing_run)
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"])
    assert code == cli.EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["cells"]) == 3
    assert all(c["error"] == "probe failed" for c in manifest["cells"])
