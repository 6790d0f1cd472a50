"""Config parsing/validation and the experiment-runner CLI."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_INTS = st.integers(-(10**6), 10**6)
_POSITIVE = st.integers(1, 10**6)
_FLOATS = st.floats(allow_nan=False)
_PATHS = st.from_regex(r"[A-Za-z0-9_./-]{0,20}", fullmatch=True)
_PROBLEM_VALUES = {
    "quadratic": {
        "seed": _INTS, "n_nodes": _INTS, "dim_x": _INTS, "dim_y": _INTS,
        "conditioning": _FLOATS, "heterogeneity": _FLOATS, "noise_scale": _FLOATS,
    },
    "ridge_tuning": {"seed": _INTS, "n_nodes": _INTS, "dim_y": _INTS, "sigma_omega": _FLOATS},
}
_TOPOLOGY_VALUES = {
    "fully_connected": {},
    "ring": {"self_weight": _FLOATS, "neighbor_weight": _FLOATS},
    "adjusted_ring": {},
    "torus2d": {"rows": _INTS, "cols": _INTS},
    "exponential": {},
    "custom": {"path": _PATHS},
}
_RUN_VALUES = {
    "alpha0": _FLOATS, "c1": _FLOATS, "c2": _FLOATS, "c3": _FLOATS, "tau": _FLOATS,
    "decay_factor": _FLOATS, "decay_period": _INTS, "theta": _FLOATS, "delta": _FLOATS,
    "t": _POSITIVE, "probe_every": _POSITIVE, "n_trials": _POSITIVE, "base_seed": _INTS,
    "rel_tol": _FLOATS, "window": _POSITIVE, "out_dir": _PATHS, "workers": _POSITIVE,
    "wall_limit_s": _FLOATS,
    "transient_metric": st.sampled_from(
        ["grad_sq_norm", "phi_gap", "upper_loss", "consensus_error"]
    ),
    "variants": st.lists(
        st.sampled_from(["so", "fo", "centralized"]), min_size=1, max_size=3, unique=True
    ),
}


def _some(draw, values: dict) -> dict:
    """A random subset of the keys, each with a drawn value."""
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True)) if values else []
    return {k: draw(values[k]) for k in keys}


@st.composite
def config_sections(draw):
    """Sections of a valid INI config as (section, {key: value}) pairs."""
    family = draw(st.sampled_from(sorted(_PROBLEM_VALUES)))
    sections = [("problem", {"family": family, **_some(draw, _PROBLEM_VALUES[family])})]
    names = draw(
        st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
                 min_size=1, max_size=3, unique=True)
    )
    for name in names:
        kind = draw(st.sampled_from(sorted(_TOPOLOGY_VALUES)))
        sections.append(
            (f"topology.{name}", {"kind": kind, **_some(draw, _TOPOLOGY_VALUES[kind])})
        )
    sections.append(("run", _some(draw, _RUN_VALUES)))
    return sections


def _ini(sections) -> str:
    def text(v):
        if isinstance(v, list):
            return ", ".join(v)
        return repr(v) if isinstance(v, float) else str(v)

    return "\n".join(
        f"[{name}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in items.items())
        for name, items in sections
    )


@given(config_sections())
@settings(max_examples=60, deadline=None)
def test_config_survives_a_json_round_trip(sections):
    config = parse_config(_ini(sections))
    assert config_from_dict(json.loads(json.dumps(emit_config(config)))) == config


@given(config_sections())
@settings(max_examples=60, deadline=None)
def test_parse_emit_is_stable(sections):
    # Every written value comes back from emit_config, and writing the
    # emitted values into the same keys and parsing again emits the same.
    emitted = emit_config(parse_config(_ini(sections)))
    by_section = {"problem": emitted["problem"], "run": emitted["run"]}
    by_section.update({f"topology.{t['name']}": t for t in emitted["topologies"]})
    again = [
        (name, {k: by_section[name]["T" if k == "t" else k] for k in items})
        for name, items in sections
    ]
    assert again == sections
    assert emit_config(parse_config(_ini(again))) == emitted


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


SMALL_QUADRATIC = """
[problem]
family = quadratic
seed = 1
n_nodes = 4
dim_x = 2
dim_y = 3
conditioning = 4.0
noise_scale = 0.2

[topology.ring]
kind = ring

[topology.full]
kind = fully_connected

[run]
variants = so, fo, centralized
alpha0 = 0.05
t = 50
probe_every = 10
n_trials = 2
base_seed = 7
"""


def test_diverged_cell_keeps_its_trajectory(tmp_path):
    text = SMALL_QUADRATIC.replace("alpha0 = 0.05", "alpha0 = 1e3").replace(
        "probe_every = 10", "probe_every = 1"
    )
    out = tmp_path / "div"
    code = cli.main(["run", write_config(tmp_path, text), "--out", str(out), "--trials", "1"])
    assert code == cli.EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    for cell in manifest["cells"]:
        assert cell["diverged_at"] is not None and cell["diverged_at"] > 1
        rec = RunRecord.from_csv((out / cell["partial_csv"]).read_text())
        assert list(rec.ts) == list(range(cell["diverged_at"]))
    # Partial records enter neither the summaries nor the transient estimates.
    assert not [name for name in os.listdir(out) if name.startswith("summary_")]
    assert manifest["transient_estimates"] == []


def test_pool_matches_serial_byte_for_byte(tmp_path):
    config = parse_config(SMALL_QUADRATIC)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli.run_experiment(config, str(serial), workers=1) == cli.EXIT_OK
    assert cli.run_experiment(config, str(pooled), workers=2) == cli.EXIT_OK
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled))
    assert len([n for n in names if n.startswith("summary_")]) == 5
    for name in names:
        if name.endswith(".csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def without_wall_time(path):
        manifest = json.loads(path.read_text())
        for cell in manifest["cells"]:
            del cell["wall_time_s"]
        return manifest

    assert without_wall_time(serial / "manifest.json") == without_wall_time(
        pooled / "manifest.json"
    )


def test_manifest_records_spectral_gaps_and_versions(tmp_path):
    import platform

    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    config = parse_config(GOOD_CONFIG)
    assert set(manifest["topologies"]) == {"ring", "torus"}
    for tc in config.topologies:
        entry = manifest["topologies"][tc.name]
        assert entry["rho"] == tc.build(9).rho
        assert entry["spectral_gap"] == 1.0 - entry["rho"]
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert all(cell["partial_csv"] is None for cell in manifest["cells"])


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


@pytest.mark.parametrize("window", ["0", "-3"])
def test_window_below_one_rejected_by_validate_and_run(tmp_path, capsys, window):
    text = GOOD_CONFIG.replace("transient_metric", f"window = {window}\ntransient_metric")
    with pytest.raises(ValidationError, match="window"):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "window" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_cli_transient_rejects_window_below_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"]) == 0
    capsys.readouterr()
    code = cli.main(["transient", str(out / "ring_so_trial0.csv"),
                     str(out / "centralized_trial0.csv"), "--window", "0"])
    assert code == cli.EXIT_CONFIG
    assert "window" in capsys.readouterr().err


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


HETEROGENEOUS_QUADRATIC = """
[problem]
family = quadratic
seed = 1
n_nodes = 4
dim_x = 2
dim_y = 3
conditioning = 4.0
heterogeneity = 2.0
noise_scale = 0.2

[topology.lazy]
kind = ring
self_weight = 0.9
neighbor_weight = 0.05

[topology.ring]
kind = ring

[topology.full]
kind = fully_connected

[run]
variants = so, fo, centralized
alpha0 = ALPHA
t = 150
probe_every = 1
n_trials = 1
base_seed = 7
"""


@pytest.mark.parametrize("alpha0", ["0.3", "0.5"])
def test_cells_of_a_group_fail_on_their_own(tmp_path, alpha0):
    # The lazy ring diverges alone at alpha0 = 0.3; at 0.5 every cell
    # diverges, at different iterations. Each diverged cell's partial CSV
    # holds exactly the probes before its own blow-up, each surviving cell's
    # CSV is its one-matrix run, and partial records stay out of the
    # summaries and transient estimates.
    from gossipbo import engine
    from gossipbo.topology import MixingMatrix

    text = HETEROGENEOUS_QUADRATIC.replace("ALPHA", alpha0)
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(out)]) == cli.EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    config = parse_config(text)
    problem = config.problem.build()
    diverged, survived = [], []
    for cell in manifest["cells"]:
        assert "group" not in cell and cell["wall_time_s"] == manifest["cells"][0]["wall_time_s"]
        if cell["diverged_at"] is not None:
            diverged.append(cell)
            rec = RunRecord.from_csv((out / cell["partial_csv"]).read_text())
            assert list(rec.ts) == list(range(cell["diverged_at"]))
            assert not (out / cli._cell_filename(cell["topology"], cell["variant"], 0)).exists()
            continue
        survived.append(cell)
        assert cell["error"] is None and cell["partial_csv"] is None
        if cell["topology"] == "centralized":
            W = MixingMatrix.from_weights(np.full((4, 4), 0.25))
        else:
            W = next(t for t in config.topologies if t.name == cell["topology"]).build(4)
        solo = engine.run(problem, W, config.run.hyper(cell["variant"]), T=150, seed=7,
                          probe_every=1)
        name = cli._cell_filename(cell["topology"], cell["variant"], 0)
        assert (out / name).read_text() == solo.to_csv()
    summaries = {name for name in os.listdir(out) if name.startswith("summary_")}
    estimates = {(e["topology"], e["variant"]) for e in manifest["transient_estimates"]}
    for cell in diverged:
        assert f"summary_{cell['topology']}_{cell['variant']}.csv" not in summaries
        assert (cell["topology"], cell["variant"]) not in estimates
    for cell in survived:
        assert f"summary_{cell['topology']}_{cell['variant']}.csv" in summaries
    if alpha0 == "0.3":
        assert {(c["topology"], c["variant"]) for c in diverged} == {
            ("lazy", "so"), ("lazy", "fo"),
        }
        assert estimates == {("ring", "so"), ("ring", "fo"), ("full", "so"), ("full", "fo")}
    else:
        assert not survived and len({c["diverged_at"] for c in diverged}) > 1


def test_a_cell_diverges_in_one_trial_only(tmp_path):
    # With this much noise the lazy ring blows up at iteration 368 under
    # seed 0 and only after the horizon under seeds 1 and 2, so trial 0's
    # lazy cells leave the call that carries every trial 32 steps early.
    # Their partial CSVs hold exactly the probes before the blow-up, and
    # every other cell, the lazy ring of trials 1 and 2 included, is its
    # one-matrix run.
    from gossipbo import engine
    from gossipbo.topology import MixingMatrix

    text = (
        HETEROGENEOUS_QUADRATIC.replace("ALPHA", "0.08")
        .replace("noise_scale = 0.2", "noise_scale = 10.0")
        .replace("t = 150", "t = 400")
        .replace("n_trials = 1", "n_trials = 3")
        .replace("base_seed = 7", "base_seed = 0")
        .replace("probe_every = 1", "probe_every = 8")
    )
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(out)]) == cli.EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    config = parse_config(text)
    problem = config.problem.build()
    assert len(manifest["cells"]) == 3 * 7
    diverged = {
        (c["topology"], c["variant"], c["trial"]): c
        for c in manifest["cells"] if c["diverged_at"] is not None
    }
    assert set(diverged) == {("lazy", "so", 0), ("lazy", "fo", 0)}
    for cell in manifest["cells"]:
        name = cli._cell_filename(cell["topology"], cell["variant"], cell["trial"])
        if cell["diverged_at"] is not None:
            rec = RunRecord.from_csv((out / cell["partial_csv"]).read_text())
            assert list(rec.ts) == list(range(0, cell["diverged_at"], 8))
            assert not (out / name).exists()
            continue
        assert cell["error"] is None and cell["partial_csv"] is None
        if cell["topology"] == "centralized":
            W = MixingMatrix.from_weights(np.full((4, 4), 0.25))
        else:
            W = next(t for t in config.topologies if t.name == cell["topology"]).build(4)
        solo = engine.run(problem, W, config.run.hyper(cell["variant"]), T=400,
                          seed=cell["seed"], probe_every=8)
        assert (out / name).read_text() == solo.to_csv()


def test_manifest_cell_times_share_their_group(tmp_path):
    import time

    config = parse_config(SMALL_QUADRATIC.replace("t = 50", "t = 400"))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.run_experiment(config, str(out)) == cli.EXIT_OK
    elapsed = time.perf_counter() - start
    manifest = json.loads((out / "manifest.json").read_text())
    cells = manifest["cells"]
    # so and fo cells of both topologies and the centralized cell, of both
    # trials, run as one call and share its time.
    assert len(cells) == 10
    assert len({c["wall_time_s"] for c in cells}) == 1
    assert all("group" not in c for c in cells)
    # The cells of one trial share its seed (base_seed 7 + trial).
    assert {(c["trial"], c["seed"]) for c in cells} == {(0, 7), (1, 8)}
    # Each cell holds its share of the call's time, so the cell times add
    # up to the busy time of one serial sweep, not to a multiple of it.
    assert sum(c["wall_time_s"] for c in cells) <= elapsed
