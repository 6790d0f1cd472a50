"""Config parsing/validation and the experiment-runner CLI."""

import collections
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbo import cli
from gossipbo import config as config_module
from gossipbo import topology as topo
from gossipbo.config import (
    ConfigError,
    ProblemConfig,
    TopologyConfig,
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
_NON_NEGATIVE = st.integers(0, 10**6)
_POSITIVE = st.integers(1, 10**6)
_FLOATS = st.floats(allow_nan=False)
_NON_NEGATIVE_FLOATS = st.floats(min_value=0, allow_nan=False)
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
    "t": _POSITIVE, "probe_every": _POSITIVE, "n_trials": _POSITIVE, "base_seed": _NON_NEGATIVE,
    "rel_tol": _NON_NEGATIVE_FLOATS, "window": _POSITIVE, "out_dir": _PATHS,
    "workers": _POSITIVE, "wall_limit_s": _NON_NEGATIVE_FLOATS,
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
    # An unset theta is None, which selects theta_t = c3 * alpha_t.
    config = parse_config(GOOD_CONFIG)
    hp = config.run.hyper("so")
    assert hp.fixed_theta == pytest.approx(0.2)
    config = parse_config(GOOD_CONFIG.replace("theta = 0.2\n", ""))
    assert config.run.theta is None
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
    W = topo.ring(9, 0.2, 0.4)
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


def test_cli_reads_a_relative_custom_path_beside_the_config(tmp_path, monkeypatch, capsys):
    # mf/config.ini names its matrix as mix.txt, and both commands run from mf's parent.
    W = topo.exponential(9)
    (tmp_path / "mf").mkdir()
    (tmp_path / "mf" / "mix.txt").write_text(
        "9\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in W.weights)
    )
    write_config(tmp_path / "mf", GOOD_CONFIG.replace(
        "kind = adjusted_ring", "kind = custom\npath = mix.txt"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate", os.path.join("mf", "config.ini")]) == cli.EXIT_OK
    assert "config OK" in capsys.readouterr().out
    code = cli.main(["run", os.path.join("mf", "config.ini"), "--out", "out", "--trials", "1"])
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["topologies"]["ring"]["rho"] == W.rho
    # An absolute path is read as written.
    write_config(tmp_path, GOOD_CONFIG.replace(
        "kind = adjusted_ring", f"kind = custom\npath = {tmp_path / 'mf' / 'mix.txt'}"))
    assert cli.main(["validate", "config.ini"]) == cli.EXIT_OK


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


@pytest.mark.parametrize("text, message", [
    (GOOD_CONFIG.replace("seed = 42", "seed = 42\nseed = 43"), "option 'seed'"),
    (GOOD_CONFIG + "\n[topology.ring]\nkind = ring\n", "section 'topology.ring'"),
    ("family = ridge_tuning\n" + GOOD_CONFIG, "no section headers"),
], ids=["duplicate-option", "duplicate-section", "key-before-any-section"])
def test_ini_syntax_error_is_a_config_error(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    for argv in (["validate", path], ["run", path, "--out", str(out), "--trials", "1"]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and "Traceback" not in err
    assert not out.exists()


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
    assert manifest["config"]["run"]["transient_metric"] == "upper_loss"
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
    # The config's two trials, once as set in the file and once through --trials.
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert cli.main(["run", config, "--out", str(out1)]) == 0
    assert cli.main(["run", config, "--out", str(out2), "--trials", "2"]) == 0
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


MILD_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "ridge_heterogeneity_mild.ini")


def ridge_mild_run(tmp_path):
    """The mild ridge config's output directory, one trial, its horizon cut to 3000."""
    with open(MILD_CONFIG) as fh:
        text = re.sub(r"(?m)^t = \d+$", "t = 3000", fh.read())
    out = tmp_path / "mild"
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(out), "--trials", "1"]) == 0
    return out


def test_cli_transient_answers_the_manifests_question(tmp_path, capsys):
    # The manifest's upper_loss over Phi*, not grad_sq_norm over 0, which
    # ridge holds at 0 and so answers cutoff 0, matched, for every cell.
    out = ridge_mild_run(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    config = config_from_dict(manifest["config"])
    question = dict(metric="upper_loss", rel_tol=config.run.rel_tol, window=config.run.window,
                    baseline=config.problem.build().phi_star())
    estimates = manifest["transient_estimates"]
    assert {e["topology"]: e["cutoff_iteration"] for e in estimates} == \
        {"full": 0, "ring": 2800, "torus": 2300}
    capsys.readouterr()
    for e in estimates:
        assert e["error"] is None
        code = cli.main(["transient", str(out / f"{e['topology']}_{e['variant']}_trial0.csv"),
                         str(out / "centralized_trial0.csv")])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == dict(
            cutoff_iteration=e["cutoff_iteration"], matched=e["matched"], **question)


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


@pytest.mark.parametrize("line", ["wall_limit_s = -5", "wall_limit_s = nan", "rel_tol = -3",
                                  "rel_tol = nan"])
def test_negative_tolerance_or_wall_limit_rejected_by_validate_and_run(tmp_path, capsys, line):
    # A negative wall_limit_s would turn the wall-clock guard off, and a
    # negative rel_tol would make every transient cutoff unmatched.
    key = line.split(" =")[0]
    text = GOOD_CONFIG.replace("transient_metric", f"{line}\ntransient_metric")
    with pytest.raises(ValidationError, match=key):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("attr, key, value", [
    ("T", "t", 50.5), ("probe_every", "probe_every", 10.5), ("n_trials", "n_trials", 1.5),
    ("base_seed", "base_seed", 3.5), ("window", "window", 2.5),
])
def test_non_integer_run_field_set_in_code_is_rejected_by_build(tmp_path, attr, key, value):
    # INI parsing makes these keys ints; set on a parsed config, a float
    # would otherwise pass build and fail later in run: in engine.run or
    # range, on every cell, or in every transient estimate.
    config = parse_config(GOOD_CONFIG)
    setattr(config.run, attr, value)
    with pytest.raises(ValidationError, match=re.escape(f"[run] {key} must be an integer")):
        config.build()
    with pytest.raises(ValidationError, match=re.escape(f"[run] {key}")):
        cli.run_experiment(config, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_negative_base_seed_rejected_by_validate_and_run(tmp_path, capsys):
    text = GOOD_CONFIG.replace("base_seed = 1000", "base_seed = -3")
    with pytest.raises(ValidationError, match="base_seed"):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "base_seed" in err
    assert not out.exists()


@pytest.mark.parametrize("replaced, name, reason", [
    *[("ring", name, "one path component")
      for name in ["", ".", "..", "a/b", "a\\b", "../escape", "/abs"]],
    *[("torus", name, "differs only in case from [topology.ring]")
      for name in ["Ring", "RING", "rIng"]],
])
def test_topology_name_that_cannot_start_a_file_name_rejected_by_validate_and_run(
    tmp_path, capsys, replaced, name, reason
):
    # The name starts the file name of every cell of the topology: a
    # separator points into a directory the run never makes, and
    # ring_so_trial0.csv and Ring_so_trial0.csv are one file on a
    # case-insensitive file system.
    section = f"[topology.{name}]"
    text = GOOD_CONFIG.replace(f"[topology.{replaced}]", section)
    with pytest.raises(ValidationError, match=re.escape(section)):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {section}" in err and reason in err and "Traceback" not in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert section in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", [["ring", "a/b"], ["ring", "RING"], ["", "torus"]])
def test_topology_names_set_in_code_rejected_before_output(tmp_path, names):
    config = parse_config(GOOD_CONFIG)
    for tc, name in zip(config.topologies, names):
        tc.name = name
    with pytest.raises(ValidationError, match="\\[topology\\."):
        config.build()
    out = tmp_path / "out"
    with pytest.raises(ValidationError):
        cli.run_experiment(config, str(out))
    assert not out.exists()


def test_topology_names_with_dots_and_case_that_stay_distinct_are_accepted():
    text = GOOD_CONFIG.replace("[topology.ring]", "[topology.Ring.v2]").replace(
        "[topology.torus]", "[topology...torus]"
    )
    assert [t.name for t in parse_config(text).topologies] == ["Ring.v2", "..torus"]


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_rejected_by_run(tmp_path, capsys, trials):
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", trials])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "--trials" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("n_trials", 0), ("T", 0), ("probe_every", 0), ("window", 0), ("workers", 0),
    ("base_seed", -1), ("variants", []), ("transient_metric", "loss"),
    ("rel_tol", -3.0), ("rel_tol", float("nan")), ("wall_limit_s", -5.0),
    ("wall_limit_s", float("nan")),
])
def test_run_ranges_set_in_code_rejected_before_output(tmp_path, field, value):
    # parse_config and build share the run-level checks, so a field set on a
    # parsed config is rejected as a ValidationError before any output.
    config = parse_config(GOOD_CONFIG)
    setattr(config.run, field, value)
    with pytest.raises(ValidationError, match="\\[run\\]"):
        config.build()
    out = tmp_path / "out"
    with pytest.raises(ValidationError):
        cli.run_experiment(config, str(out))
    assert not out.exists()


SMOKE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "quadratic_smoke.ini")


def test_validate_and_run_build_each_part_once(tmp_path, monkeypatch):
    # The problem, each topology and each variant's HyperParams.
    builds = collections.Counter()

    def count(cls, key):
        original = cls.build

        def build(self, *args):
            builds[key(self)] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "build", build)

    count(ProblemConfig, lambda pc: "problem")
    count(TopologyConfig, lambda tc: tc.name)
    hyper = config_module.RunConfig.hyper

    def counted_hyper(self, variant):
        builds[variant] += 1
        return hyper(self, variant)

    monkeypatch.setattr(config_module.RunConfig, "hyper", counted_hyper)
    once = {"problem": 1, "ring": 1, "expo": 1, "so": 1, "fo": 1, "centralized": 1}
    assert cli.main(["validate", SMOKE_CONFIG]) == cli.EXIT_OK
    assert builds == once
    builds.clear()
    out = tmp_path / "out"
    assert cli.main(["run", SMOKE_CONFIG, "--out", str(out), "--trials", "1"]) == cli.EXIT_OK
    assert builds == once


@pytest.mark.parametrize("argv, code", [
    (["run", "CONFIG", "--foo", "1"], cli.EXIT_CONFIG),
    (["run", "CONFIG", "--trials", "x"], cli.EXIT_CONFIG),
    (["run", "CONFIG", "--workers", "3"], cli.EXIT_CONFIG),
    (["transient", "a.csv"], cli.EXIT_CONFIG),
    (["transient", "a.csv", "b.csv", "--rel-tol", "0.5"], cli.EXIT_CONFIG),
    ([], cli.EXIT_CONFIG),
    (["run", "--help"], cli.EXIT_OK),
], ids=["unknown-flag", "bad-trials", "workers-flag", "missing-ref", "transient-rel-tol",
        "no-command", "help"])
def test_usage_errors_exit_as_config_errors(tmp_path, capsys, argv, code):
    # argparse would exit 2, the code of a diverged or failed cell.
    path = write_config(tmp_path)
    assert cli.main([path if a == "CONFIG" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert "usage:" in (captured.out if code == cli.EXIT_OK else captured.err)


@pytest.mark.parametrize("key, value", [("window", 0), ("rel_tol", -1.0), ("rel_tol", math.nan)])
def test_cli_transient_rejects_a_manifest_question_out_of_range(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["run"][key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli.main(["transient", str(out / "ring_so_trial0.csv"),
                     str(out / "centralized_trial0.csv")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [run] ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("manifest, code", [
    (None, cli.EXIT_IO),
    ("{not json", cli.EXIT_CONFIG),
    ("{}", cli.EXIT_CONFIG),
    ('{"config": {"problem": {"family": "ridge_tuning", "bogus": 1}}}', cli.EXIT_CONFIG),
], ids=["missing", "not-json", "no-config", "unknown-key"])
def test_cli_transient_needs_a_readable_manifest_beside_the_run_csv(tmp_path, capsys, manifest,
                                                                    code):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path), "--out", str(out), "--trials", "1"]) == 0
    alone = tmp_path / "alone"
    alone.mkdir()
    for name in ("ring_so_trial0.csv", "centralized_trial0.csv"):
        (alone / name).write_bytes((out / name).read_bytes())
    if manifest is not None:
        (alone / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert cli.main(["transient", str(alone / "ring_so_trial0.csv"),
                     str(alone / "centralized_trial0.csv")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "manifest.json" in captured.err
    assert "Traceback" not in captured.err


def test_a_reference_at_its_baseline_gives_an_error_not_a_cutoff(tmp_path, capsys):
    # Ridge's grad_sq_norm is 0 at every probe, so no relative tolerance applies.
    text = GOOD_CONFIG.replace("transient_metric = upper_loss", "transient_metric = grad_sq_norm")
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(out), "--trials", "1"]) == 0
    estimates = json.loads((out / "manifest.json").read_text())["transient_estimates"]
    assert len(estimates) == 2
    for e in estimates:
        assert e["cutoff_iteration"] is None and e["matched"] is None
        assert e["error"].startswith("the smoothed grad_sq_norm reference")
    capsys.readouterr()
    code = cli.main(["transient", str(out / "ring_so_trial0.csv"),
                     str(out / "centralized_trial0.csv")])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {estimates[0]['error']}\n"


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


@pytest.mark.parametrize("key, value", [
    ("alpha0", "nan"), ("theta", "nan"), ("theta", "1.5"), ("theta", "-0.5"), ("tau", "nan"),
    ("c2", "nan"), ("delta", "nan"),
    ("sigma_omega", "nan"), ("sigma_omega", "inf"), ("sigma_omega", "-1"),
    ("noise_scale", "nan"), ("noise_scale", "-1"), ("heterogeneity", "-1"),
    ("conditioning", "nan"), ("conditioning", "inf"), ("conditioning", "0.5"), ("n_nodes", "0"),
    ("seed", "-1"), ("dim_x", "0"), ("dim_y", "0"), ("alpha0", "-1"),
])
def test_nan_or_out_of_range_step_sizes_rejected_by_validate_and_run(tmp_path, capsys, key, value):
    # parse_config takes any number here; HyperParams or, for a [problem]
    # key, the problem's constructor is what rejects these, and the message
    # names the section. The quadratic keys go into the smoke config.
    text = GOOD_CONFIG
    if key in _PROBLEM_VALUES["quadratic"]:
        with open(SMOKE_CONFIG) as fh:
            text = fh.read()
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    in_problem = key in _PROBLEM_VALUES["quadratic"] or key == "sigma_omega"
    header = "[problem]\n" if in_problem else "[run]\n"
    text = text.replace(header, f"{header}{key} = {value}\n")
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {header.strip()} ") and key in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {header.strip()} ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("0.5 0.25 0.25\n0.25 0.5 0.25\n0.25 0.25 0.5\n", "3 nodes"),
    ("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "do not mix"),
    (".25 .25 .25 .25\n.25 x .25 .25\n.25 .25 .25 .25\n.25 .25 .25 .25\n", "matrix row 2"),
], ids=["wrong-size", "disconnected", "non-numeric"])
def test_custom_matrix_that_cannot_run_rejected_by_validate_and_run(tmp_path, capsys, rows,
                                                                      message):
    # The problem has 4 nodes; the identity never mixes (rho = 1).
    matrix = tmp_path / "mix.txt"
    matrix.write_text(f"{rows.count(chr(10))}\n{rows}")
    text = SMALL_QUADRATIC.replace("kind = fully_connected", f"kind = custom\npath = {matrix}")
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [topology.full]") and message in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [topology.full]")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n",
    ",".join(CSV_HEADER) + "\n0,x,0.0,0.0,1.0,0.1\n",
    ",".join(CSV_HEADER) + "\n0,1.0,0.0\n",
    # Past csv.field_size_limit(), so csv.reader itself raises.
    ",".join(CSV_HEADER) + "\n0," + "1" * 200_000 + ",0.0,0.0,1.0,0.1\n",
    # Past the int64 range of a record's t column.
    ",".join(CSV_HEADER) + "\n" + "9" * 30 + ",1.0,0.0,0.0,1.0,0.1\n",
], ids=["bad-header", "non-numeric-cell", "short-row", "oversized-field", "t-past-int64"])
def test_cli_transient_rejects_a_malformed_csv(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert cli.main(["transient", str(bad), str(bad)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


# A runnable INI value of every [problem] and [topology.*] key on 4 nodes; a
# custom path is set per test.
_RUNNABLE = {
    "seed": "3", "n_nodes": "4", "dim_x": "2", "dim_y": "3", "conditioning": "4.0",
    "heterogeneity": "0.1", "noise_scale": "0.1", "sigma_omega": "0.5",
    "self_weight": "0.5", "neighbor_weight": "0.25", "rows": "2", "cols": "2",
}


@pytest.mark.parametrize("kind", sorted(_TOPOLOGY_VALUES))
@pytest.mark.parametrize("family", sorted(_PROBLEM_VALUES))
def test_manifest_config_holds_the_keys_each_section_takes(tmp_path, family, kind):
    # Every key of the family and the kind is set; the manifest records
    # those and no key that another family or kind takes.
    matrix = tmp_path / "mix.txt"
    matrix.write_text("4\n" + "0.25 0.25 0.25 0.25\n" * 4)
    values = {**_RUNNABLE, "path": str(matrix)}
    text = _ini([
        ("problem", {"family": family, **{k: values[k] for k in _PROBLEM_VALUES[family]}}),
        ("topology.net", {"kind": kind, **{k: values[k] for k in _TOPOLOGY_VALUES[kind]}}),
        ("run", {"t": 2, "probe_every": 1}),
    ])
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(out)]) == cli.EXIT_OK
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config["problem"]) == {"family", *_PROBLEM_VALUES[family]}
    assert [set(t) for t in config["topologies"]] == [{"name", "kind", *_TOPOLOGY_VALUES[kind]}]


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


@pytest.mark.parametrize("rows, cols", [(-2, -2), (-4, -1)])
def test_torus_shape_below_one_rejected_by_validate_and_run(tmp_path, capsys, rows, cols):
    # Both products are the problem's 4 nodes; the error names the section,
    # rows and cols, and no traceback or output directory follows.
    text = GOOD_CONFIG.replace("n_nodes = 9", "n_nodes = 4")
    text = text.replace("rows = 3", f"rows = {rows}").replace("cols = 3", f"cols = {cols}")
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [topology.torus] ") and "rows" in err and "cols" in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [topology.torus] ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["alpha0", "tau", "c1", "delta"])
def test_infinite_step_sizes_rejected_by_validate_and_run(tmp_path, capsys, key):
    # Otherwise every cell would diverge at iteration 1.
    text = re.sub(rf"^{key} = .*\n", "", GOOD_CONFIG, flags=re.M)
    path = write_config(tmp_path, text.replace("[run]\n", f"[run]\n{key} = inf\n"))
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [run] ") and key in err and "finite" in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--trials", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [run] ")
    assert not out.exists()


def test_variant_listed_twice_rejected(tmp_path, capsys):
    # Otherwise the manifest lists each of its cells twice over one CSV.
    text = GOOD_CONFIG.replace("variants = so, centralized", "variants = so, so, centralized")
    with pytest.raises(ValidationError, match="'so'"):
        parse_config(text)
    assert cli.main(["validate", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
    assert "'so' is listed twice" in capsys.readouterr().err


def test_topology_named_centralized_keeps_its_own_cells(tmp_path):
    # A ring named "centralized" gossips with its own weights and writes
    # its own files, next to the centralized cell's.
    named, renamed = tmp_path / "named", tmp_path / "renamed"
    text = SMALL_QUADRATIC.replace("[topology.ring]", "[topology.centralized]")
    assert cli.run_experiment(parse_config(SMALL_QUADRATIC), str(named)) == cli.EXIT_OK
    assert cli.run_experiment(parse_config(text), str(renamed)) == cli.EXIT_OK
    for ours, theirs in [("centralized_so", "ring_so"), ("centralized_fo", "ring_fo"),
                         ("centralized", "centralized")]:
        for trial in range(2):
            mine = (renamed / f"{ours}_trial{trial}.csv").read_bytes()
            assert mine == (named / f"{theirs}_trial{trial}.csv").read_bytes()
    manifest = json.loads((renamed / "manifest.json").read_text())
    assert len(manifest["cells"]) == 10
    assert len({(c["topology"], c["variant"], c["trial"]) for c in manifest["cells"]}) == 10
    assert manifest["topologies"]["centralized"]["rho"] == topo.ring(4).rho
