import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cavityswap
from cavityswap import __version__, bragg
from cavityswap.bragg import (
    BraggParams,
    full_deflection_time,
    pendellosung_frequency,
    recoil_frequency,
)
from cavityswap.cli import (
    _CSV_BLOCK,
    _LADDER_SLICE,
    CONFIG,
    ConfigError,
    _build_parser,
    _format_floats,
    _numbers,
    _real,
    _text,
    _time_scale,
    _whole,
    _whole_or_null,
    _write_csv,
    load_config,
    main,
    resolve_params,
)
from cavityswap.metrics import POPULATION_COLUMNS, oracle_compare


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_text()


# ---------------------------------------------------------------- config


def test_defaults_resolve_to_the_reference_parameters():
    cfg, _ = load_config("protocol", None, {})
    params = resolve_params(cfg)
    assert params.g == 1.0 and params.delta == 100.0
    assert params.l0 == 2 and params.r == 1
    assert cfg["shots"] == 100_000


def test_config_file_with_dimensionless_block(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimensionless": {"g": 2.0, "delta": 300.0}, "l0": 4}))
    cfg, _ = load_config("entangle", str(path), {})
    params = resolve_params(cfg)
    assert params.g == 2.0 and params.delta == 300.0 and params.l0 == 4


def test_physical_block_converts_to_recoil_units_once(tmp_path):
    mass = 84.911789738 * 1.66053906660e-27
    w_rec = recoil_frequency(mass, 780e-9)
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "physical": {
                    "mass_kg": mass,
                    "wavelength_m": 780e-9,
                    "g_rad_per_s": w_rec,
                    "delta_rad_per_s": 100.0 * w_rec,
                }
            }
        )
    )
    cfg, echo = load_config("protocol", str(path), {})
    params = resolve_params(cfg)
    assert params.g == pytest.approx(1.0, rel=1e-12)
    assert params.delta == pytest.approx(100.0, rel=1e-12)
    assert echo["recoil_rad_per_s"] == pytest.approx(w_rec)


def test_both_parameter_blocks_present_is_an_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "dimensionless": {"g": 1.0, "delta": 100.0},
                "physical": {
                    "mass_kg": 1e-25,
                    "wavelength_m": 7.8e-7,
                    "g_rad_per_s": 1.0,
                    "delta_rad_per_s": 100.0,
                },
            }
        )
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_config("protocol", str(path), {})


def test_unknown_config_keys_are_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for key in ("detuning", "step"):
        path.write_text(json.dumps({key: 100.0}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config("protocol", str(path), {})


def test_flag_overrides_win_over_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "shots": 10}))
    cfg, echo = load_config("protocol", str(path), {"seed": 9})
    assert cfg["seed"] == 9 and cfg["shots"] == 10
    assert echo["seed"] == 9


# ---------------------------------------------------------------- exit codes


def test_missing_config_file_exits_one(capsys):
    assert run_cli("protocol", "--config", "/definitely/not/here.json") == 1
    assert "config file not found" in capsys.readouterr().err


def test_invalid_parameter_exits_one_naming_the_invariant(capsys):
    assert run_cli("protocol", "--l0", "3") == 1
    assert "even" in capsys.readouterr().err


def test_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("protocol", "--config", str(path)) == 1
    assert "not valid JSON" in capsys.readouterr().err
    # An integer longer than Python converts from text is refused the same way.
    path.write_text('{"points": 1' + "0" * 5000 + "}")
    assert run_cli("entangle", "--config", str(path), "--out", str(tmp_path / "run")) == 1
    assert capsys.readouterr().err.startswith("error: config file is not valid JSON: ")
    assert not (tmp_path / "run").exists()


def test_zero_shots_exits_one(tmp_path, capsys):
    assert run_cli("protocol", "--shots", "0", "--out", str(tmp_path)) == 1
    assert "shots" in capsys.readouterr().err


def test_negative_time_scale_exits_one(tmp_path, capsys):
    for command, *extra in (
        ("entangle",),
        ("protocol", "--shots", "100"),
        ("sweep", "--axis", "l0", "--values", "2", "--shots", "100"),
    ):
        out = tmp_path / command
        assert run_cli(command, *extra, "--time-scale", "-1", "--out", str(out)) == 1
        assert "time_scale" in capsys.readouterr().err
        assert not out.exists()


def test_fewer_than_two_points_exits_one(tmp_path, capsys):
    for command in ("entangle", "oracle-compare"):
        for points in ("1", "0", "-2"):
            out = tmp_path / f"{command}{points}"
            assert run_cli(command, "--points", points, "--out", str(out)) == 1
            assert "points" in capsys.readouterr().err
            assert not out.exists()


_PHYSICAL = {"mass_kg": 1.4e-25, "wavelength_m": 780e-9, "g_rad_per_s": 1e4, "delta_rad_per_s": 1e6}
_SWEEP = {"sweep": {"axis": "l0", "values": [2]}}


@pytest.mark.parametrize("command, config, message", [
    # Integer keys take whole numbers only: no fractions, bools or text.
    ("entangle", {"points": "many"}, "points must be a whole number, got 'many'"),
    ("entangle", {"points": 2.5}, "points must be a whole number, got 2.5"),
    ("oracle-compare", {"points": True}, "points must be a whole number, got True"),
    ("entangle", {"l0": 2.5}, "l0 must be a whole number, got 2.5"),
    ("protocol", {"r": "3"}, "r must be a whole number, got '3'"),
    ("entangle", {"ladder_halfwidth": 7.9}, "ladder_halfwidth must be a whole number, got 7.9"),
    ("protocol", {"shots": 2.5, "seed": 1.7}, "shots must be a whole number, got 2.5"),
    ("protocol", {"seed": 1.7}, "seed must be a whole number, got 1.7"),
    ("sweep", {**_SWEEP, "shots": 10.5}, "shots must be a whole number, got 10.5"),
    ("sweep", {**_SWEEP, "seed": None}, "seed must be a whole number, got None"),
    # An integer past the float range is no number: it would overflow float().
    ("entangle", {"points": 10**400}, f"points must be a whole number, got {10**400}"),
    ("entangle", {"time_scale": 10**400}, f"time_scale must be a number, got {10**400}"),
    # Blocks are JSON objects, and their numbers are numbers.
    ("oracle-compare", {"assert": 3}, "config block 'assert' must be a JSON object"),
    ("oracle-compare", {"assert": {"max_error": "x"}}, "assert max_error must be a number, got 'x'"),
    ("sweep", {**_SWEEP, "assert": {"max_error": False}}, "assert max_error must be a number, got False"),
    ("sweep", {"sweep": [2, 4]}, "config block 'sweep' must be a JSON object"),
    ("protocol", {"physical": 3}, "config block 'physical' must be a JSON object"),
    ("protocol", {"physical": {**_PHYSICAL, "mass_kg": "x"}}, "physical block values must be numbers: ['mass_kg']"),
    ("protocol", {"physical": {**_PHYSICAL, "wavelength_m": 0.0}}, "mass and wavelength must be positive"),
    ("protocol", {"dimensionless": {"g": "1", "delta": 100.0}}, "dimensionless block values must be numbers: ['g']"),
    ("protocol", {"dimensionless": {"g": True, "delta": 100.0}}, "dimensionless block values must be numbers: ['g']"),
    ("entangle", {"dimensionless": {"g": 1.0, "delta": "100"}}, "dimensionless block values must be numbers: ['delta']"),
    ("entangle", {"dimensionless": {"g": 1.0, "delta": True}}, "dimensionless block values must be numbers: ['delta']"),
    ("protocol", {"dimensionless": {"g": 10**400, "delta": 100}}, "dimensionless block values must be numbers: ['g']"),
    # A block holds the inner keys no flag can set: an assert block its bound.
    ("oracle-compare", {"assert": {}}, "assert block is missing ['max_error']"),
    ("sweep", {**_SWEEP, "assert": {}}, "assert block is missing ['max_error']"),
    # Real-valued keys take numbers only.
    ("entangle", {"time_scale": None}, "time_scale must be a number, got None"),
    ("protocol", {"detection_efficiency": "x"}, "detection_efficiency must be a number, got 'x'"),
    ("sweep", {**_SWEEP, "time_scale": True}, "time_scale must be a number, got True"),
])
def test_malformed_config_values_exit_1_before_any_artifact(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Walking the config table: bad values of each kind, valid blocks to hold a
# bad inner value, and flags that would make each command run if the file
# were not checked (a flag wins over the file, but the file is read first).
_BAD = {
    _whole: (2.5, True, "2", None, math.inf),
    _whole_or_null: (2.5, False, "2"),
    _real: ("x", True, None, math.inf, math.nan),
    _time_scale: ("x", True, None, -1.0, math.inf, math.nan),
    _text: (3, None, ["a"]),
    _numbers: (4, "2,x", [2, "x"], [2, None], {"a": 2}),
}
_BAD_BLOCKS = (3, None, [1], {"unknown": 1})
_VALID_BLOCKS = {
    "dimensionless": {"g": 1.0, "delta": 100.0},
    "physical": _PHYSICAL,
    "sweep": {"axis": "l0", "values": [2]},
    "assert": {"max_error": 0.02},
}
_RUNNABLE = {
    "entangle": ("--points", "3"),
    "protocol": ("--shots", "10"),
    "oracle-compare": ("--points", "3"),
    "sweep": ("--axis", "l0", "--values", "2", "--shots", "10"),
}


def _table_cases():
    for command in _RUNNABLE:
        for key, row in CONFIG.items():
            if command not in row.commands:
                yield pytest.param(command, {key: row.default}, f"error: config keys this command does not read: "
                                   f"['{key}']", id=f"{command}-unread-{key}")
                continue
            if not isinstance(row.kind, dict):
                for bad in _BAD[row.kind]:
                    yield pytest.param(command, {key: bad}, f"error: {key} must be ", id=f"{command}-{key}={bad!r}")
                continue
            for bad in _BAD_BLOCKS:
                yield pytest.param(command, {key: bad}, key, id=f"{command}-{key}={bad!r}")
            for inner, inner_row in row.kind.items():
                for bad in _BAD[inner_row.kind]:
                    config = {key: {**_VALID_BLOCKS[key], inner: bad}}
                    yield pytest.param(command, config, key, id=f"{command}-{key}.{inner}={bad!r}")


# Misspelt and misplaced keys inside blocks, a block the command does not
# read, and output directories that are not text.
_NAMED_CASES = [
    ("oracle-compare", {"assert": {"max_eror": 0.0}}, "unknown keys in config block 'assert': ['max_eror']"),
    ("entangle", _SWEEP, "config keys this command does not read: ['sweep']"),
    ("protocol", _SWEEP, "config keys this command does not read: ['sweep']"),
    ("sweep", {"sweep": {"axis": "l0", "values": [2], "valuez": [4]}}, "unknown keys in config block 'sweep': ['valuez']"),
    ("sweep", {"sweep": {"axis": "l0", "values": [2], "shots": 5}}, "unknown keys in config block 'sweep': ['shots']"),
    ("protocol", {"dimensionless": {"g": 1, "delta": 100, "l0": 4}}, "unknown keys in config block 'dimensionless': ['l0']"),
    ("protocol", {"physical": {**_PHYSICAL, "l0": 4}}, "unknown keys in config block 'physical': ['l0']"),
    ("protocol", {"output_dir": 3}, "output_dir must be text, got 3"),
    ("protocol", {"output_dir": None}, "output_dir must be text, got None"),
    ("protocol", {"output_dir": ["a"]}, "output_dir must be text, got ['a']"),
]


@pytest.mark.parametrize("command, config, named", [
    *_table_cases(),
    *(pytest.param(command, config, message, id=f"named-{i}")
      for i, (command, config, message) in enumerate(_NAMED_CASES)),
])
def test_config_table_refuses_unread_keys_and_bad_values(tmp_path, capsys, command, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(command, *_RUNNABLE[command], "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_every_command_has_its_flags_in_order():
    # Option strings, dests and types per command.  oracle-compare has no
    # --time-scale; protocol and sweep have no --points.
    expected = {
        "entangle": [
            (["-h", "--help"], "help", None), (["--config"], "config", None), (["--seed"], "seed", int),
            (["--out"], "output_dir", None), (["--g"], "g", float), (["--delta"], "delta", float),
            (["--l0"], "l0", int), (["--r"], "r", int), (["--ladder-halfwidth"], "ladder_halfwidth", int),
            (["--time-scale"], "time_scale", float), (["--points"], "points", int),
        ],
        "protocol": [
            (["-h", "--help"], "help", None), (["--config"], "config", None), (["--seed"], "seed", int),
            (["--out"], "output_dir", None), (["--g"], "g", float), (["--delta"], "delta", float),
            (["--l0"], "l0", int), (["--r"], "r", int), (["--ladder-halfwidth"], "ladder_halfwidth", int),
            (["--time-scale"], "time_scale", float), (["--shots"], "shots", int),
            (["--detection-efficiency"], "detection_efficiency", float),
        ],
        "oracle-compare": [
            (["-h", "--help"], "help", None), (["--config"], "config", None), (["--seed"], "seed", int),
            (["--out"], "output_dir", None), (["--g"], "g", float), (["--delta"], "delta", float),
            (["--l0"], "l0", int), (["--r"], "r", int), (["--ladder-halfwidth"], "ladder_halfwidth", int),
            (["--points"], "points", int),
        ],
        "sweep": [
            (["-h", "--help"], "help", None), (["--config"], "config", None), (["--seed"], "seed", int),
            (["--out"], "output_dir", None), (["--g"], "g", float), (["--delta"], "delta", float),
            (["--l0"], "l0", int), (["--r"], "r", int), (["--ladder-halfwidth"], "ladder_halfwidth", int),
            (["--time-scale"], "time_scale", float), (["--shots"], "shots", int),
            (["--detection-efficiency"], "detection_efficiency", float), (["--axis"], "axis", None),
            (["--values"], "values", None),
        ],
    }
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(expected)
    for name, flags in expected.items():
        actions = subparsers.choices[name]._actions
        assert [(a.option_strings, a.dest, a.type) for a in actions] == flags, name


def test_whole_number_floats_count_as_integers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5.0, "l0": 4.0}))
    assert run_cli("entangle", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert len(read(tmp_path / "entangle_populations.csv").splitlines()) == 3 + 5


# ---------------------------------------------------------------- entangle


def test_entangle_writes_populations_and_state(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("entangle", "--out", str(out), "--points", "41") == 0
    printed = capsys.readouterr().out
    assert "final deflected population" in printed
    csv_text = read(out / "entangle_populations.csv")
    header, config_line, columns = csv_text.splitlines()[:3]
    assert header.startswith("# cavityswap ")
    assert config_line.startswith("# config: ")
    assert columns.split(",")[:2] == ["time", "analytic_undeflected"]
    rows = csv_text.splitlines()[3:]
    assert len(rows) == 41
    final = rows[-1].split(",")
    assert len(final) == 5
    assert float(final[4]) >= 0.95  # ladder deflected population
    state = json.loads(read(out / "entangle_state.json"))
    assert state["final_deflected_population"] >= 0.95
    assert state["oracle_fidelity"] >= 0.98
    amps = {tuple(lab): complex(re, im) for lab, (re, im) in zip(map(tuple, state["basis"]), state["amplitudes"])}
    assert abs(amps[(0, 1)] - 1 / math.sqrt(2)) <= 1e-12
    assert abs(amps[(1, -1)] - 1j / math.sqrt(2)) <= 1e-12


def test_entangle_with_frozen_time_scale(tmp_path):
    out = tmp_path / "run"
    assert run_cli("entangle", "--out", str(out), "--time-scale", "0", "--points", "9") == 0
    rows = read(out / "entangle_populations.csv").splitlines()[3:]
    for row in rows:
        fields = row.split(",")
        assert float(fields[1]) == 1.0  # analytic undeflected stays put
        assert float(fields[4]) == 0.0  # ladder deflected stays put


# ---------------------------------------------------------------- protocol


def test_protocol_writes_report_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("protocol", "--out", str(out), "--shots", "20000", "--seed", "7") == 0
    printed = capsys.readouterr().out
    assert "success rate" in printed
    csv_text = read(out / "protocol_report.csv")
    columns = csv_text.splitlines()[2].split(",")
    assert "classification" in columns and "paper_label" in columns
    summary = json.loads(read(out / "protocol_summary.json"))
    assert summary["success_probability"] == pytest.approx(0.5, abs=1e-12)
    assert abs(summary["success_rate"] - 0.5) <= 4 * math.sqrt(0.25 / 20000)
    assert summary["paper_label_divergences"]
    assert summary["config"]["seed"] == 7


def test_protocol_rerun_with_same_seed_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    assert run_cli("protocol", "--out", str(out), "--shots", "5000", "--seed", "3") == 0
    first_csv = read(out / "protocol_report.csv")
    first_json = read(out / "protocol_summary.json")
    assert run_cli("protocol", "--out", str(out), "--shots", "5000", "--seed", "3") == 0
    assert read(out / "protocol_report.csv") == first_csv
    assert read(out / "protocol_summary.json") == first_json


def test_protocol_seed_changes_the_sample(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("protocol", "--out", str(out_a), "--shots", "5000", "--seed", "3")
    run_cli("protocol", "--out", str(out_b), "--shots", "5000", "--seed", "4")
    rows_a = read(out_a / "protocol_report.csv").splitlines()[3:]
    rows_b = read(out_b / "protocol_report.csv").splitlines()[3:]
    assert rows_a != rows_b


def test_protocol_with_lossy_detection(tmp_path):
    out = tmp_path / "run"
    assert (
        run_cli(
            "protocol",
            "--out",
            str(out),
            "--shots",
            "10000",
            "--seed",
            "7",
            "--detection-efficiency",
            "0.8",
        )
        == 0
    )
    summary = json.loads(read(out / "protocol_summary.json"))
    assert summary["discarded_shots"] > 0
    assert summary["retained_shots"] + summary["discarded_shots"] == 10000
    assert summary["config"]["detection_efficiency"] == 0.8


# ---------------------------------------------------------------- oracle-compare


def test_oracle_compare_passes_the_default_threshold(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"assert": {"max_error": 0.02}, "points": 61}))
    assert run_cli("oracle-compare", "--config", str(cfg), "--out", str(out)) == 0
    assert "max population error" in capsys.readouterr().out
    assert (out / "oracle_compare.csv").is_file()


def test_oracle_compare_assert_negative_control(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"assert": {"max_error": 1e-9}, "points": 61}))
    assert run_cli("oracle-compare", "--config", str(cfg), "--out", str(out)) == 2
    assert "assertion failed" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_via_flags(tmp_path):
    out = tmp_path / "run"
    assert (
        run_cli(
            "sweep",
            "--out",
            str(out),
            "--axis",
            "interaction_time_scale",
            "--values",
            "0.9,1.0,1.1",
            "--shots",
            "500",
        )
        == 0
    )
    lines = read(out / "sweep.csv").splitlines()
    assert lines[2].startswith("value,analytic_deflected")
    assert len(lines) == 3 + 3
    manifest = json.loads(read(out / "sweep_manifest.json"))
    assert manifest["axis"] == "interaction_time_scale"
    assert manifest["row_errors"] == {}


def test_sweep_from_config_block_with_failing_assert(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "sweep": {"axis": "delta_over_g", "values": [50.0, 100.0]},
                "assert": {"max_error": 1e-12},
                "shots": 200,
            }
        )
    )
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert "assertion failed" in capsys.readouterr().err


def test_sweep_without_axis_is_invalid(tmp_path, capsys):
    assert run_cli("sweep", "--out", str(tmp_path)) == 1
    assert "axis" in capsys.readouterr().err


def test_sweep_rejects_detection_efficiency(tmp_path, capsys):
    argv = ("sweep", "--axis", "l0", "--values", "2", "--shots", "10", "--out", str(tmp_path))
    assert run_cli(*argv, "--detection-efficiency", "0.9") == 1
    assert "detection_efficiency" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_non_number_detection_efficiency(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detection_efficiency": "x"}))
    out = tmp_path / "run"
    argv = ("sweep", "--axis", "l0", "--values", "2", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == "error: detection_efficiency must be a number, got 'x'\n"
    assert not out.exists()


def test_sweep_rejects_points(tmp_path, capsys):
    # sweep has no time grid: a config file setting points is refused, and
    # so is the flag.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3}))
    out = tmp_path / "run"
    argv = ("sweep", "--axis", "l0", "--values", "2", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--config", str(cfg)) == 1
    assert "points" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        run_cli(*argv, "--points", "3")


def test_protocol_rejects_points(tmp_path, capsys):
    # protocol has no time grid either: the config key and the flag are
    # refused.  It checks no assertion, so an assert block is refused too.
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    argv = ("protocol", "--shots", "10", "--out", str(out))
    for key, value in (("points", 5), ("assert", {"max_error": 0.0})):
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(*argv, "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: config keys this command does not read: ['{key}']\n"
        assert not out.exists()
    with pytest.raises(SystemExit):
        run_cli(*argv, "--points", "5")


def test_ladder_commands_reject_shots_and_detection_efficiency(tmp_path, capsys):
    # entangle and oracle-compare sample nothing, oracle-compare spans
    # one Pendelloesung period whatever the time scale, and entangle checks
    # no assertion: the flags are argparse errors and the config keys are
    # refused; --seed stays accepted, and the config line still echoes the
    # defaults.
    sampling = (("--shots", "shots", 5), ("--detection-efficiency", "detection_efficiency", 0.5))
    for command, csv_name, refused in (
        ("entangle", "entangle_populations.csv", sampling + ((None, "assert", {"max_error": 0.0}),)),
        ("oracle-compare", "oracle_compare.csv", sampling + (("--time-scale", "time_scale", 0.5),)),
    ):
        out = tmp_path / command
        argv = (command, "--points", "3", "--seed", "4", "--out", str(out))
        for flag, _, value in refused:
            if flag is None:  # a config block, with no flag
                continue
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, flag, str(value))
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
        for _, key, value in refused:
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            assert run_cli(*argv, "--config", str(cfg)) == 1
            assert key in capsys.readouterr().err
            assert not out.exists()
        assert run_cli(*argv) == 0
        config = json.loads(read(out / csv_name).splitlines()[1].removeprefix("# config: "))
        assert (config["shots"], config["detection_efficiency"], config["seed"]) == (100_000, 1.0, 4)
        assert config["time_scale"] == 1.0


def test_non_finite_time_scales_exit_1_up_front(tmp_path, capsys):
    # No RuntimeWarning (an error under this suite's filter) and no
    # traceback: the commands refuse the value before any numerics.
    for command, extra in (("entangle", ()), ("protocol", ("--shots", "10"))):
        out = tmp_path / command
        for value in ("inf", "nan", "-inf"):
            assert run_cli(command, f"--time-scale={value}", *extra, "--out", str(out)) == 1
            reason = "nonnegative" if value == "-inf" else "finite"
            assert capsys.readouterr().err == f"error: time_scale must be {reason}, got {float(value)!r}\n"
            assert not out.exists()
    out = tmp_path / "sweep"
    argv = ("sweep", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--axis", "delta_over_g", "--values", "50,100", "--time-scale", "inf") == 1
    assert capsys.readouterr().err == "error: time_scale must be finite, got inf\n"
    assert not out.exists()
    # On the time-scale axis only the non-finite row fails.
    assert run_cli(*argv, "--axis", "interaction_time_scale", "--values", "0.5,inf") == 0
    assert capsys.readouterr().out == "row inf failed: ValueError: times must be finite and nonnegative\n"
    rows = [line.split(",") for line in read(out / "sweep.csv").splitlines()[3:]]
    assert rows[0][-1] == "" and rows[1][-1] == "ValueError: times must be finite and nonnegative"


_NO_DEFLECTION_TIME = "gives no finite positive full deflection time: the Pendelloesung frequency leaves the float range"


@pytest.mark.parametrize("argv, message", [
    # The Pendelloesung frequency is subnormal at l0 = 144 and 0 at l0 = 200.
    (("entangle", "--l0", "144", "--points", "3"), f"l0 = 144 with g = 1.0 and delta = 100.0 {_NO_DEFLECTION_TIME}"),
    (("oracle-compare", "--l0", "200"), f"l0 = 200 with g = 1.0 and delta = 100.0 {_NO_DEFLECTION_TIME}"),
    (("protocol", "--l0", "200"), f"l0 = 200 with g = 1.0 and delta = 100.0 {_NO_DEFLECTION_TIME}"),
    (("entangle", "--g", "1e-300", "--delta", "1e-290"), f"l0 = 2 with g = 1e-300 and delta = 1e-290 {_NO_DEFLECTION_TIME}"),
    # A finite deflection time, but the grid end overflows.
    (("entangle", "--time-scale", "1e308", "--points", "3"),
     "time_scale 1e+308 x the full deflection time overflows to inf"),
    (("protocol", "--time-scale", "1e308"), "time_scale 1e+308 x the full deflection time overflows to inf"),
    (("oracle-compare", "--g", "1e-150", "--delta", "1.5e7", "--points", "3"),
     "one Pendelloesung period overflows to inf"),
])
def test_overflowing_interaction_times_exit_1_before_any_artifact(tmp_path, capsys, argv, message):
    # No traceback and no RuntimeWarning (an error under this suite's filter).
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_row_without_a_deflection_time_fails_on_its_own(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--axis", "l0", "--values", "2,200", "--shots", "10", "--out", str(out)) == 0
    error = f"ValueError: l0 = 200 with g = 1.0 and delta = 100.0 {_NO_DEFLECTION_TIME}"
    assert capsys.readouterr().out == f"row 200 failed: {error}\n"
    rows = [line.split(",") for line in read(out / "sweep.csv").splitlines()[3:]]
    assert rows[0][-1] == "" and rows[1][-1] == error


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ("sweep", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--axis", "l0", "--values", "2,x") == 1
    assert capsys.readouterr().err == "error: sweep value 'x' is not a number\n"
    cfg = tmp_path / "cfg.json"
    for values in ("2,x", [2, "x"], [2, None], 4):
        cfg.write_text(json.dumps({"sweep": {"axis": "l0", "values": values}}))
        assert run_cli(*argv, "--config", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("error: sweep value")
    assert not out.exists()


def test_sweep_rejects_fractional_values_on_integer_axes(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ("sweep", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--axis", "l0", "--values", "2,3.7,4.5") == 1
    assert capsys.readouterr().err == "error: l0 values must be integers, got 3.7\n"
    assert run_cli(*argv, "--axis", "ladder_halfwidth", "--values", "5,6.5") == 1
    assert "integers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_negative_values_need_the_equals_form(tmp_path, capsys):
    argv = ("sweep", "--axis", "interaction_time_scale", "--shots", "10", "--out", str(tmp_path))
    with pytest.raises(SystemExit):
        run_cli(*argv, "--values", "-0.5,0.5")  # read as a flag by argparse
    capsys.readouterr()
    assert run_cli(*argv, "--values=-0.5,0.5") == 0
    rows = [line.split(",") for line in read(tmp_path / "sweep.csv").splitlines()[3:]]
    assert [float(row[0]) for row in rows] == [-0.5, 0.5]
    assert "time_scale" in rows[0][-1] or "nonnegative" in rows[0][-1]
    assert rows[1][-1] == "" and float(rows[1][4]) >= 0.0
    assert "row -0.5 failed" in capsys.readouterr().out


def test_module_entry_point_runs_the_command(tmp_path):
    src = Path(cavityswap.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "cavityswap.cli", "entangle", "--time-scale", "-1", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "time_scale" in done.stderr
    assert not out.exists()


# ---------------------------------------------------------------- artifacts


def test_every_csv_opens_with_the_version_and_its_json_config(tmp_path):
    common = ("--seed", "2")
    commands = {
        "entangle": (("entangle", "--points", "5"), "entangle_populations.csv", "entangle_state.json"),
        "protocol": (("protocol", "--shots", "200"), "protocol_report.csv", "protocol_summary.json"),
        "oracle-compare": (("oracle-compare", "--points", "5"), "oracle_compare.csv", None),
        "sweep": (("sweep", "--axis", "l0", "--values", "2,4", "--shots", "200"), "sweep.csv",
                  "sweep_manifest.json"),
    }
    configs = {}
    for name, (argv, csv_name, json_name) in commands.items():
        out = tmp_path / name
        assert run_cli(*argv, *common, "--out", str(out)) == 0
        version_line, config_line = read(out / csv_name).splitlines()[:2]
        assert version_line == f"# cavityswap {__version__}"
        config = json.loads(config_line.removeprefix("# config: "))
        assert config_line == "# config: " + json.dumps(config, sort_keys=True)
        if json_name is not None:
            doc = json.loads(read(out / json_name))
            assert doc["version"] == __version__
            assert doc["config"] == config
        config.pop("output_dir")
        configs[name] = config
    # oracle-compare writes no JSON; the same flags give the entangle config.
    assert configs["oracle-compare"] == configs["entangle"]


# ---------------------------------------------------------------- float writer


def percent_lines(table):
    # The reference: Python's own '%.12g', one cell at a time.
    return "".join(",".join("%.12g" % x for x in row) + "\n" for row in np.asarray(table).tolist())


def test_float_writer_matches_python_on_random_bit_patterns():
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
    table = bits.view(np.float64).reshape(-1, 8)
    assert _format_floats(table) == percent_lines(table)


def test_float_writer_matches_python_across_decades():
    rng = np.random.default_rng(43)
    decades = np.arange(-20, 21)
    table = rng.uniform(1.0, 10.0, (2000, decades.size)) * 10.0**decades
    table *= rng.choice([-1.0, 1.0], table.shape)
    assert _format_floats(table) == percent_lines(table)
    assert _format_floats(table.T) == percent_lines(table.T)


def test_float_writer_matches_python_on_half_ties():
    # (k + 0.5) / 10^j sits on or next to a .5 tie of the 12-digit rounding
    # (13 significant digits for k of 12): float arithmetic alone cannot
    # round these, so they must come out as Python rounds them.
    rng = np.random.default_rng(47)
    k = np.concatenate([rng.integers(10**11, 10**12, 60_000), rng.integers(0, 10**12, 20_000)])
    j = rng.integers(0, 25, k.size)
    table = ((k + 0.5) / 10.0**j).reshape(-1, 4)
    assert _format_floats(table) == percent_lines(table)


def test_float_writer_matches_python_on_integers():
    rng = np.random.default_rng(53)
    table = np.concatenate([
        rng.integers(0, 10**13, 40_000), rng.integers(-10**6, 10**6, 40_000),
        10 ** np.arange(14), 10 ** np.arange(14) - 1, 5 * 10 ** np.arange(14) + 5,
    ]).astype(np.float64).reshape(-1, 2)
    assert _format_floats(table) == percent_lines(table)


def test_float_writer_edge_values_and_a_zero_column():
    edge = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            9.9999999999995, 999999999999.5, 1e12, 1e-5, 0.000099999999999995,
            0.0001, 1e-4 * (1 - 2**-52), 1e16, 123456789012.5, 0.5, 1.0, -1.0]
    column = np.array(edge)[:, None]
    assert _format_floats(column) == percent_lines(column)
    # a column of zeros, as entangle's ladder_deflected reads at time scale 0
    table = np.column_stack((np.linspace(0.0, 1.0, 101), np.zeros(101)))
    assert _format_floats(table) == percent_lines(table)
    assert _format_floats(table).splitlines()[7] == "0.07,0"


def test_write_csv_formats_a_float_table_block_by_block(tmp_path):
    rng = np.random.default_rng(59)
    table = rng.random((2 * _CSV_BLOCK + 1, 3)) * 10.0 ** rng.integers(-6, 6, (2 * _CSV_BLOCK + 1, 3))
    path = tmp_path / "t.csv"
    _write_csv(path, {"a": 1}, ("x", "y", "z"), table)
    lines = read(path).splitlines(keepends=True)
    assert lines[:3] == [f"# cavityswap {__version__}\n", '# config: {"a": 1}\n', "x,y,z\n"]
    assert "".join(lines[3:]) == percent_lines(table)


def test_write_csv_joins_uneven_float_blocks_into_the_whole_table(tmp_path):
    rng = np.random.default_rng(61)
    table = rng.random((2 * _CSV_BLOCK + 7, 4)) * 10.0 ** rng.integers(-6, 6, (2 * _CSV_BLOCK + 7, 4))
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    _write_csv(whole, {"a": 1}, ("w", "x", "y", "z"), table)
    cuts = [0, 5, _CSV_BLOCK + 5, 2 * _CSV_BLOCK + 6, len(table)]  # the last block is one row
    _write_csv(blocks, {"a": 1}, ("w", "x", "y", "z"), (table[a:b] for a, b in zip(cuts, cuts[1:])))
    assert blocks.read_bytes() == whole.read_bytes()
    assert "".join(read(whole).splitlines(keepends=True)[3:]) == percent_lines(table)


def _chunk() -> int:
    return _LADDER_SLICE


def test_ladder_commands_stream_the_whole_array_tables(tmp_path, capsys, monkeypatch):
    # Two full slices and a one-time tail: the streamed tables, the printed
    # max error and the final population equal those of the whole-array
    # oracle_compare on the same grid.
    points = 2 * _chunk() + 1
    p = BraggParams(ladder_halfwidth=3)
    argv = ("--points", str(points), "--ladder-halfwidth", "3", "--out", str(tmp_path))
    whole = oracle_compare(p, np.linspace(0.0, 2.0 * math.pi / pendellosung_frequency(p), points))
    assert run_cli("oracle-compare", *argv) == 0
    assert "".join(read(tmp_path / "oracle_compare.csv").splitlines(keepends=True)[3:]) == _format_floats(whole.table)
    assert capsys.readouterr().out == f"max population error: {whole.max_error:.12g}\n"
    # Only the last slice reads clean below this limit: the flag must be
    # the whole grid's, not the last slice's.
    monkeypatch.setattr(bragg, "TRUNCATION_LIMIT", 1e-18)
    assert run_cli("oracle-compare", *argv) == 0
    assert "warning: ladder truncation too tight" in capsys.readouterr().out
    monkeypatch.undo()

    times = np.linspace(0.0, 1.3 * full_deflection_time(p), points)
    whole = oracle_compare(p, times)
    assert run_cli("entangle", *argv, "--time-scale", "1.3") == 0
    lines = read(tmp_path / "entangle_populations.csv").splitlines(keepends=True)
    assert lines[2] == ",".join(POPULATION_COLUMNS[:5]) + "\n"
    assert "".join(lines[3:]) == _format_floats(whole.table[:, :5])
    assert lines[3] == "0,1,0,1,0\n"
    state = json.loads(read(tmp_path / "entangle_state.json"))
    assert state["final_deflected_population"] == whole.table[-1, 4]
    assert state["truncation_warning"] is False


def test_oracle_compare_runs_in_bounded_memory(tmp_path, capsys):
    # The traced peak of a grid five times longer stays within 1.5x: only
    # the time grid grows with it, the tables are streamed slice by slice.
    def peak(points):
        tracemalloc.start()
        try:
            assert run_cli("oracle-compare", "--points", str(points), "--out", str(tmp_path)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * _chunk())  # builds the float writer's lookup tables first
    small, large = peak(2 * _chunk()), peak(10 * _chunk())
    assert large <= 1.5 * small, (small, large)
