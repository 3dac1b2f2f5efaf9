import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityswap
from cavityswap import __version__
from cavityswap.bragg import recoil_frequency
from cavityswap.cli import (
    _CSV_BLOCK,
    ConfigError,
    _format_floats,
    _write_csv,
    load_config,
    main,
    resolve_params,
)


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_text()


# ---------------------------------------------------------------- config


def test_defaults_resolve_to_the_reference_parameters():
    cfg = load_config(None, {})
    params = resolve_params(cfg)
    assert params.g == 1.0 and params.delta == 100.0
    assert params.l0 == 2 and params.r == 1
    assert cfg["shots"] == 100_000


def test_config_file_with_dimensionless_block(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimensionless": {"g": 2.0, "delta": 300.0}, "l0": 4}))
    cfg = load_config(str(path), {})
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
    cfg = load_config(str(path), {})
    params = resolve_params(cfg)
    assert params.g == pytest.approx(1.0, rel=1e-12)
    assert params.delta == pytest.approx(100.0, rel=1e-12)
    assert cfg["recoil_rad_per_s"] == pytest.approx(w_rec)


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
        load_config(str(path), {})


def test_unknown_config_keys_are_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for key in ("detuning", "step"):
        path.write_text(json.dumps({key: 100.0}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(str(path), {})


def test_flag_overrides_win_over_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "shots": 10}))
    cfg = load_config(str(path), {"seed": 9})
    assert cfg["seed"] == 9 and cfg["shots"] == 10


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
    assert float(final[4]) >= 0.95  # ladder deflected population
    assert float(final[5]) == 0.0  # zero-photon column shows no transfer
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
    # protocol has no time grid either: the config key and the flag are refused.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5}))
    out = tmp_path / "run"
    argv = ("protocol", "--shots", "10", "--out", str(out))
    assert run_cli(*argv, "--config", str(cfg)) == 1
    assert "points" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        run_cli(*argv, "--points", "5")


def test_ladder_commands_reject_shots_and_detection_efficiency(tmp_path, capsys):
    # entangle and oracle-compare sample nothing: the flags are argparse
    # errors and the config keys are refused; --seed stays accepted, and the
    # config line still echoes the defaults.
    for command, csv_name in (("entangle", "entangle_populations.csv"),
                              ("oracle-compare", "oracle_compare.csv")):
        out = tmp_path / command
        argv = (command, "--points", "3", "--seed", "4", "--out", str(out))
        for flag, value in (("--shots", "5"), ("--detection-efficiency", "0.5")):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, flag, value)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
        for key, value in (("shots", 5), ("detection_efficiency", 0.5)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            assert run_cli(*argv, "--config", str(cfg)) == 1
            assert key in capsys.readouterr().err
            assert not out.exists()
        assert run_cli(*argv) == 0
        config = json.loads(read(out / csv_name).splitlines()[1].removeprefix("# config: "))
        assert (config["shots"], config["detection_efficiency"], config["seed"]) == (100_000, 1.0, 4)


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
    # entangle's ladder_deflected_n0 column is all zeros
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
