"""Command-line front end: configuration, unit conversion, file output.

Subcommands: ``entangle``, ``protocol``, ``oracle-compare``, ``sweep``.
Configuration comes from an optional JSON file plus flags that mirror the
config keys; physical parameters (mass, wavelength, rates in rad/s) are
converted to recoil units exactly once, at load.  Every artifact is written
here, by :func:`_write_csv` and :func:`_write_json`; the other modules
return data, not text.  Exit codes: 0 success, 1 invalid input,
2 assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bragg import (
    BraggParams,
    entangled_pair_state,
    full_deflection_time,
    ladder_population_series,
    pair_oracle_fidelity,
    pendellosung_frequency,
    recoil_frequency,
)
from .metrics import ComparisonRow, PopulationRow, SweepSpec, oracle_compare, run_sweep
from .swap import run_protocol

__all__ = ["main", "run", "ConfigError", "load_config"]

DEFAULTS = {
    "l0": 2,
    "r": 1,
    "shots": 100_000,
    "seed": 1,
    "ladder_halfwidth": None,
    "time_scale": 1.0,
    "detection_efficiency": 1.0,
    "output_dir": "out",
    "points": 161,
}

class ConfigError(ValueError):
    """Invalid configuration; reported on stderr with exit code 1."""


def load_config(path: str | None, overrides: dict) -> dict:
    """Resolve defaults, config file, and flag overrides into one dict.

    Exactly one of the ``dimensionless`` block (g, delta in recoil units)
    and the ``physical`` block (mass_kg, wavelength_m, g_rad_per_s,
    delta_rad_per_s) must end up present; the physical block is converted
    here and nowhere else.
    """
    cfg = dict(DEFAULTS)
    file_cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - set(DEFAULTS) - {"dimensionless", "physical", "assert", "sweep"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.update({k: v for k, v in file_cfg.items() if k not in ("dimensionless", "physical")})

    dimless = file_cfg.get("dimensionless")
    physical = file_cfg.get("physical")
    if dimless is not None and physical is not None:
        raise ConfigError("config must carry exactly one of 'dimensionless' and 'physical'")
    if physical is not None:
        missing = {"mass_kg", "wavelength_m", "g_rad_per_s", "delta_rad_per_s"} - set(physical)
        if missing:
            raise ConfigError(f"physical block is missing {sorted(missing)}")
        w_rec = recoil_frequency(physical["mass_kg"], physical["wavelength_m"])
        cfg["g"] = physical["g_rad_per_s"] / w_rec
        cfg["delta"] = physical["delta_rad_per_s"] / w_rec
        cfg["recoil_rad_per_s"] = w_rec
    elif dimless is not None:
        missing = {"g", "delta"} - set(dimless)
        if missing:
            raise ConfigError(f"dimensionless block is missing {sorted(missing)}")
        cfg["g"] = dimless["g"]
        cfg["delta"] = dimless["delta"]
    else:
        cfg.setdefault("g", 1.0)
        cfg.setdefault("delta", 100.0)

    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def resolve_params(cfg: dict) -> BraggParams:
    try:
        return BraggParams(
            g=float(cfg["g"]),
            delta=float(cfg["delta"]),
            l0=int(cfg["l0"]),
            r=int(cfg["r"]),
            ladder_halfwidth=None if cfg["ladder_halfwidth"] is None else int(cfg["ladder_halfwidth"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _config_echo(cfg: dict, params: BraggParams) -> dict:
    echo = {k: cfg[k] for k in DEFAULTS}
    echo.update(asdict(params))
    del echo["n"]
    if "recoil_rad_per_s" in cfg:
        echo["recoil_rad_per_s"] = cfg["recoil_rad_per_s"]
    return echo


def _fmt(x) -> str:
    """One output value: floats to 12 significant digits, text without the
    CSV separators (commas become semicolons, newlines spaces)."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x).replace(",", ";").replace("\n", " ")


def _write_csv(path: Path, config: dict, columns, rows) -> None:
    """Version line, config line, column names, then one line per row.

    Rows are written as they are drawn, so a long table is never held as
    text in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# cavityswap {__version__}\n")
        f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path: Path, config: dict, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {**doc, "version": __version__, "config": config}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _points(cfg: dict) -> int:
    points = int(cfg["points"])
    if points < 2:
        raise ConfigError(f"points must be at least 2 (the first and last time), got {points}")
    return points


def cmd_entangle(cfg: dict) -> int:
    params = resolve_params(cfg)
    ts = float(cfg["time_scale"])
    if ts < 0.0:
        raise ConfigError(f"time_scale must be nonnegative, got {ts!r}")
    points = _points(cfg)
    one = params.with_photons(1)
    t_final = ts * full_deflection_time(one)
    times = np.linspace(0.0, t_final, points)
    comp = oracle_compare(one, times)
    series_zero = ladder_population_series(params.with_photons(0), times)
    config = _config_echo(cfg, params)
    out = Path(cfg["output_dir"])
    _write_csv(
        out / "entangle_populations.csv",
        config,
        PopulationRow._fields[:5] + ("ladder_deflected_n0",),
        ((*row[:5], n0) for row, n0 in zip(comp.rows, series_zero.deflected)),
    )

    final = comp.rows[-1].ladder_deflected
    pair = entangled_pair_state(params, ts)
    fid, warn = pair_oracle_fidelity(params, ts)
    _write_json(out / "entangle_state.json", config, {
        "basis": [list(lab) for lab in pair.labels],
        "amplitudes": [[a.real, a.imag] for a in pair.amps],
        "final_deflected_population": final,
        "oracle_fidelity": fid,
        "truncation_warning": bool(warn or comp.truncation_warning),
    })
    print(f"final deflected population (ladder): {_fmt(final)}")
    print(f"pair-state fidelity vs ladder: {_fmt(fid)}")
    return 0


def cmd_protocol(cfg: dict) -> int:
    params = resolve_params(cfg)
    try:
        report = run_protocol(
            params,
            shots=int(cfg["shots"]),
            seed=int(cfg["seed"]),
            time_scale=float(cfg["time_scale"]),
            detection_efficiency=float(cfg["detection_efficiency"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = _config_echo(cfg, params)
    out = Path(cfg["output_dir"])
    retained = max(report.retained_shots, 1)
    _write_csv(
        out / "protocol_report.csv",
        config,
        ("pattern", "probability", "empirical_frequency", "classification", "paper_label",
         "fidelity", "concurrence"),
        (
            (h.pattern.label, h.probability, count / retained, h.classification, h.paper_label,
             h.fidelity_to_class, h.concurrence)
            for h, count in zip(report.results, report.counts)
        ),
    )
    _write_json(out / "protocol_summary.json", config, report.summary())
    print(f"success rate: {_fmt(report.success_rate)} (exact {_fmt(report.success_probability)})")
    for name, stats in report.class_stats.items():
        if "fidelity_exact" in stats:
            print(f"  {name}: p={_fmt(stats['probability'])} fidelity={_fmt(stats['fidelity_exact'])}")
    if report.paper_label_divergences:
        print(
            "note: classifications diverge from the published click table on "
            + ", ".join(report.paper_label_divergences)
        )
    return 0


def cmd_oracle_compare(cfg: dict) -> int:
    params = resolve_params(cfg).with_photons(1)
    points = _points(cfg)
    period = 2.0 * math.pi / pendellosung_frequency(params)
    comp = oracle_compare(params, np.linspace(0.0, period, points))
    out = Path(cfg["output_dir"])
    _write_csv(out / "oracle_compare.csv", _config_echo(cfg, params), PopulationRow._fields, comp.rows)
    print(f"max population error: {_fmt(comp.max_error)}")
    if comp.truncation_warning:
        print("warning: ladder truncation too tight (boundary population exceeded limit)")
    limit = cfg.get("assert", {}).get("max_error")
    if limit is not None and comp.max_error > float(limit):
        print(
            f"assertion failed: max_error {_fmt(comp.max_error)} exceeds {_fmt(float(limit))}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_sweep(cfg: dict) -> int:
    params = resolve_params(cfg)
    if float(cfg["detection_efficiency"]) != 1.0:
        raise ConfigError("sweep does not apply detection_efficiency; leave it at 1")
    sweep_cfg = dict(cfg.get("sweep") or {})
    axis = cfg.get("axis") or sweep_cfg.get("axis")
    values = cfg.get("values") or sweep_cfg.get("values")
    if not axis or not values:
        raise ConfigError("sweep needs an axis and a list of values")
    if isinstance(values, str):
        values = [float(v) for v in values.split(",") if v.strip()]
    try:
        spec = SweepSpec(
            axis=axis,
            values=tuple(values),
            base=params,
            shots=int(cfg["shots"]),
            seed=int(cfg["seed"]),
            time_scale=float(cfg["time_scale"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_sweep(spec)
    config = _config_echo(cfg, params)
    config["sweep"] = {"axis": axis, "values": list(spec.values)}
    out = Path(cfg["output_dir"])
    _write_csv(out / "sweep.csv", config, ComparisonRow._fields, result.rows)
    _write_json(out / "sweep_manifest.json", config, result.manifest())
    for row in result.rows:
        if row.error:
            print(f"row {_fmt(row.value)} failed: {row.error}")
    limit = cfg.get("assert", {}).get("max_error")
    if limit is not None and not (result.max_abs_error <= float(limit)):
        print(
            f"assertion failed: max abs_error {_fmt(result.max_abs_error)} exceeds {_fmt(float(limit))}",
            file=sys.stderr,
        )
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityswap",
        description="Cavity entanglement swapping via atomic Bragg diffraction",
    )
    parser.add_argument("--version", action="version", version=f"cavityswap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("entangle", "single-pair Bragg interaction: populations and final pair state"),
        ("protocol", "full swap protocol: exact heralds plus sampled shots"),
        ("oracle-compare", "closed-form vs exact-ladder population table"),
        ("sweep", "one-axis parameter sweep"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--shots", type=int)
        sp.add_argument("--out", dest="output_dir", metavar="DIR")
        sp.add_argument("--g", type=float, help="vacuum Rabi frequency (recoil units)")
        sp.add_argument("--delta", type=float, help="detuning (recoil units)")
        sp.add_argument("--l0", type=int)
        sp.add_argument("--r", type=int)
        sp.add_argument("--ladder-halfwidth", dest="ladder_halfwidth", type=int)
        sp.add_argument("--time-scale", dest="time_scale", type=float)
        sp.add_argument("--detection-efficiency", dest="detection_efficiency", type=float)
        sp.add_argument("--points", type=int)
        if name == "sweep":
            sp.add_argument("--axis")
            sp.add_argument("--values", help="comma-separated axis values")
    return parser


_COMMANDS = {
    "entangle": cmd_entangle,
    "protocol": cmd_protocol,
    "oracle-compare": cmd_oracle_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
