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
import functools
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
from .metrics import POPULATION_COLUMNS, ComparisonRow, SweepSpec, oracle_compare, run_sweep
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


def load_config(path: str | None, overrides: dict, unused=()) -> dict:
    """Resolve defaults, config file, and flag overrides into one dict.

    Exactly one of the ``dimensionless`` block (g, delta in recoil units)
    and the ``physical`` block (mass_kg, wavelength_m, g_rad_per_s,
    delta_rad_per_s) must end up present; the physical block is converted
    here and nowhere else.  A config file that sets one of the ``unused``
    keys (keys the command does not read) is rejected.
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
    ignored = set(file_cfg) & set(unused)
    if ignored:
        raise ConfigError(f"config keys this command does not read: {sorted(ignored)}")
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


# Exact vectorised '%.12g' for float tables.  A finite nonzero |x| prints
# its 12 significant digits D (10^11 <= D < 10^12) and decimal exponent e.
# With e = floor(log10|x|), m = |x| * 10^(11 - e) carries two roundings (the
# power of ten, then the product), an error below 2.3e-4 at m < 10^12, so
# rint(m) is the correctly rounded D wherever m lies in [10^11, 10^12) and
# more than 1e-3 from a .5 tie (a D rounded up to 10^12 moves to exponent
# e + 1).  Every other cell takes D and e from Python's '%.11e', and zero,
# nan and inf take their '%.12g' text, so each cell reads exactly as
# '%.12g' % x.  A cell is then rendered by a template: the positions, in a
# per-cell source row, of its characters.
_CSV_BLOCK = 1024  # rows of a float table formatted at once
_CELL_WIDTH = 20  # "-1.23456789012e-308" plus the separator
# Source row: D (bytes 0-11), |e| as four digits (12-15), then these bytes;
# 28 bytes keep the row a whole number of uint32 words.
_SOURCE_TAIL = b"\0-.0e+,\nnaif"
_SOURCE_WIDTH = 16 + len(_SOURCE_TAIL)
_PAD = 16  # the NUL byte: template padding, dropped from the output
_TAIL = {chr(c): _PAD + i for i, c in enumerate(_SOURCE_TAIL)}
_POW10_MIN, _POW10_MAX = -297, 308  # the scales m needs, all normal doubles
_E_MIN, _E_MAX = -324, 308
# Template classes: fixed notation by exponent, exponent notation by the
# exponent's sign and width, then the cells printed as Python's text.
_CLASSES = (
    *(("fixed", e) for e in range(-4, 12)),
    ("exp", "+", 2), ("exp", "+", 3), ("exp", "-", 2), ("exp", "-", 3),
    ("text", 0.0), ("text", math.nan), ("text", math.inf),
)


def _class_of(e: int) -> int:
    if -4 <= e < 12:
        return e + 4
    return 16 + 2 * (e < 0) + (abs(e) >= 100)


def _template(kind: str, spec: tuple, negative: bool, kept: int) -> list:
    """Source positions of one cell's characters, separator left out; the
    first ``kept`` digits of D are significant, the rest trailing zeros."""
    if kind == "text":
        return [_TAIL[ch] for ch in "%.12g" % math.copysign(spec[0], -1.0 if negative else 1.0)]
    out = [_TAIL["-"]] if negative else []
    if kind == "exp":
        out += [0, _TAIL["."], *range(1, kept)] if kept > 1 else [0]
        out += [_TAIL["e"], _TAIL[spec[0]], *range(16 - spec[1], 16)]
    elif spec[0] >= 0:
        point = spec[0] + 1
        out += [*range(point), _TAIL["."], *range(point, kept)] if kept > point else range(point)
    else:
        out += [_TAIL["0"], _TAIL["."], *[_TAIL["0"]] * (-spec[0] - 1), *range(kept)]
    return out


@functools.lru_cache(maxsize=None)
def _float_tables():
    """Lookup tables of :func:`_format_floats`, built on first use."""
    i = np.arange(10000)
    quads = (i[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = np.sum([i % 10**k == 0 for k in range(1, 5)], axis=0)
    pow10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, _POW10_MAX + 1)])
    # Template row of a cell: 48 * class + 24 * negative + 2 * (kept - 1) + last;
    # class_row maps e - _E_MIN, then zero, nan and inf, to 48 * class.
    class_row = [48 * _class_of(e) for e in range(_E_MIN, _E_MAX + 1)] + [48 * c for c in (20, 21, 22)]
    templates = np.full((len(_CLASSES), 2, 12, 2, _CELL_WIDTH), _PAD, dtype=np.intp)
    for c, (kind, *spec) in enumerate(_CLASSES):
        for negative in (0, 1):
            for kept in range(1, 13):
                cell = _template(kind, spec, negative, kept)
                rows = templates[c, negative, kept - 1]
                rows[:, :len(cell)] = cell
                rows[:, len(cell)] = _TAIL[","], _TAIL["\n"]
    return quads, zeros, pow10, np.array(class_row), templates.reshape(-1, _CELL_WIDTH)


def _format_floats(block: np.ndarray) -> str:
    """CSV lines of a 2-D float array; each cell reads as '%.12g' % x."""
    quads, zeros, pow10, class_row, templates = _float_tables()
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    a = np.abs(x)
    regular = np.isfinite(a) & (a != 0.0)
    a = np.where(regular, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    scale = np.clip(11 - e, _POW10_MIN, _POW10_MAX)
    m = a * pow10[scale - _POW10_MIN]
    digits = np.rint(m)
    exact = (scale == 11 - e) & (m >= 1e11) & (m < 1e12) & (np.abs(m - digits) < 0.499)
    digits = digits.astype(np.int64)
    for i in np.flatnonzero(regular & ~exact).tolist():
        text = "%.11e" % a[i]
        digits[i], e[i] = int(text[0] + text[2:13]), int(text[14:])
    carry = np.flatnonzero(digits == 10**12)
    digits[carry] //= 10
    e[carry] += 1
    high, low = np.divmod(digits, 10**8)
    mid, low = np.divmod(low, 10**4)
    trailing = zeros[low]
    whole = np.flatnonzero(low == 0)
    trailing[whole] += zeros[mid[whole]] + (mid[whole] == 0) * zeros[high[whole]]
    slot = e - _E_MIN
    special = np.flatnonzero(~regular)
    slot[special] = _E_MAX - _E_MIN + 1 + np.isnan(x[special]) + 2 * np.isinf(x[special])
    key = class_row[slot] + 24 * np.signbit(x) + 2 * (11 - trailing)
    key.reshape(block.shape)[:, -1] += 1
    source = np.empty((x.size, _SOURCE_WIDTH), dtype=np.uint8)
    words = source.view(np.uint32)
    words[:, 0] = quads[high]
    words[:, 1] = quads[mid]
    words[:, 2] = quads[low]
    words[:, 3] = quads[np.abs(e)]
    source[:, _PAD:] = np.frombuffer(_SOURCE_TAIL, dtype=np.uint8)
    index = templates.take(key, axis=0)
    index += np.arange(0, source.size, _SOURCE_WIDTH)[:, None]
    chars = source.take(index)
    return chars[chars != 0].tobytes().decode("ascii")


def _write_csv(path: Path, config: dict, columns, rows) -> None:
    """Version line, config line, column names, then one line per row.

    ``rows`` is a 2-D float array, formatted ``_CSV_BLOCK`` rows at a time
    by :func:`_format_floats`, or an iterable of records, whose cells go
    through :func:`_fmt` one by one.  Either way a long table is never held
    as text in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# cavityswap {__version__}\n")
        f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        f.write(",".join(columns) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), _CSV_BLOCK):
                f.write(_format_floats(rows[start:start + _CSV_BLOCK]))
            return
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
        POPULATION_COLUMNS[:5] + ("ladder_deflected_n0",),
        np.column_stack((comp.table[:, :5], series_zero.deflected)),
    )

    final = float(comp.table[-1, POPULATION_COLUMNS.index("ladder_deflected")])
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
    _write_csv(out / "oracle_compare.csv", _config_echo(cfg, params), POPULATION_COLUMNS, comp.table)
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


def _sweep_values(values) -> tuple:
    """Axis values from comma-separated text (the flag, or a string in the
    config) or from a JSON list of numbers."""
    if not isinstance(values, str):
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise ConfigError(f"sweep values must be numbers, got {values!r}")
        return tuple(values)
    parsed = []
    for text in values.split(","):
        if not text.strip():
            continue
        try:
            parsed.append(float(text))
        except ValueError:
            raise ConfigError(f"sweep value {text.strip()!r} is not a number") from None
    return tuple(parsed)


def cmd_sweep(cfg: dict) -> int:
    params = resolve_params(cfg)
    if float(cfg["detection_efficiency"]) != 1.0:
        raise ConfigError("sweep does not apply detection_efficiency; leave it at 1")
    sweep_cfg = dict(cfg.get("sweep") or {})
    axis = cfg.get("axis") or sweep_cfg.get("axis")
    values = cfg.get("values") or sweep_cfg.get("values")
    if not axis or not values:
        raise ConfigError("sweep needs an axis and a list of values")
    try:
        spec = SweepSpec(
            axis=axis,
            values=_sweep_values(values),
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
        sp.add_argument("--out", dest="output_dir", metavar="DIR")
        sp.add_argument("--g", type=float, help="vacuum Rabi frequency (recoil units)")
        sp.add_argument("--delta", type=float, help="detuning (recoil units)")
        sp.add_argument("--l0", type=int)
        sp.add_argument("--r", type=int)
        sp.add_argument("--ladder-halfwidth", dest="ladder_halfwidth", type=int)
        sp.add_argument("--time-scale", dest="time_scale", type=float)
        if name in ("protocol", "sweep"):
            sp.add_argument("--shots", type=int)
            sp.add_argument("--detection-efficiency", dest="detection_efficiency", type=float)
        if name == "sweep":
            sp.add_argument("--axis")
            sp.add_argument(
                "--values",
                help="comma-separated axis values; when the first is negative, "
                "join with '=' (--values=-0.5,0.5)",
            )
        elif name in ("entangle", "oracle-compare"):
            sp.add_argument("--points", type=int)
    return parser


_COMMANDS = {
    "entangle": cmd_entangle,
    "protocol": cmd_protocol,
    "oracle-compare": cmd_oracle_compare,
    "sweep": cmd_sweep,
}


# Config keys a command does not read (it has no flag for them either).
# The ladder commands still take --seed: the ladder benchmark passes it.
_UNUSED_KEYS = {
    "entangle": ("shots", "detection_efficiency"),
    "protocol": ("points",),
    "oracle-compare": ("shots", "detection_efficiency"),
    "sweep": ("points",),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg = load_config(args.config, overrides, unused=_UNUSED_KEYS.get(args.command, ()))
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
