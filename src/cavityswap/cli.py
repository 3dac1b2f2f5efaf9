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
import numbers
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bragg import (
    BraggParams,
    entangled_pair_state,
    full_deflection_time,
    nonnegative_time_scale,
    pair_labels,
    pair_oracle_fidelity,
    pendellosung_frequency,
    recoil_frequency,
)
from .metrics import POPULATION_COLUMNS, ComparisonRow, SweepSpec, oracle_compare, run_sweep
from .swap import CLASS_NAMES, PAPER_TABLE_LABELS, PATTERN_LABELS, run_protocol

__all__ = ["main", "run", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; reported on stderr with exit code 1."""


def _checked(check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ValueError (a domain check's) raised
    as a ConfigError."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Kinds: each reads one value, from the config file or a flag, and returns
# it typed or raises a ConfigError naming it.


def _is_number(value) -> bool:
    # A JSON integer beyond the float range is no number here: float() of it overflows.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _is_real(value) -> bool:
    # JSON has no Infinity or NaN, so they are not numbers here.
    return _is_number(value) and math.isfinite(value)


def _whole(name: str, value) -> int:
    """Whole numbers pass (4 or 4.0); fractions, bools and text do not."""
    if not (_is_number(value) and float(value).is_integer()):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _whole_or_null(name: str, value):
    return None if value is None else _whole(name, value)


def _real(name: str, value) -> float:
    if not _is_real(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _time_scale(name: str, value) -> float:
    """A number that ``nonnegative_time_scale`` accepts: it refuses the
    negative and non-finite ones, with its own messages; anything else
    gets the error of :func:`_real`."""
    return _checked(nonnegative_time_scale, value if _is_number(value) else _real(name, value))


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be text, got {value!r}")
    return value


def _numbers(name: str, value) -> tuple:
    """A JSON list of numbers, or comma-separated text as ``--values``
    gives it."""
    if not isinstance(value, str):
        if not isinstance(value, list) or not all(map(_is_number, value)):
            raise ConfigError(f"{name} must be numbers, got {value!r}")
        return tuple(value)
    parsed = []
    for text in value.split(","):
        if not text.strip():
            continue
        try:
            parsed.append(float(text))
        except ValueError:
            raise ConfigError(f"sweep value {text.strip()!r} is not a number") from None
    return tuple(parsed)


_FLAG_TYPES = {_whole: int, _whole_or_null: int, _real: float, _time_scale: float}  # else text
_ALL = ("entangle", "protocol", "oracle-compare", "sweep")


class Key(NamedTuple):
    """A config key: its kind, its default, the commands that read it and
    its flag.  A block's kind is the dict of its inner keys, which are read
    by the block's commands and default to their own defaults."""

    kind: object
    default: object = None
    commands: tuple = _ALL
    flag: str | None = None
    help: str | None = None
    metavar: str | None = None


# The config table, in flag order.  A command has the flags of the keys it
# reads, and a config file that sets any other key is refused; a block may
# hold only its inner keys.  A flag wins over the file, inside a block too.
CONFIG = {
    # entangle and oracle-compare draw nothing; they take --seed while the ladder benchmark passes it.
    "seed": Key(_whole, 1, flag="--seed"),
    "output_dir": Key(_text, "out", flag="--out", metavar="DIR"),
    "dimensionless": Key({
        "g": Key(_real, 1.0, flag="--g", help="vacuum Rabi frequency (recoil units)"),
        "delta": Key(_real, 100.0, flag="--delta", help="detuning (recoil units)"),
    }),
    "l0": Key(_whole, 2, flag="--l0"),
    "r": Key(_whole, 1, flag="--r"),
    "ladder_halfwidth": Key(_whole_or_null, None, flag="--ladder-halfwidth"),
    # oracle-compare spans one Pendelloesung period, whatever the time scale.
    "time_scale": Key(_time_scale, 1.0, ("entangle", "protocol", "sweep"), "--time-scale"),
    "shots": Key(_whole, 100_000, ("protocol", "sweep"), "--shots"),
    "detection_efficiency": Key(_real, 1.0, ("protocol", "sweep"), "--detection-efficiency"),
    "sweep": Key({
        "axis": Key(_text, flag="--axis"),
        "values": Key(_numbers, (), flag="--values", help="comma-separated axis values; when the first is "
                      "negative, join with '=' (--values=-0.5,0.5)"),
    }, commands=("sweep",)),
    # protocol and sweep have no time grid.
    "points": Key(_whole, 161, ("entangle", "oracle-compare"), "--points"),
    # Converted to recoil units once, at load, in place of 'dimensionless'.
    "physical": Key({name: Key(_real) for name in ("mass_kg", "wavelength_m", "g_rad_per_s", "delta_rad_per_s")}),
    # Only oracle-compare and sweep check an assertion.
    "assert": Key({"max_error": Key(_real)}, commands=("oracle-compare", "sweep")),
}
_PARAMETER_BLOCKS = ("dimensionless", "physical")  # exactly one in effect, each given whole
# Every key by the name the commands read it under, an inner key of a block
# with its block's commands.
_KEYS = {
    name: key._replace(commands=row.commands)
    for top, row in CONFIG.items()
    for name, key in (row.kind.items() if isinstance(row.kind, dict) else [(top, row)])
}


def _read_block(name: str, block) -> dict:
    """The inner keys of config block ``name``, each read by its kind."""
    keys = CONFIG[name].kind
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in config block {name!r}: {sorted(unknown)}")
    # A parameter block is a whole set of numbers; any other block must
    # hold the inner keys that no flag can set.
    missing = {k for k, key in keys.items() if name in _PARAMETER_BLOCKS or key.flag is None} - set(block)
    if missing:
        raise ConfigError(f"{name} block is missing {sorted(missing)}")
    if name in _PARAMETER_BLOCKS:
        wrong = [k for k in keys if not _is_real(block[k])]
        if wrong:
            raise ConfigError(f"{name} block values must be numbers: {wrong}")
    return {k: keys[k].kind(f"{name} {k}", v) for k, v in block.items()}


def load_config(command: str, path: str | None, overrides: dict) -> tuple[dict, dict]:
    """The typed values of ``command``'s configuration, and the values of
    its top-level keys as given, which the artifacts echo.

    Defaults come from :data:`CONFIG`, then the JSON file at ``path``, then
    the flag ``overrides``; each value given is read by its key's kind, the
    file's in file order, before any command runs.  A key the command does
    not read, or two parameter blocks, are refused.  The physical block is
    converted to recoil units here and nowhere else.
    """
    file_cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(p.read_text())
        except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python reads
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - set(CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    unread = {key for key in file_cfg if command not in CONFIG[key].commands}
    if unread:
        raise ConfigError(f"config keys this command does not read: {sorted(unread)}")
    if set(_PARAMETER_BLOCKS) <= set(file_cfg):
        raise ConfigError("config must carry exactly one of 'dimensionless' and 'physical'")

    cfg = {name: key.default for name, key in _KEYS.items()}
    for name, value in file_cfg.items():
        cfg.update(_read_block(name, value) if isinstance(CONFIG[name].kind, dict)
                   else {name: CONFIG[name].kind(name, value)})
    echo = {name: overrides.get(name, file_cfg.get(name, key.default))
            for name, key in CONFIG.items() if not isinstance(key.kind, dict)}
    if "physical" in file_cfg:
        w_rec = _checked(recoil_frequency, cfg["mass_kg"], cfg["wavelength_m"])
        cfg["g"] = cfg["g_rad_per_s"] / w_rec
        cfg["delta"] = cfg["delta_rad_per_s"] / w_rec
        echo["recoil_rad_per_s"] = w_rec
    for name, value in overrides.items():
        cfg[name] = _KEYS[name].kind(name, value)
    return cfg, echo


def resolve_params(cfg: dict) -> BraggParams:
    """The Bragg parameters of a config, whose keys bear the field names."""
    return _checked(BraggParams, **{field.name: cfg[field.name] for field in fields(BraggParams)})


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

    ``rows`` is an iterable of 2-D float arrays, blocks of rows formatted
    ``_CSV_BLOCK`` rows at a time by :func:`_format_floats`, or of records,
    whose cells go through :func:`_fmt` one by one; a 2-D float array is
    one block.  Either way a long table is never held as text in memory,
    and a table streamed in blocks is never held at all.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# cavityswap {__version__}\n")
        f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        f.write(",".join(columns) + "\n")
        for row in (rows,) if isinstance(rows, np.ndarray) else rows:
            if isinstance(row, np.ndarray):
                for start in range(0, len(row), _CSV_BLOCK):
                    f.write(_format_floats(row[start:start + _CSV_BLOCK]))
            else:
                f.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path: Path, config: dict, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {**doc, "version": __version__, "config": config}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _points(cfg: dict) -> int:
    points = cfg["points"]
    if points < 2:
        raise ConfigError(f"points must be at least 2 (the first and last time), got {points}")
    return points


def _grid_end(what: str, end: float) -> float:
    """``end``, the last time a command evaluates, unless it overflowed."""
    if not math.isfinite(end):
        raise ConfigError(f"{what} overflows to {end!r}")
    return end


_DEFLECTED = POPULATION_COLUMNS.index("ladder_deflected")

# Times per oracle_compare call of the ladder commands, which write each
# slice's table before the next is computed, so a long grid's results are
# never held at once.  A slice's temporaries (~1.5 MB) stay below the free
# heap glibc keeps, so slices reuse it; at 16384 times a 1e6-point entangle
# refaulted it slice after slice (12-15k minor faults against ~1.3k).
_LADDER_SLICE = 4096


def _ladder_tables(params: BraggParams, times: np.ndarray, seen: list):
    """The table of :func:`oracle_compare` on each slice of ``_LADDER_SLICE``
    times, while ``seen`` collects its max error, truncation flag and last
    ladder-deflected population."""
    for start in range(0, len(times), _LADDER_SLICE):
        comp = oracle_compare(params, times[start:start + _LADDER_SLICE])
        seen.append((comp.max_error, comp.truncation_warning, float(comp.table[-1, _DEFLECTED])))
        yield comp.table


def _assert_at_most(what: str, value: float, limit) -> int:
    """Exit code 2, said on stderr, unless ``value`` is at most the
    ``assert`` block's ``limit`` (a NaN value fails); 0 without a limit."""
    if limit is None or value <= limit:
        return 0
    print(f"assertion failed: {what} {_fmt(value)} exceeds {_fmt(limit)}", file=sys.stderr)
    return 2


def cmd_entangle(cfg: dict, params: BraggParams, config: dict) -> int:
    """single-pair Bragg interaction: populations and final pair state"""
    ts = cfg["time_scale"]
    points = _points(cfg)
    end = _grid_end(f"time_scale {ts!r} x the full deflection time", ts * full_deflection_time(params))
    out = Path(cfg["output_dir"])
    seen: list = []
    tables = _ladder_tables(params, np.linspace(0.0, end, points), seen)
    _write_csv(out / "entangle_populations.csv", config, POPULATION_COLUMNS[:5],
               (table[:, :5] for table in tables))

    final = seen[-1][2]
    pair = entangled_pair_state(params, ts)
    fid, warn = pair_oracle_fidelity(params, ts)
    _write_json(out / "entangle_state.json", config, {
        "basis": [list(lab) for lab in pair_labels(params)],
        "amplitudes": [[a.real, a.imag] for a in pair],
        "final_deflected_population": final,
        "oracle_fidelity": fid,
        "truncation_warning": bool(warn or any(flag for _, flag, _ in seen)),
    })
    print(f"final deflected population (ladder): {_fmt(final)}")
    print(f"pair-state fidelity vs ladder: {_fmt(fid)}")
    return 0


def cmd_protocol(cfg: dict, params: BraggParams, config: dict) -> int:
    """full swap protocol: exact heralds plus sampled shots"""
    ts = cfg["time_scale"]
    _grid_end(f"time_scale {ts!r} x the full deflection time", ts * full_deflection_time(params))
    report = _checked(
        run_protocol,
        params,
        shots=cfg["shots"],
        seed=cfg["seed"],
        time_scale=ts,
        detection_efficiency=cfg["detection_efficiency"],
    )
    out = Path(cfg["output_dir"])
    retained = max(report.retained_shots, 1)
    probs, classes, fids, concs = report.heralds.row(0)
    _write_csv(
        out / "protocol_report.csv",
        config,
        ("pattern", "probability", "empirical_frequency", "classification", "paper_label",
         "fidelity", "concurrence"),
        (
            (label, prob, count / retained, CLASS_NAMES[k], PAPER_TABLE_LABELS[label], fid, c)
            for label, prob, count, k, fid, c in zip(PATTERN_LABELS, probs, report.counts, classes, fids, concs)
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


def cmd_oracle_compare(cfg: dict, params: BraggParams, config: dict) -> int:
    """closed-form vs exact-ladder population table"""
    points = _points(cfg)
    period = _grid_end("one Pendelloesung period", 2.0 * math.pi / pendellosung_frequency(params))
    out = Path(cfg["output_dir"])
    seen: list = []
    _write_csv(out / "oracle_compare.csv", config, POPULATION_COLUMNS,
               _ladder_tables(params, np.linspace(0.0, period, points), seen))
    max_error = float(np.max([error for error, _, _ in seen]))
    print(f"max population error: {_fmt(max_error)}")
    if any(flag for _, flag, _ in seen):
        print("warning: ladder truncation too tight (boundary population exceeded limit)")
    return _assert_at_most("max_error", max_error, cfg["max_error"])


def cmd_sweep(cfg: dict, params: BraggParams, config: dict) -> int:
    """one-axis parameter sweep"""
    if cfg["detection_efficiency"] != 1.0:
        raise ConfigError("sweep does not apply detection_efficiency; leave it at 1")
    spec = _checked(
        SweepSpec,
        axis=cfg["axis"],
        values=cfg["values"],
        base=params,
        shots=cfg["shots"],
        seed=cfg["seed"],
        time_scale=cfg["time_scale"],
    )
    result = run_sweep(spec)
    config["sweep"] = {"axis": spec.axis, "values": list(spec.values)}
    out = Path(cfg["output_dir"])
    _write_csv(out / "sweep.csv", config, ComparisonRow._fields, result.rows)
    _write_json(out / "sweep_manifest.json", config, result.manifest())
    for row in result.rows:
        if row.error:
            print(f"row {_fmt(row.value)} failed: {row.error}")
    return _assert_at_most("max abs_error", result.max_abs_error, cfg["max_error"])


# Each command's docstring is its help text.
_COMMANDS = {
    "entangle": cmd_entangle,
    "protocol": cmd_protocol,
    "oracle-compare": cmd_oracle_compare,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityswap",
        description="Cavity entanglement swapping via atomic Bragg diffraction",
    )
    parser.add_argument("--version", action="version", version=f"cavityswap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.__doc__)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        for dest, key in _KEYS.items():
            if key.flag and name in key.commands:
                sp.add_argument(key.flag, dest=dest, type=_FLAG_TYPES.get(key.kind), help=key.help,
                                metavar=key.metavar)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg, echo = load_config(args.command, args.config, overrides)
        params = resolve_params(cfg)
        return _COMMANDS[args.command](cfg, params, {**echo, **asdict(params)})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
