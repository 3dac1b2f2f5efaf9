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
    POPULATION_COLUMNS,
    BraggParams,
    bounded_ladder_time,
    entangled_pair_state,
    full_deflection_time,
    ladder_pair_fidelity,
    nonnegative_time_scale,
    oracle_compare,
    pair_labels,
    pendellosung_frequency,
    recoil_frequency,
)
from .metrics import ComparisonRow, run_sweep
from .swap import CLASS_NAMES, PAPER_TABLE_LABELS, PATTERN_LABELS, paper_label_divergences, run_protocol

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
        if not isinstance(value, list) or not all(map(_is_real, value)):
            raise ConfigError(f"{name} must be numbers, got {value!r}")
        return tuple(value)
    parsed = []
    for text in value.split(","):
        if not text.strip():
            continue
        try:
            number = float(text)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):  # as in a JSON list, Infinity and NaN are no numbers
            raise ConfigError(f"sweep value {text.strip()!r} is not a number")
        parsed.append(number)
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
    # sweep samples with ideal detectors.
    "detection_efficiency": Key(_real, 1.0, ("protocol",), "--detection-efficiency"),
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
# The keys each sweep axis sets in every row: the first to the row's value
# (times g on the delta_over_g axis), the rest to null, their default, so
# each row of an l0 sweep takes the default halfwidth of its l0.  The config
# records null for each.  load_config refuses a value given for any of them,
# which the rows would drop; a parameter block is given whole, so the delta
# inside one is not refused.
_AXIS_KEYS = {"delta_over_g": ("delta",), "interaction_time_scale": ("time_scale",),
              "l0": ("l0", "ladder_halfwidth"), "ladder_halfwidth": ("ladder_halfwidth",)}
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
    """The typed values of ``command``'s configuration, and its echo: the
    values as given of the top-level keys ``command`` reads, plus
    ``recoil_rad_per_s`` for a physical block.  Each artifact's config is
    this echo and the :class:`BraggParams` fields, so it records every
    input the command read, and only those (``sweep`` adds its block).

    Defaults come from :data:`CONFIG`, then the JSON file at ``path``, then
    the flag ``overrides``; each value given is read by its key's kind, the
    file's in file order, before any command runs.  A key the command does
    not read, a value for the key that a sweep's axis sets in every row,
    or two parameter blocks, are refused.  The physical block is
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
            for name, key in CONFIG.items() if not isinstance(key.kind, dict) and command in key.commands}
    if "physical" in file_cfg:
        w_rec = _checked(recoil_frequency, cfg["mass_kg"], cfg["wavelength_m"])
        cfg["g"] = cfg["g_rad_per_s"] / w_rec
        cfg["delta"] = cfg["delta_rad_per_s"] / w_rec
        echo["recoil_rad_per_s"] = w_rec
    for name, value in overrides.items():
        cfg[name] = _KEYS[name].kind(name, value)
    if command == "sweep":
        _check_sweep(cfg, given={name for name, value in {**file_cfg, **overrides}.items() if value is not None})
    return cfg, echo


def _check_sweep(cfg: dict, given: set) -> None:
    """Refuse a sweep as a whole: a value ``given`` (by flag or top-level
    file key; null, the halfwidth's default, gives none) for a key its axis
    sets, an unknown axis, no values, fractional values on an axis that
    sets a whole number, values not strictly monotone (the rows have no
    well-defined order), or no shots.  A value that fails at its row's own
    config fails only that row."""
    axis, values = cfg["axis"], cfg["values"]
    if axis == "l0" and "ladder_halfwidth" in given:
        raise ConfigError("the l0 axis gives each row the default ladder_halfwidth of its l0; "
                          "leave ladder_halfwidth unset")
    if axis not in _AXIS_KEYS:
        raise ConfigError(f"axis must be one of {tuple(_AXIS_KEYS)}, got {axis!r}")
    key = _AXIS_KEYS[axis][0]
    if key in given:
        raise ConfigError(f"the {axis} axis sets {key} in every row; leave {key} unset")
    if not values:
        raise ConfigError("sweep values must be nonempty")
    if _FLAG_TYPES.get(_KEYS[key].kind) is int:
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ConfigError(f"{axis} values must be integers, got {fractional[0]!r}")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("sweep values must be strictly monotone")
    if cfg["shots"] <= 0:
        raise ConfigError("shots must be positive")


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
# Cells whose characters are gathered at once: the gather index is intp,
# 8 bytes a character, 160 kB a chunk where a whole 1024 x 6 block's would
# be 0.94 MB.
_GATHER_CHUNK = 1024
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
    templates = np.full((len(_CLASSES), 2, 12, 2, _CELL_WIDTH), _PAD, dtype=np.uint8)
    for c, (kind, *spec) in enumerate(_CLASSES):
        for negative in (0, 1):
            for kept in range(1, 13):
                cell = _template(kind, spec, negative, kept)
                rows = templates[c, negative, kept - 1]
                rows[:, :len(cell)] = cell
                rows[:, len(cell)] = _TAIL[","], _TAIL["\n"]
    # Each character's offset to its cell's source row, over a gather chunk.
    offsets = np.repeat(_SOURCE_WIDTH * np.arange(_GATHER_CHUNK), _CELL_WIDTH).reshape(-1, _CELL_WIDTH)
    return quads, zeros, pow10, np.array(class_row), templates.reshape(-1, _CELL_WIDTH), offsets


def _format_floats(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D float array, as ASCII; each cell reads as
    '%.12g' % x.

    Each per-cell array goes once it has been used, and the characters
    are gathered ``_GATHER_CHUNK`` cells at a time, so a 1024 x 6 block
    peaks at about 0.5 MB of temporaries."""
    quads, zeros, pow10, class_row, templates, offsets = _float_tables()
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    a = np.abs(x)
    regular = np.isfinite(a) & (a != 0.0)
    a[~regular] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    scale = np.clip(11 - e, _POW10_MIN, _POW10_MAX)
    m = a * pow10[scale - _POW10_MIN]
    digits = np.rint(m)
    exact = (scale == 11 - e) & (m >= 1e11) & (m < 1e12) & (np.abs(m - digits) < 0.499)
    del a, scale, m
    digits = digits.astype(np.int64)
    for i in np.flatnonzero(regular & ~exact).tolist():
        text = "%.11e" % abs(x[i])
        digits[i], e[i] = int(text[0] + text[2:13]), int(text[14:])
    del exact
    carry = np.flatnonzero(digits == 10**12)
    digits[carry] //= 10
    e[carry] += 1
    high, low = np.divmod(digits, 10**8)
    del digits
    mid, low = np.divmod(low, 10**4)
    trailing = zeros[low]
    whole = np.flatnonzero(low == 0)
    trailing[whole] += zeros[mid[whole]] + (mid[whole] == 0) * zeros[high[whole]]
    # A cell's digits as ASCII: D in three words, then |e|.
    words = np.empty((x.size, 4), dtype=np.uint32)
    words[:, 0] = quads[high]
    words[:, 1] = quads[mid]
    words[:, 2] = quads[low]
    words[:, 3] = quads[np.abs(e)]
    del high, mid, low, whole
    slot = e - _E_MIN
    del e
    special = np.flatnonzero(~regular)
    slot[special] = _E_MAX - _E_MIN + 1 + np.isnan(x[special]) + 2 * np.isinf(x[special])
    key = class_row[slot] + 24 * np.signbit(x) + 2 * (11 - trailing)
    key.reshape(block.shape)[:, -1] += 1
    del slot, trailing
    # A chunk's source rows are its words then the tail; its characters are
    # its templates offset to those rows, in one reused index, with the
    # padding dropped.
    source = np.empty((min(x.size, _GATHER_CHUNK), _SOURCE_WIDTH), dtype=np.uint8)
    source[:, _PAD:] = np.frombuffer(_SOURCE_TAIL, dtype=np.uint8)
    index = np.empty((len(source), _CELL_WIDTH), dtype=np.intp)
    pieces = []
    for start in range(0, x.size, _GATHER_CHUNK):
        keys = key[start:start + _GATHER_CHUNK]
        n = len(keys)
        source.view(np.uint32)[:n, :4] = words[start:start + n]
        index[:n] = templates.take(keys, axis=0)
        index[:n] += offsets[:n]
        chars = source[:n].take(index[:n])
        pieces.append(chars[chars != 0].tobytes())
    del words, key, source, index
    return b"".join(pieces)


def _write_csv(path: Path, config: dict, columns, rows) -> None:
    """Version line, config line, column names, then one line per row.

    ``rows`` is an iterable of 2-D float arrays, blocks of rows formatted
    ``_CSV_BLOCK`` rows at a time by :func:`_format_floats`, or of records,
    whose cells go through :func:`_fmt` one by one.  Either way a long
    table is never held as text in memory, and a table streamed in blocks
    is never held at all.  The file is written in binary, so a block's
    bytes go out as formatted, never held as text as well.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        f.write(f"# cavityswap {__version__}\n".encode())
        f.write(("# config: " + json.dumps(config, sort_keys=True, allow_nan=False) + "\n").encode())
        f.write((",".join(columns) + "\n").encode())
        for row in rows:
            if isinstance(row, np.ndarray):
                for start in range(0, len(row), _CSV_BLOCK):
                    f.write(_format_floats(row[start:start + _CSV_BLOCK]))
            else:
                f.write((",".join(map(_fmt, row)) + "\n").encode())
            del row  # a streamed block goes before the next is computed


def _write_json(path: Path, config: dict, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {**doc, "version": __version__, "config": config}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _points(cfg: dict) -> int:
    points = cfg["points"]
    if points < 2:
        raise ConfigError(f"points must be at least 2 (the first and last time), got {points}")
    if points > 2**53:  # past it a time's index k is not exact in float64
        raise ConfigError(f"points must be at most 2**53 = {2**53}, got {points}")
    return points


def _grid_end(what: str, end: float, ladder: BraggParams | None = None) -> float:
    """``end``, the last time a command evaluates, unless it overflowed or,
    given the ``ladder`` the command propagates to it, overflows its phases."""
    if not math.isfinite(end):
        raise ConfigError(f"{what} overflows to {end!r}")
    return end if ladder is None else _checked(bounded_ladder_time, ladder, end)


def _interaction_time(params: BraggParams, ts: float, ladder: bool) -> float:
    """``ts`` full deflection times, checked by :func:`_grid_end`, against
    the phases of the ladder of ``params`` too when ``ladder`` is set."""
    return _grid_end(f"time_scale {ts!r} x the full deflection time", ts * full_deflection_time(params),
                     params if ladder else None)


_DEFLECTED = POPULATION_COLUMNS.index("ladder_deflected")

# Times per oracle_compare call of the ladder commands, which generate each
# slice's times and write its table, then drop it, before the next is
# computed, so neither a long grid nor its results are ever held at once.
# A slice's data (at most 0.8 MB traced at l0 = 4, its 196 kB table
# included) stays below the free heap glibc keeps, so slices reuse it; at
# 16384 times a 1e6-point entangle refaulted it slice after slice (12-15k
# minor faults against ~1.3k).
_LADDER_SLICE = 4096


def _grid_slices(end: float, points: int):
    """``np.linspace(0.0, end, points)`` bit for bit, in slices of
    ``_LADDER_SLICE`` times, with no array of ``points`` times: time k is
    k * (end / (points - 1)), or (k / (points - 1)) * end where that step
    underflows to 0, and the last time is ``end``."""
    div = float(points - 1)
    step = end / div
    for start in range(0, points, _LADDER_SLICE):
        times = np.arange(start, min(start + _LADDER_SLICE, points), dtype=float)
        if step == 0.0:
            times /= div
            times *= end
        else:
            times *= step
        times += 0.0  # linspace adds its start, which turns -0.0 into 0.0
        if start + _LADDER_SLICE >= points:
            times[-1] = end
        yield times


def _write_ladder_table(path: Path, config: dict, columns, params: BraggParams, end: float, points: int):
    """Write the ``columns`` of the :func:`oracle_compare` table over
    ``points`` times from 0 to ``end``, one slice of :func:`_grid_slices` at
    a time.  Returns the grid's max error, whether any slice's ladder was
    truncated, and the last slice's comparison."""
    max_error, truncated, last = -math.inf, False, None

    def tables():
        nonlocal max_error, truncated, last
        for times in _grid_slices(end, points):
            last = None  # the slice before is written; its table goes before the next is computed
            last = oracle_compare(params, times)
            max_error = float(np.maximum(max_error, last.max_error))
            truncated = truncated or last.truncation_warning
            yield last.table[:, :len(columns)]

    _write_csv(path, config, columns, tables())
    return max_error, truncated, last


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
    end = _interaction_time(params, ts, ladder=True)
    out = Path(cfg["output_dir"])
    _, truncated, last = _write_ladder_table(out / "entangle_populations.csv", config, POPULATION_COLUMNS[:5],
                                             params, end, points)
    # The grid ends at the interaction time, so its last slice ends in the pair state.
    final = float(last.table[-1, _DEFLECTED])
    fid = ladder_pair_fidelity(params, last, ts)
    _write_json(out / "entangle_state.json", config, {
        "basis": [list(lab) for lab in pair_labels(params)],
        "amplitudes": [[a.real, a.imag] for a in entangled_pair_state(params, ts)],
        "final_deflected_population": final,
        "oracle_fidelity": fid,
        "truncation_warning": truncated,
    })
    print(f"final deflected population (ladder): {_fmt(final)}")
    print(f"pair-state fidelity vs ladder: {_fmt(fid)}")
    return 0


def cmd_protocol(cfg: dict, params: BraggParams, config: dict) -> int:
    """full swap protocol: exact heralds plus sampled shots"""
    ts = cfg["time_scale"]
    _interaction_time(params, ts, ladder=False)
    heralds, sample = _checked(
        run_protocol,
        params,
        shots=cfg["shots"],
        seed=cfg["seed"],
        time_scale=ts,
        detection_efficiency=cfg["detection_efficiency"],
    )
    probs, classes, fids, concs = heralds.row(0)
    counts = sample.counts
    class_stats: dict = {}
    for k, name in enumerate(CLASS_NAMES):
        # The class's patterns, summed in pattern order.
        js = [j for j, c in enumerate(classes) if c == k]
        if not js:
            continue
        prob, ct = sum(probs[j] for j in js), sum(counts[j] for j in js)
        stats = {"probability": prob, "count": ct, "patterns": [PATTERN_LABELS[j] for j in js]}
        if prob > 0.0:
            stats["fidelity_exact"] = sum(probs[j] * fids[j] for j in js) / prob
            stats["concurrence_exact"] = sum(probs[j] * concs[j] for j in js) / prob
        if ct > 0:
            stats["fidelity_empirical"] = sum(counts[j] * fids[j] for j in js) / ct
        class_stats[name] = stats
    divergences = paper_label_divergences(heralds)

    out = Path(cfg["output_dir"])
    retained = max(sample.retained_shots, 1)
    _write_csv(
        out / "protocol_report.csv",
        config,
        ("pattern", "probability", "empirical_frequency", "classification", "paper_label",
         "fidelity", "concurrence"),
        (
            (label, prob, count / retained, CLASS_NAMES[k], PAPER_TABLE_LABELS[label], fid, c)
            for label, prob, count, k, fid, c in zip(PATTERN_LABELS, probs, counts, classes, fids, concs)
        ),
    )
    _write_json(out / "protocol_summary.json", config, {
        "shots": cfg["shots"],  # beside the retained and discarded shots, which sum to it
        "retained_shots": sample.retained_shots,
        "discarded_shots": sample.discarded_shots,
        "success_rate": sample.success_rate,
        "success_probability": sample.success_probability,
        "mean_psi_fidelity": sample.mean_psi_fidelity,
        "mean_psi_concurrence": sample.mean_psi_concurrence,
        "class_stats": class_stats,
        "paper_label_divergences": list(divergences),
        "note": (
            "herald classifications follow the bosonic mode calculation; "
            "paper_label reproduces the published click table, which disagrees "
            "on the flagged patterns"
            if divergences
            else "herald classifications agree with the published click table"
        ),
    })
    print(f"success rate: {_fmt(sample.success_rate)} (exact {_fmt(sample.success_probability)})")
    for name, stats in class_stats.items():
        if "fidelity_exact" in stats:
            print(f"  {name}: p={_fmt(stats['probability'])} fidelity={_fmt(stats['fidelity_exact'])}")
    if divergences:
        print("note: classifications diverge from the published click table on " + ", ".join(divergences))
    return 0


def cmd_oracle_compare(cfg: dict, params: BraggParams, config: dict) -> int:
    """closed-form vs exact-ladder population table"""
    points = _points(cfg)
    period = _grid_end("one Pendelloesung period", 2.0 * math.pi / pendellosung_frequency(params), params)
    max_error, truncated, _ = _write_ladder_table(Path(cfg["output_dir"]) / "oracle_compare.csv", config,
                                                  POPULATION_COLUMNS, params, period, points)
    print(f"max population error: {_fmt(max_error)}")
    if truncated:
        print("warning: ladder truncation too tight (boundary population exceeded limit)")
    return _assert_at_most("max_error", max_error, cfg["max_error"])


def _resolve_row(cfg: dict, value) -> tuple[BraggParams, float]:
    """The parameters and time scale of the sweep row at ``value``: the
    single command's at the sweep's config ``cfg`` with its axis's keys
    set, each read by its kind, and its interaction time checked as
    ``entangle`` checks it.  So a row fails, with a ConfigError, where that
    ``entangle`` would exit 1, and with its message."""
    axis = cfg["axis"]
    key, *nulls = _AXIS_KEYS[axis]
    value = float(value) * cfg["g"] if axis == "delta_over_g" else value
    row = {**cfg, **dict.fromkeys(nulls), key: _KEYS[key].kind(key, value)}
    params = resolve_params(row)
    _interaction_time(params, row["time_scale"], ladder=True)
    return params, row["time_scale"]


def cmd_sweep(cfg: dict, params: BraggParams, config: dict) -> int:
    """one-axis parameter sweep"""
    rows = run_sweep(cfg["values"], functools.partial(_resolve_row, cfg), cfg["shots"], cfg["seed"]).rows
    config.update({"sweep": {"axis": cfg["axis"], "values": list(cfg["values"])},
                   **dict.fromkeys(_AXIS_KEYS[cfg["axis"]])})
    out = Path(cfg["output_dir"])
    _write_csv(out / "sweep.csv", config, ComparisonRow._fields, rows)
    _write_json(out / "sweep_manifest.json", config,
                {"row_errors": {str(row.value): row.error for row in rows if row.error}})
    for row in rows:
        if row.error:
            print(f"row {_fmt(row.value)} failed: {row.error}")
    max_abs_error = max((row.abs_error for row in rows if not row.error), default=math.nan)
    return _assert_at_most("max abs_error", max_abs_error, cfg["max_error"])


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
    """The ``cavityswap`` console script and ``python -m cavityswap.cli``."""
    # numpy.random loads OpenSSL's libcrypto (3.3 MB of resident memory)
    # through numpy.random.bit_generator -> secrets -> hmac -> _hashlib, for
    # hashes no command computes.  Marked unavailable, hashlib and hmac fall
    # back to CPython's built-in digests; SeedSequence, PCG64 and multinomial
    # never hash, so every draw stays the same.  setdefault keeps a _hashlib
    # already loaded (numpy < 2 imports numpy.random with numpy), and only
    # this entry point does it: importing the package or calling main()
    # leaves the process's hashlib as it is.
    sys.modules.setdefault("_hashlib", None)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
