"""Closed-form vs ladder comparison tables and parameter sweeps."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict, replace
from typing import NamedTuple

import numpy as np

from .bragg import (
    BraggParams,
    analytic_amplitudes,
    full_deflection_time,
    ladder_population_series,
    nonnegative_time_scale,
    nonnegative_times,
)
from .swap import branch_pair, herald_batch, sample_protocol

__all__ = [
    "wilson_interval",
    "POPULATION_COLUMNS",
    "PopulationComparison",
    "oracle_compare",
    "SWEEP_AXES",
    "SweepSpec",
    "ComparisonRow",
    "SweepResult",
    "run_sweep",
]

SWEEP_AXES = ("delta_over_g", "interaction_time_scale", "l0", "ladder_halfwidth")
_INTEGER_AXES = ("l0", "ladder_halfwidth")


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and behaves sensibly near 0 and 1, which is why it
    is used for empirical frequencies throughout.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2n = z * z / trials
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    return max(0.0, center - half), min(1.0, center + half)


# Columns of PopulationComparison.table, and of ``oracle_compare.csv``.
POPULATION_COLUMNS = (
    "time",
    "analytic_undeflected",
    "analytic_deflected",
    "ladder_undeflected",
    "ladder_deflected",
    "error",
)


@dataclass(frozen=True)
class PopulationComparison:
    """Closed-form vs exact-ladder populations along a time grid.

    ``table`` holds one row per time and one column per name in
    :data:`POPULATION_COLUMNS`.
    """

    params: BraggParams
    table: np.ndarray
    max_error: float
    truncation_warning: bool


def _population(z: np.ndarray) -> np.ndarray:
    # |z|^2 rounded exactly as Python's abs(z) ** 2: hypot, then pow(x, 2),
    # which is not always the x * x that np.abs(z) ** 2 computes.
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _comparison(series) -> PopulationComparison:
    c_plus, c_minus = analytic_amplitudes(series.params, series.times)
    au, ad = _population(c_plus), _population(c_minus)
    error = np.maximum(np.abs(au - series.undeflected), np.abs(ad - series.deflected))
    table = np.column_stack((series.times, au, ad, series.undeflected, series.deflected, error))
    max_error = float(np.max(error, initial=0.0))
    return PopulationComparison(series.params, table, max_error, series.truncation_warning)


def oracle_compare(p, times):
    """Closed-form populations against the exact ladder along ``times``.

    ``p`` and ``times`` may also be a stack of G parameter sets on one
    ladder layout and a (G, T) grid, as for
    :func:`~cavityswap.bragg.ladder_population_series`; the ladder is then
    propagated for all of them at once, and a tuple of G comparisons is
    returned, each bitwise equal to the comparison of its own call.
    """
    series = ladder_population_series(p, times)
    if isinstance(p, BraggParams):
        return _comparison(series)
    return tuple(map(_comparison, series))


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep over protocol parameters.

    ``axis`` picks what the values mean; the base parameters, shot count
    and seed are shared by every row.  Values must be real numbers (not
    bools, strings or None), strictly monotone so rows have a well-defined
    order, and whole numbers on the integer axes (``l0``,
    ``ladder_halfwidth``).  The shared ``time_scale`` must be finite and
    nonnegative; a negative or non-finite value on the
    ``interaction_time_scale`` axis fails only its own row, before its
    ladder runs.
    """

    axis: str
    values: tuple
    base: BraggParams
    shots: int
    seed: int
    time_scale: float = 1.0

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"sweep value {v!r} is not a number")
        if self.axis in _INTEGER_AXES:
            fractional = [v for v in values if not float(v).is_integer()]
            if fractional:
                raise ValueError(f"{self.axis} values must be integers, got {fractional[0]!r}")
        diffs = [b - a for a, b in zip(values, values[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep values must be strictly monotone")
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        nonnegative_time_scale(self.time_scale)
        object.__setattr__(self, "values", values)


class ComparisonRow(NamedTuple):
    """One ``sweep.csv`` row; the field names are its columns."""

    value: float
    analytic_deflected: float
    ladder_deflected: float
    abs_error: float
    success_rate: float
    success_low: float
    success_high: float
    mean_psi_fidelity: float
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple

    def manifest(self) -> dict:
        return {
            "axis": self.spec.axis,
            "values": list(self.spec.values),
            "base": asdict(self.spec.base),
            "shots": self.spec.shots,
            "seed": self.spec.seed,
            "time_scale": self.spec.time_scale,
            "row_errors": {str(r.value): r.error for r in self.rows if r.error},
        }

    @property
    def max_abs_error(self) -> float:
        errors = [r.abs_error for r in self.rows if not r.error]
        return max(errors) if errors else math.nan


def _row_params(spec: SweepSpec, value) -> tuple[BraggParams, float]:
    base = spec.base
    if spec.axis == "delta_over_g":
        return replace(base, delta=float(value) * base.g), spec.time_scale
    if spec.axis == "interaction_time_scale":
        return base, float(value)
    if spec.axis == "l0":
        return replace(base, l0=int(value), ladder_halfwidth=None), spec.time_scale
    return replace(base, ladder_halfwidth=int(value)), spec.time_scale


def _row_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _failed_row(value, exc: ValueError) -> ComparisonRow:
    nan = math.nan
    return ComparisonRow(float(value), nan, nan, nan, nan, nan, nan, nan, f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate one ComparisonRow per value, recording failures in place.

    The whole sweep is one array pass.  Each row is first resolved to its
    parameters and interaction time.  The ladder columns then come from one
    :func:`oracle_compare` per ladder layout: rows that share a Hamiltonian
    share its times, and distinct Hamiltonians of one layout with as many
    times each are propagated as one stack (a time gives the same bits
    alone, inside a grid or inside a stack).  The herald statistics of all
    rows come from one :func:`~cavityswap.swap.herald_batch`; each row then
    draws its own counts, seeded by the ``SeedSequence`` spawned from the
    spec's seed at its index, so the result is deterministic for a given
    spec and every row equals a direct :func:`~cavityswap.swap.run_protocol`
    run with that seed.  Domain errors (``ValueError``) of a row become that
    row's ``error``; anything else propagates.
    """
    rows: list = [None] * len(spec.values)
    resolved: dict = {}  # index -> (params, time scale), in index order
    groups: dict = {}  # params -> [(index, time)]
    for i, value in enumerate(spec.values):
        try:
            params, ts = _row_params(spec, value)
            t = ts * full_deflection_time(params)
            nonnegative_times([t])
        except ValueError as exc:  # domain errors of a row are data, not crashes
            rows[i] = _failed_row(value, exc)
            continue
        resolved[i] = (params, ts)
        groups.setdefault(params, []).append((i, t))
    stacks: dict = {}  # (l0, ladder halfwidth, times per Hamiltonian) -> params
    for params, members in groups.items():
        stacks.setdefault((params.l0, params.ladder_halfwidth, len(members)), []).append(params)
    columns: dict = {}  # index -> (analytic, ladder) deflected population
    for stack in stacks.values():
        comparisons = oracle_compare(stack, [[t for _, t in groups[params]] for params in stack])
        for params, comparison in zip(stack, comparisons):
            for (i, _), (_, _, analytic, _, ladder, _) in zip(groups[params], comparison.table.tolist()):
                columns[i] = (analytic, ladder)
    heralds = herald_batch([branch_pair(params, ts) for params, ts in resolved.values()])
    for r, i in enumerate(resolved):
        analytic, ladder = columns[i]
        sample = sample_protocol(heralds, r, spec.shots, _row_seed(spec.seed, i))
        successes = round(sample.success_rate * sample.retained_shots)
        low, high = wilson_interval(successes, sample.retained_shots)
        rows[i] = ComparisonRow(
            value=float(spec.values[i]),
            analytic_deflected=analytic,
            ladder_deflected=ladder,
            abs_error=abs(analytic - ladder),
            success_rate=sample.success_rate,
            success_low=low,
            success_high=high,
            mean_psi_fidelity=sample.mean_psi_fidelity,
        )
    return SweepResult(spec, tuple(rows))
