"""Closed-form vs ladder comparison tables and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
from typing import NamedTuple

import numpy as np

from .bragg import (
    BraggParams,
    analytic_amplitudes,
    full_deflection_time,
    ladder_population_series,
)
from .swap import run_protocol

__all__ = [
    "wilson_interval",
    "PopulationRow",
    "PopulationComparison",
    "oracle_compare",
    "SWEEP_AXES",
    "SweepSpec",
    "ComparisonRow",
    "SweepResult",
    "run_sweep",
]

SWEEP_AXES = ("delta_over_g", "interaction_time_scale", "l0", "ladder_halfwidth")


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


class PopulationRow(NamedTuple):
    """One ``oracle_compare.csv`` row; the field names are its columns."""

    time: float
    analytic_undeflected: float
    analytic_deflected: float
    ladder_undeflected: float
    ladder_deflected: float
    error: float


@dataclass(frozen=True)
class PopulationComparison:
    """Closed-form vs exact-ladder populations along a time grid."""

    params: BraggParams
    rows: tuple
    max_error: float
    truncation_warning: bool


def oracle_compare(p: BraggParams, times) -> PopulationComparison:
    """Closed-form populations against the exact ladder, time by time."""
    series = ladder_population_series(p, times)
    rows = []
    for t, lu, ld in zip(series.times, series.undeflected, series.deflected):
        c_plus, c_minus = analytic_amplitudes(p, t)
        au, ad = abs(c_plus) ** 2, abs(c_minus) ** 2
        rows.append(PopulationRow(t, au, ad, lu, ld, max(abs(au - lu), abs(ad - ld))))
    max_error = max((row.error for row in rows), default=0.0)
    return PopulationComparison(p, tuple(rows), max_error, series.truncation_warning)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep over protocol parameters.

    ``axis`` picks what the values mean; the base parameters, shot count
    and seed are shared by every row.  Values must be strictly monotone so
    rows have a well-defined order.  The shared ``time_scale`` must be
    nonnegative; a negative value on the ``interaction_time_scale`` axis
    fails only its own row.
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
        diffs = [b - a for a, b in zip(values, values[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep values must be strictly monotone")
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if self.time_scale < 0.0:
            raise ValueError(f"time_scale must be nonnegative, got {self.time_scale!r}")
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


def _row_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate one ComparisonRow per value, recording failures in place.

    Rows are independent and seeded by index, so the result is
    deterministic for a given spec and rows may be computed in parallel
    and merged by position.
    """
    rows = []
    for i, value in enumerate(spec.values):
        try:
            params, ts = _row_params(spec, value)
            one = params.with_photons(1)
            final = oracle_compare(one, [ts * full_deflection_time(one)]).rows[0]
            report = run_protocol(params, spec.shots, _row_seed(spec.seed, i), time_scale=ts)
            successes = round(report.success_rate * report.retained_shots)
            low, high = wilson_interval(successes, report.retained_shots)
            rows.append(
                ComparisonRow(
                    value=float(value),
                    analytic_deflected=final.analytic_deflected,
                    ladder_deflected=final.ladder_deflected,
                    abs_error=abs(final.analytic_deflected - final.ladder_deflected),
                    success_rate=report.success_rate,
                    success_low=low,
                    success_high=high,
                    mean_psi_fidelity=report.mean_psi_fidelity,
                )
            )
        except ValueError as exc:  # domain errors of a row are data, not crashes
            rows.append(
                ComparisonRow(
                    value=float(value),
                    analytic_deflected=math.nan,
                    ladder_deflected=math.nan,
                    abs_error=math.nan,
                    success_rate=math.nan,
                    success_low=math.nan,
                    success_high=math.nan,
                    mean_psi_fidelity=math.nan,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return SweepResult(spec, tuple(rows))
