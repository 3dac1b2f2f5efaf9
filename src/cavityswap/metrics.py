"""Parameter sweeps and the Wilson interval of their success rates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bragg import full_deflection_time, oracle_compare
from .swap import branch_pair, herald_batch, sample_protocol

__all__ = [
    "wilson_interval",
    "ComparisonRow",
    "SweepResult",
    "run_sweep",
]


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
    """A sweep's rows, in the order of its values."""

    rows: tuple


def _row_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _failed_row(value, exc: ValueError) -> ComparisonRow:
    nan = math.nan
    return ComparisonRow(float(value), nan, nan, nan, nan, nan, nan, nan, str(exc))


def run_sweep(values, resolve, shots: int, seed: int) -> SweepResult:
    """Evaluate one ComparisonRow per value, recording failures in place.

    ``resolve(value)`` gives a row's parameters and interaction-time scale,
    or raises a ``ValueError``, whose message becomes that row's ``error``;
    any other exception propagates.  The whole sweep is then one array
    pass.  The ladder columns come from one :func:`oracle_compare` per
    ladder layout: rows that share a Hamiltonian share its times, and
    distinct Hamiltonians of one layout with as many times each are
    propagated as one stack (a time gives the same bits alone, inside a
    grid or inside a stack).  The herald statistics of all rows come from
    one :func:`~cavityswap.swap.herald_batch`; each row then draws its own
    ``shots`` counts, seeded by the ``SeedSequence`` spawned from ``seed``
    at its index, so the result is deterministic and every row equals a
    direct :func:`~cavityswap.swap.run_protocol` run with that seed.
    """
    rows: list = [None] * len(values)
    pairs: dict = {}  # index -> branch amplitudes, in index order
    groups: dict = {}  # params -> [(index, time)]
    for i, value in enumerate(values):
        try:
            params, ts = resolve(value)
        except ValueError as exc:  # domain errors of a row are data, not crashes
            rows[i] = _failed_row(value, exc)
            continue
        pairs[i] = branch_pair(params, ts)
        groups.setdefault(params, []).append((i, ts * full_deflection_time(params)))
    stacks: dict = {}  # (l0, ladder halfwidth, times per Hamiltonian) -> params
    for params, members in groups.items():
        stacks.setdefault((params.l0, params.ladder_halfwidth, len(members)), []).append(params)
    columns: dict = {}  # index -> (analytic, ladder) deflected population
    for stack in stacks.values():
        comparisons = oracle_compare(stack, [[t for _, t in groups[params]] for params in stack])
        for params, comparison in zip(stack, comparisons):
            for (i, _), (_, _, analytic, _, ladder, _) in zip(groups[params], comparison.table.tolist()):
                columns[i] = (analytic, ladder)
    heralds = herald_batch(list(pairs.values()))
    for r, i in enumerate(pairs):
        analytic, ladder = columns[i]
        sample = sample_protocol(heralds, r, shots, _row_seed(seed, i))
        low, high = wilson_interval(sample.successes, sample.retained_shots)
        rows[i] = ComparisonRow(
            value=float(values[i]),
            analytic_deflected=analytic,
            ladder_deflected=ladder,
            abs_error=abs(analytic - ladder),
            success_rate=sample.success_rate,
            success_low=low,
            success_high=high,
            mean_psi_fidelity=sample.mean_psi_fidelity,
        )
    return SweepResult(tuple(rows))
