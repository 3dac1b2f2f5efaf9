"""The four benchmark workloads: what each invocation runs and how its
artifacts are checked.

Every workload is a fixed list of invocations that the runner repeats in
rounds.  An invocation names the program (the ``cavityswap`` CLI or the
oracle driver), its arguments, the artifacts it must write, the units of
work it does and a check over its output directory.  A check returns a list
of failure messages plus observations (numbers the runner reports).

Why these workloads:

* ``shots`` -- sampling-bound ``protocol`` runs; the exact herald path runs
  once per invocation and the Bragg layer does no work.
* ``ladder`` -- dense-grid ``entangle`` and ``oracle-compare``; time goes to
  ladder propagation, the per-point closed forms and CSV formatting, and the
  sampler does no work.
* ``sweep`` -- hundreds of rows with few shots; the exact herald path, one
  long-time propagator and the sweep's fixed cost are paid per row.
* ``oracles`` -- the brute-force oracles no CLI command calls (two-manifold
  model, Taylor ``expm`` at the nominal time, bosonic Bell identity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Sampled artifacts repeat byte for byte within a run, so each seed is one
# draw: at 5 sigma a false alarm is ~6e-7 per seed, while a sampler biased
# by 1e-3 at 1e7 shots still fails.
WILSON_Z = 5.0
DETECTION_EFFICIENCY = 0.9
ORACLE_MAX_ERROR = 0.02

# Grid of the oracle driver (bench/oracles.py); each point runs four checks.
ORACLE_L0 = (2, 4, 6)
ORACLE_R = (1, 3)
ORACLE_ARTIFACT = "oracles.json"
CHECKS_PER_ORACLE_POINT = 4


@dataclass(frozen=True)
class Invocation:
    key: str
    program: str
    argv: tuple
    artifacts: tuple
    work: int
    check: Callable[[Path], tuple]
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    invocations: tuple


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple:
    """Wilson score interval; computed here so the check does not rely on
    the code under test."""
    phat = successes / trials
    z2n = z * z / trials
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    return center - half, center + half


def csv_rows(path: Path):
    """Yield the data rows of a CSV artifact, skipping '#' comment lines and
    the column header.

    Rows are streamed: the runner's own peak memory must stay below its
    children's, because a child's peak RSS as the kernel reports it
    includes the runner's peak at the time of the fork.
    """
    with open(path) as f:
        lines = (ln.rstrip("\n") for ln in f if not ln.startswith("#"))
        next(lines, None)
        for ln in lines:
            yield ln.split(",")


def count_rows(path: Path) -> int:
    return sum(1 for _ in csv_rows(path))


def _check_protocol(shots: int, efficiency: float) -> Callable:
    def check(out: Path) -> tuple:
        s = json.loads((out / "protocol_summary.json").read_text())
        fails = []
        if abs(s["success_probability"] - 0.5) > 1e-12:
            fails.append(f"success_probability {s['success_probability']!r} is not 0.5")
        retained, discarded = s["retained_shots"], s["discarded_shots"]
        if s["shots"] != shots or retained + discarded != shots:
            fails.append(f"retained {retained} + discarded {discarded} != shots {shots}")
        successes = sum(s["class_stats"].get(c, {}).get("count", 0) for c in ("psi_plus", "psi_minus"))
        low, high = wilson(successes, max(retained, 1))
        if not low <= s["success_probability"] <= high:
            fails.append(f"sampled success rate {successes}/{retained} excludes 0.5")
        low, high = wilson(discarded, shots)
        if not low <= 1.0 - efficiency**2 <= high:
            fails.append(f"discarded {discarded}/{shots} excludes 1 - eta^2")
        if count_rows(out / "protocol_report.csv") != 10:
            fails.append("protocol_report.csv does not hold the 10 click patterns")
        return fails, {}

    return check


def _check_entangle(points: int, min_final: float | None) -> Callable:
    def check(out: Path) -> tuple:
        fails = []
        rows = count_rows(out / "entangle_populations.csv")
        if rows != points:
            fails.append(f"entangle_populations.csv has {rows} rows, expected {points}")
        final = json.loads((out / "entangle_state.json").read_text())["final_deflected_population"]
        if min_final is not None and not final >= min_final:
            fails.append(f"final deflected population {final!r} < {min_final}")
        return fails, {}

    return check


def _check_oracle_compare(points: int, report_error: bool) -> Callable:
    def check(out: Path) -> tuple:
        rows, max_error = 0, 0.0
        for row in csv_rows(out / "oracle_compare.csv"):
            rows += 1
            max_error = max(max_error, float(row[5]))
        fails = [] if rows == points else [f"oracle_compare.csv has {rows} rows, expected {points}"]
        return fails, {"oracle_max_error": max_error} if report_error else {}

    return check


def _check_sweep(values: int) -> Callable:
    def check(out: Path) -> tuple:
        fails = []
        errors = json.loads((out / "sweep_manifest.json").read_text())["row_errors"]
        if errors:
            fails.append(f"sweep row errors: {errors}")
        rows = count_rows(out / "sweep.csv")
        if rows != values:
            fails.append(f"sweep.csv has {rows} rows, expected {values}")
        return fails, {}

    return check


def _check_oracles(points: int) -> Callable:
    def check(out: Path) -> tuple:
        doc = json.loads((out / ORACLE_ARTIFACT).read_text())
        fails = []
        if len(doc["points"]) != points:
            fails.append(f"{len(doc['points'])} oracle points, expected {points}")
        for pt in doc["points"]:
            where = f"l0={pt['l0']} r={pt['r']} delta/g={pt['delta_over_g']}"
            if not pt["max_excited_population"] <= 1e-3:
                fails.append(f"{where}: excited population {pt['max_excited_population']!r} > 1e-3")
            if not pt["bell_residual"] <= 1e-12:
                fails.append(f"{where}: Bell residual {pt['bell_residual']!r} > 1e-12")
            if pt["l0"] == 2 and not pt["pair_fidelity"] >= 1.0 - 1e-6:
                fails.append(f"{where}: pair fidelity {pt['pair_fidelity']!r} < 1 - 1e-6")
        drift = max((pt["norm_drift"] for pt in doc["points"]), default=0.0)
        # Not gated: the residual with deflection_phase unfolded shows its
        # missing sign at r = 3 (1.0 while the defect stands).
        unfolded = max((pt["bell_residual_unfolded"] for pt in doc["points"]), default=0.0)
        return fails, {"norm_drift_max": drift, "bell_residual_unfolded_max": unfolded}

    return check


def _cli(key, argv, artifacts, work, check, config=None) -> Invocation:
    argv = (*argv, "--out", key) + (("--config", f"{key}.json") if config else ())
    return Invocation(key, "cli", argv, artifacts, work, check, config)


def shots(seed: int, tiny: bool) -> Workload:
    n = 20_000 if tiny else 10_000_000
    protocol = ("protocol_report.csv", "protocol_summary.json")
    return Workload("shots", "shots", (
        _cli("protocol-eta1", ("protocol", "--shots", str(n), "--seed", str(seed)),
             protocol, n, _check_protocol(n, 1.0)),
        _cli("protocol-eta09", ("protocol", "--shots", str(n), "--seed", str(seed),
                                "--detection-efficiency", str(DETECTION_EFFICIENCY)),
             protocol, n, _check_protocol(n, DETECTION_EFFICIENCY)),
    ))


def ladder(seed: int, tiny: bool) -> Workload:
    n = 201 if tiny else 100_000
    entangle = ("entangle_populations.csv", "entangle_state.json")
    invocations = []
    for l0 in (2, 4):
        common = ("--points", str(n), "--l0", str(l0), "--seed", str(seed))
        # Only l0 = 2 is held to the closed forms; at l0 = 4 their timing is
        # known to be off, which the benchmark measures but does not gate on.
        invocations.append(_cli(f"entangle-l0{l0}", ("entangle", *common), entangle, n,
                                _check_entangle(n, 0.9999 if l0 == 2 else None)))
        invocations.append(_cli(f"oracle-compare-l0{l0}", ("oracle-compare", *common),
                                ("oracle_compare.csv",), n, _check_oracle_compare(n, l0 == 2),
                                config={"assert": {"max_error": ORACLE_MAX_ERROR}} if l0 == 2 else None))
    return Workload("ladder", "points", tuple(invocations))


def sweep(seed: int, tiny: bool) -> Workload:
    rows_ts, rows_dg, n = (9, 5, 1_000) if tiny else (401, 201, 10_000)
    time_scales = [round(0.5 + i / (rows_ts - 1), 6) for i in range(rows_ts)]
    deltas = [50 + 200 * i // (rows_dg - 1) for i in range(rows_dg)]
    artifacts = ("sweep.csv", "sweep_manifest.json")
    return Workload("sweep", "rows", (
        _cli("sweep-time-scale", ("sweep", "--axis", "interaction_time_scale",
                                  "--values", ",".join(map(str, time_scales)),
                                  "--shots", str(n), "--seed", str(seed)),
             artifacts, rows_ts, _check_sweep(rows_ts)),
        _cli("sweep-delta-l04", ("sweep", "--axis", "delta_over_g", "--l0", "4",
                                 "--values", ",".join(map(str, deltas)),
                                 "--shots", str(n), "--seed", str(seed)),
             artifacts, rows_dg, _check_sweep(rows_dg)),
    ))


def oracle_grid(seed: int, tiny: bool) -> Workload:
    # delta/g starts at 100: below it the closed-form pair fidelity at l0 = 2,
    # r = 3 falls short of 1 - 1e-6 (1 - 2.6e-6 at delta/g = 50), which is
    # the accuracy limit of the closed forms, not a failed operation.
    deltas = (100, 200) if tiny else tuple(range(100, 210, 10))
    points = len(ORACLE_L0) * len(ORACLE_R) * len(deltas)
    argv = ("--seed", str(seed), "--delta-over-g", ",".join(map(str, deltas)), "--out", "oracles")
    return Workload("oracles", "checks", (
        Invocation("oracles", "oracles", argv, (ORACLE_ARTIFACT,),
                   CHECKS_PER_ORACLE_POINT * points, _check_oracles(points)),
    ))


BUILDERS = {"shots": shots, "ladder": ladder, "sweep": sweep, "oracles": oracle_grid}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
