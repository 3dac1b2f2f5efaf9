"""Oracle workload driver: the brute-force cross-checks no CLI command runs.

For every point of a grid over ``l0``, ``r`` and ``delta/g`` it calls the
public oracle functions -- the two-manifold adiabaticity check, the exact
ladder pair fidelity, plain ladder evolution at the nominal time and the
bosonic Bell decomposition -- and writes their raw results to
``<out>/oracles.json``.  The seed only shuffles the order of the grid.

    PYTHONPATH=src python3 bench/oracles.py --seed 1 --delta-over-g 100,150 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

import numpy as np

from cavityswap import bragg, swap
from workloads import CHECKS_PER_ORACLE_POINT, ORACLE_ARTIFACT, ORACLE_L0, ORACLE_R


def grid(seed: int, deltas_over_g) -> list:
    points = [(l0, r, float(d)) for l0 in ORACLE_L0 for r in ORACLE_R for d in deltas_over_g]
    random.Random(seed).shuffle(points)
    return points


def check_point(l0: int, r: int, delta_over_g: float) -> dict:
    # Module attributes are looked up at call time so a tracer that patches
    # them sees these calls.
    p = bragg.BraggParams(g=1.0, delta=delta_over_g, l0=l0, r=r)
    excited = bragg.max_excited_population(p)
    fidelity, truncated = bragg.pair_oracle_fidelity(p)
    state = bragg.evolve_ladder(p, bragg.full_deflection_time(p))
    # The Bell identity is written for a deflected amplitude i exp(-i phase);
    # at r = 3 mod 4 that amplitude also carries a sign which
    # deflection_phase leaves out.  The check folds it into the phase; the
    # residual with deflection_phase as it stands is kept as an observation,
    # so that the defect, and a fix of it, show in every run.
    joint = swap.joint_state(p)
    phase = bragg.deflection_phase(p)
    _, residual = swap.epr_decomposition_check(joint, phase + math.pi * ((r - 1) // 2))
    _, unfolded = swap.epr_decomposition_check(joint, phase)
    return {
        "l0": l0,
        "r": r,
        "delta_over_g": delta_over_g,
        "max_excited_population": excited,
        "pair_fidelity": fidelity,
        "truncation_warning": truncated,
        "norm_drift": abs(float(np.linalg.norm(state.amps)) - 1.0),
        "deflected_population": state.deflected_population,
        "bell_residual": residual,
        "bell_residual_unfolded": unfolded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delta-over-g", required=True, help="comma-separated delta/g values")
    parser.add_argument("--out", required=True, metavar="DIR")
    args = parser.parse_args(argv)
    deltas = [float(v) for v in args.delta_over_g.split(",") if v.strip()]
    points = [check_point(*point) for point in grid(args.seed, deltas)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"checks": CHECKS_PER_ORACLE_POINT * len(points), "points": points}
    (out / ORACLE_ARTIFACT).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
