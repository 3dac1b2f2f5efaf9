"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line so a plain ``pytest -s
tests/test_acceptance.py`` doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from cavityswap.bragg import (
    POPULATION_COLUMNS,
    BraggParams,
    analytic_amplitudes,
    deflection_phase,
    evolve_ladder,
    max_excited_population,
    oracle_compare,
    pendellosung_frequency,
)
from cavityswap.cli import main
from cavityswap.metrics import wilson_interval
from cavityswap.quantum import propagate
from cavityswap.swap import (
    CLASS_NAMES,
    PATTERN_LABELS,
    beam_splitter_unitary,
    epr_decomposition_check,
    herald_distribution,
    joint_state,
    paper_label_divergences,
    run_protocol,
)
from reference import concurrence

P2 = BraggParams(ladder_halfwidth=8)
P4 = BraggParams(l0=4)

PSI_PLUS = {"D4&D2", "D3&D1"}
PSI_MINUS = {"D4&D1", "D3&D2"}
ZERO = {"D4&D3", "D2&D1"}
PRODUCT_00 = {"D4&D4", "D3&D3"}
PRODUCT_11 = {"D2&D2", "D1&D1"}


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def check_distribution(heralds, tol_prob=1e-12, tol_state=1e-10):
    """Criteria 5 and 6 on a one-row herald distribution; returns (ok5, ok6)."""
    probs, classes, fids, concs = heralds.row(0)
    prob = dict(zip(PATTERN_LABELS, probs))
    name = {label: CLASS_NAMES[k] for label, k in zip(PATTERN_LABELS, classes)}
    fid = dict(zip(PATTERN_LABELS, fids))
    conc = dict(zip(PATTERN_LABELS, concs))
    ok5 = all(abs(prob[lab] - 0.125) <= tol_prob for lab in PSI_PLUS | PSI_MINUS | PRODUCT_00 | PRODUCT_11)
    ok5 &= all(prob[lab] == 0.0 for lab in ZERO)
    ok5 &= abs(sum(probs) - 1.0) <= tol_prob

    ok6 = True
    for lab in PSI_PLUS:
        ok6 &= name[lab] == "psi_plus"
        ok6 &= abs(fid[lab] - 1.0) <= tol_state
        ok6 &= abs(conc[lab] - 1.0) <= tol_state
    for lab in PSI_MINUS:
        ok6 &= name[lab] == "psi_minus"
        ok6 &= abs(fid[lab] - 1.0) <= tol_state
        ok6 &= abs(conc[lab] - 1.0) <= tol_state
    for lab in PRODUCT_00:
        ok6 &= name[lab] == "product_00" and conc[lab] <= tol_state
    for lab in PRODUCT_11:
        ok6 &= name[lab] == "product_11" and conc[lab] <= tol_state
    success = sum(prob[lab] for lab in PATTERN_LABELS if name[lab] in ("psi_plus", "psi_minus"))
    ok6 &= abs(success - 0.5) <= tol_prob
    return ok5, ok6


def test_criterion_1_oracle_equivalence_within_budget():
    started = time.perf_counter()
    period = 2 * math.pi / pendellosung_frequency(P2)
    table = oracle_compare(P2, np.linspace(0.0, period, 161)).table
    ladder = [POPULATION_COLUMNS.index(name) for name in ("time", "ladder_undeflected", "ladder_deflected")]
    worst = 0.0
    for t, pu, pd in table[:, ladder]:
        c_plus, c_minus = analytic_amplitudes(P2, t)
        worst = max(worst, abs(abs(c_plus) ** 2 - pu), abs(abs(c_minus) ** 2 - pd))
    elapsed = time.perf_counter() - started
    report(
        1,
        f"closed form vs ladder max error {worst:.2e} <= 0.02 in {elapsed:.2f}s <= 5s",
        worst <= 0.02 and elapsed <= 5.0,
    )


def test_criterion_2_full_deflection_at_the_nominal_time():
    t = 2 * math.pi * P2.delta / P2.g**2
    ladder = evolve_ladder(P2, t).deflected_population
    analytic = abs(analytic_amplitudes(P2, t)[1]) ** 2
    report(
        2,
        f"deflected population {ladder:.6f} >= 0.95 (closed form {analytic})",
        ladder >= 0.95 and analytic == 1.0,
    )


def test_criterion_3_adiabaticity_of_the_two_manifold_model():
    worst = max_excited_population(P2)
    report(3, f"max excited-manifold population {worst:.2e} <= 1e-3", worst <= 1e-3)


def test_criterion_4_bell_decomposition_identity():
    residuals = []
    for p in (P2, P4):
        ok, residual = epr_decomposition_check(joint_state(p), deflection_phase(p))
        residuals.append(residual if ok else math.inf)
    worst = max(residuals)
    report(
        4,
        f"joint-state Bell decomposition residual {worst:.2e} <= 1e-12 at phases 0 and -pi/4",
        worst <= 1e-12,
    )


def test_criterion_5_exact_click_distribution():
    ok5, _ = check_distribution(herald_distribution(P2))
    report(5, "eight patterns at 1/8 within 1e-12, cross-class exactly 0, total 1", ok5)


def test_criterion_6_herald_classes_and_success_probability():
    _, ok6 = check_distribution(herald_distribution(P2))
    heralds, _ = run_protocol(P2, shots=10, seed=1)
    flagged = set(paper_label_divergences(heralds)) == PSI_PLUS | PSI_MINUS | PRODUCT_00 | PRODUCT_11
    report(
        6,
        "psi heralds on cross-momentum/same-index patterns, product doubles, "
        "success 1/2, published-table divergence flagged",
        ok6 and flagged,
    )


def test_criterion_7_monte_carlo_consistency(tmp_path):
    heralds, sample = run_protocol(P2, shots=100_000, seed=7)
    ok = sample.retained_shots == 100_000
    for prob, count in zip(heralds.row(0)[0], sample.counts):
        if prob > 0.0:
            low, high = wilson_interval(count, sample.retained_shots, z=4.0)
            ok &= low <= 0.125 <= high
        else:
            ok &= count == 0
    out = tmp_path / "run"
    main(["protocol", "--out", str(out), "--shots", "100000", "--seed", "7"])
    first = (out / "protocol_report.csv").read_bytes(), (out / "protocol_summary.json").read_bytes()
    main(["protocol", "--out", str(out), "--shots", "100000", "--seed", "7"])
    second = (out / "protocol_report.csv").read_bytes(), (out / "protocol_summary.json").read_bytes()
    report(
        7,
        "1e5 seeded shots inside 4-sigma Wilson bounds; identical seed gives byte-identical report",
        ok and first == second,
    )


def test_criterion_8_phase_robustness_at_second_order():
    ok5, ok6 = check_distribution(herald_distribution(P4))
    phase_ok = deflection_phase(P4) == pytest.approx(-math.pi / 4, rel=1e-12)
    report(
        8,
        "criteria 5 and 6 hold unchanged at l0=4 (deflection phase -pi/4)",
        ok5 and ok6 and phase_ok,
    )


def test_criterion_9_timing_error_degradation():
    scales = (1.0, 1.05, 1.1, 1.2)
    fidelities = [
        run_protocol(P2, shots=100, seed=1, time_scale=ts)[1].mean_psi_fidelity for ts in scales
    ]
    # Independent closed form: undeflected leakage sin^2(pi (ts-1)/2)
    # drags the probability-weighted psi fidelity to 1/(1 + leakage).
    expected = [1.0 / (1.0 + math.sin(math.pi * (ts - 1) / 2) ** 2) for ts in scales]
    ok = fidelities[0] == pytest.approx(1.0, abs=1e-12)
    ok &= 0.5 < fidelities[2] < 1.0
    ok &= all(b < a for a, b in zip(fidelities, fidelities[1:]))
    ok &= all(abs(f - e) <= 1e-9 for f, e in zip(fidelities, expected))
    report(
        9,
        f"psi fidelity falls monotonically {', '.join(f'{f:.4f}' for f in fidelities)} "
        "and stays in (0.5, 1) at scale 1.1",
        ok,
    )


def test_criterion_10_unitarity_and_normalisation_suite():
    u = beam_splitter_unitary()
    bs_defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))

    drift = abs(
        float(np.linalg.norm(evolve_ladder(P2, 2 * math.pi * P2.delta / P2.g**2).amps)) - 1.0
    )
    rng = np.random.default_rng(12)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (a + a.conj().T) / 2
    # The shipped propagator: column k is basis vector k propagated.
    u_rand = np.column_stack([propagate(h, e, [3.3])[0] for e in np.eye(12)])
    drift = max(drift, float(np.max(np.abs(u_rand.conj().T @ u_rand - np.eye(12)))))

    base = 0.6 * np.outer([0, 1, 1, 0], [0, 1, 1, 0]) / 2 + 0.4 * np.eye(4) / 4
    base = base.astype(complex)
    reference = concurrence(base)
    lu_dev = 0.0
    for _ in range(8):
        q1, _r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        q2, _r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rotated = np.kron(q1, q2) @ base @ np.kron(q1, q2).conj().T
        lu_dev = max(lu_dev, abs(concurrence(rotated) - reference))

    report(
        10,
        f"mixer unitarity {bs_defect:.1e} <= 1e-12, norm drift {drift:.1e} <= 1e-9, "
        f"concurrence local-unitary deviation {lu_dev:.1e} <= 1e-8",
        bs_defect <= 1e-12 and drift <= 1e-9 and lu_dev <= 1e-8,
    )
