import math
import warnings

import numpy as np
import pytest

from cavityswap import metrics
from cavityswap.bragg import BraggParams, pendellosung_frequency
from cavityswap.cli import main
from cavityswap.metrics import (
    ComparisonRow,
    SweepSpec,
    oracle_compare,
    run_sweep,
    wilson_interval,
)
from cavityswap.swap import run_protocol

BASE = BraggParams()


def period_grid(p, points=81):
    return np.linspace(0.0, 2 * math.pi / pendellosung_frequency(p), points)


# ---------------------------------------------------------------- wilson


def test_wilson_interval_is_symmetric_at_half():
    low, high = wilson_interval(500, 1000)
    assert low == pytest.approx(1.0 - high, abs=1e-12)
    assert low < 0.5 < high


def test_wilson_interval_stays_in_unit_range_at_the_edges():
    low, high = wilson_interval(0, 50)
    assert low == 0.0 and 0.0 < high < 0.2
    low, high = wilson_interval(50, 50)
    assert 0.8 < low < 1.0 and high == 1.0


def test_wilson_interval_input_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# ---------------------------------------------------------------- oracle table


def test_oracle_compare_is_tight_in_the_deep_dispersive_regime():
    comp = oracle_compare(BASE, period_grid(BASE))
    assert comp.max_error <= 0.02
    assert not comp.truncation_warning


def test_oracle_compare_error_vanishes_at_time_zero():
    comp = oracle_compare(BASE, [0.0])
    assert comp.rows[0].error == pytest.approx(0.0, abs=1e-14)


def test_oracle_compare_error_grows_at_lower_detuning():
    tight = oracle_compare(BASE, period_grid(BASE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        loose_params = BraggParams(delta=10.0)
    loose = oracle_compare(loose_params, period_grid(loose_params))
    assert loose.max_error > tight.max_error


def test_oracle_compare_csv_shape(tmp_path):
    assert main(["oracle-compare", "--points", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle_compare.csv").read_text().splitlines()
    assert lines[2] == "time,analytic_undeflected,analytic_deflected,ladder_undeflected,ladder_deflected,error"
    assert len(lines) == 3 + 5


# ---------------------------------------------------------------- sweeps


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(axis="bogus", values=(1.0,), base=BASE, shots=10, seed=1)
    with pytest.raises(ValueError, match="nonempty"):
        SweepSpec(axis="l0", values=(), base=BASE, shots=10, seed=1)
    with pytest.raises(ValueError, match="monotone"):
        SweepSpec(axis="l0", values=(2, 4, 2), base=BASE, shots=10, seed=1)
    with pytest.raises(ValueError, match="shots"):
        SweepSpec(axis="l0", values=(2,), base=BASE, shots=0, seed=1)
    with pytest.raises(ValueError, match="time_scale"):
        SweepSpec(axis="l0", values=(2,), base=BASE, shots=10, seed=1, time_scale=-1.0)


def test_sweep_is_deterministic_and_byte_identical(tmp_path):
    spec = SweepSpec(
        axis="interaction_time_scale",
        values=(0.9, 1.0, 1.1),
        base=BASE,
        shots=2_000,
        seed=21,
    )
    assert run_sweep(spec).rows == run_sweep(spec).rows
    argv = ["sweep", "--axis", "interaction_time_scale", "--values", "0.9,1.0,1.1",
            "--shots", "2000", "--seed", "21", "--out", str(tmp_path)]
    names = ("sweep.csv", "sweep_manifest.json")
    assert main(argv) == 0
    first = [(tmp_path / name).read_text() for name in names]
    assert main(argv) == 0
    assert [(tmp_path / name).read_text() for name in names] == first


def test_time_scale_sweep_peaks_at_nominal_timing():
    spec = SweepSpec(
        axis="interaction_time_scale",
        values=(0.8, 0.9, 1.0, 1.1, 1.2),
        base=BASE,
        shots=500,
        seed=2,
    )
    rows = run_sweep(spec).rows
    fidelities = [row.mean_psi_fidelity for row in rows]
    assert max(fidelities) == fidelities[2]
    assert fidelities[2] == pytest.approx(1.0, abs=1e-12)


def test_single_value_sweep_matches_a_direct_run():
    spec = SweepSpec(axis="delta_over_g", values=(100.0,), base=BASE, shots=3_000, seed=9)
    row = run_sweep(spec).rows[0]
    # Same derived per-row seed as the sweep uses.
    row_seed = int(np.random.SeedSequence(entropy=9, spawn_key=(0,)).generate_state(1)[0])
    direct = run_protocol(BASE, shots=3_000, seed=row_seed)
    assert row.success_rate == pytest.approx(direct.success_rate, abs=1e-15)
    assert row.mean_psi_fidelity == pytest.approx(direct.mean_psi_fidelity, abs=1e-15)
    assert row.error == ""


def test_l0_sweep_success_rate_is_phase_independent():
    spec = SweepSpec(axis="l0", values=(2, 4), base=BASE, shots=4_000, seed=3)
    rows = run_sweep(spec).rows
    for row in rows:
        assert row.error == ""
        assert row.success_low <= 0.5 <= row.success_high
        assert row.mean_psi_fidelity == pytest.approx(1.0, abs=1e-10)


def test_sweep_records_row_failures_and_continues(tmp_path, monkeypatch):
    spec = SweepSpec(axis="delta_over_g", values=(5.0, 100.0), base=BASE, shots=200, seed=4)
    rows = run_sweep(spec).rows
    assert rows[0].error != "" and math.isnan(rows[0].success_rate)
    assert rows[1].error == "" and not math.isnan(rows[1].success_rate)
    argv = ["sweep", "--axis", "delta_over_g", "--values", "5,100", "--shots", "200", "--seed", "4",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    failed = (tmp_path / "sweep.csv").read_text().splitlines()[3].split(",")
    assert len(failed) == len(ComparisonRow._fields)
    assert "dispersive ratio" in failed[-1]

    # Only domain errors become rows; a programming error propagates.
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(metrics, "run_protocol", broken)
    with pytest.raises(RuntimeError, match="bug"):
        run_sweep(spec)


def test_sweep_rows_keep_axis_order():
    spec = SweepSpec(
        axis="ladder_halfwidth", values=(5, 6, 7), base=BASE, shots=200, seed=6
    )
    rows = run_sweep(spec).rows
    assert [row.value for row in rows] == [5.0, 6.0, 7.0]
    assert all(isinstance(row, ComparisonRow) for row in rows)
