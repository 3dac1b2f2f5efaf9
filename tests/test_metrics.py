import math

import numpy as np
import pytest

from cavityswap import bragg, metrics
from cavityswap.bragg import (
    POPULATION_COLUMNS,
    BraggParams,
    full_deflection_time,
    oracle_compare,
)
from cavityswap.cli import main
from cavityswap.metrics import (
    ComparisonRow,
    SweepSpec,
    run_sweep,
    wilson_interval,
)
from cavityswap.swap import run_protocol

BASE = BraggParams()


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
    # Same spawned per-row seed as the sweep uses.
    row_seed = np.random.SeedSequence(9, spawn_key=(0,))
    _, direct = run_protocol(BASE, shots=3_000, seed=row_seed)
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

    monkeypatch.setattr(metrics, "herald_batch", broken)
    with pytest.raises(RuntimeError, match="bug"):
        run_sweep(spec)


def count_eigh_calls(monkeypatch) -> list:
    """Matrices diagonalised, one entry per matrix: a stacked call adds
    one entry per matrix of its stack."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        calls.extend([a.shape[-2:]] * (a.shape[0] if a.ndim == 3 else 1))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_time_scale_sweep_diagonalises_the_ladder_once(monkeypatch):
    # Every row shares one Hamiltonian: 401 rows, one eigendecomposition.
    calls = count_eigh_calls(monkeypatch)
    values = tuple(round(0.5 + i / 400, 6) for i in range(401))
    spec = SweepSpec(axis="interaction_time_scale", values=values, base=BASE, shots=100, seed=5)
    rows = run_sweep(spec).rows
    assert len(rows) == 401 and not any(row.error for row in rows)
    assert len(calls) == 1


def test_delta_sweep_diagonalises_each_row_once(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    spec = SweepSpec(
        axis="delta_over_g", values=(60.0, 100.0, 150.0), base=BraggParams(l0=4), shots=100, seed=5
    )
    assert not any(row.error for row in run_sweep(spec).rows)
    assert len(calls) == 3


def test_non_finite_time_scales_fail_before_the_ladder_runs():
    # A non-finite shared time scale is refused; a non-finite axis value
    # fails its own row at resolution, so no RuntimeWarning (an error
    # under this suite's filter) comes from propagating it.
    for ts in (math.inf, math.nan):
        with pytest.raises(ValueError, match="time_scale must be finite"):
            SweepSpec(axis="delta_over_g", values=(100.0,), base=BASE, shots=10, seed=1, time_scale=ts)
        with pytest.raises(ValueError, match="time_scale must be finite"):
            run_protocol(BASE, shots=10, seed=1, time_scale=ts)
    rows = run_sweep(SweepSpec(axis="interaction_time_scale", values=(0.5, math.inf),
                               base=BASE, shots=100, seed=3)).rows
    assert rows[0].error == ""
    assert rows[1].error == "ValueError: times must be finite and nonnegative"
    (row,) = run_sweep(SweepSpec(axis="interaction_time_scale", values=(math.nan,),
                                 base=BASE, shots=100, seed=3)).rows
    assert row.error == "ValueError: times must be finite and nonnegative"


def test_rows_past_the_ladder_limits_fail_on_their_own(monkeypatch):
    # A finite time whose ladder phases overflow, and a halfwidth past the
    # cap, each fail their own row before any ladder of theirs is built: no
    # RuntimeWarning (an error under this suite's filter), no allocation.
    built = []
    monkeypatch.setattr(bragg, "build_effective_hamiltonian",
                        lambda p, build=bragg.build_effective_hamiltonian: built.append(p) or build(p))
    rows = run_sweep(SweepSpec(axis="interaction_time_scale", values=(1.0, 1e305), base=BASE, shots=10, seed=1)).rows
    assert rows[0].error == ""
    assert rows[1].error == ("ValueError: time 6.283185307179586e+307 x the ladder spectral bound 224.0 "
                             "leaves the float range")
    assert math.isnan(rows[1].ladder_deflected) and math.isnan(rows[1].abs_error)
    rows = run_sweep(SweepSpec(axis="ladder_halfwidth", values=(4, 100_000), base=BASE, shots=10, seed=1)).rows
    assert rows[0].error == ""
    assert rows[1].error == f"ValueError: ladder_halfwidth must be at most {BraggParams.MAX_LADDER_HALFWIDTH}, got 100000"
    assert [p.ladder_halfwidth for p in built] == [BASE.ladder_halfwidth, 4]


def test_time_scale_sweep_rows_equal_one_time_comparisons():
    # The rows share one oracle_compare over all their times; each row must
    # read exactly as a comparison at its own time alone, and the failed
    # negative row must leave its neighbours as direct runs give them.
    values = (-0.5, 0.0, 0.7, 1.0)
    spec = SweepSpec(axis="interaction_time_scale", values=values, base=BASE, shots=1_000, seed=8)
    rows = run_sweep(spec).rows
    assert rows[0].error == "ValueError: times must be nonnegative"
    assert math.isnan(rows[0].ladder_deflected)
    columns = [POPULATION_COLUMNS.index("analytic_deflected"), POPULATION_COLUMNS.index("ladder_deflected")]
    for i in (1, 2, 3):
        row, ts = rows[i], values[i]
        table = oracle_compare(BASE, [ts * full_deflection_time(BASE)]).table[0]
        assert row.error == ""
        assert np.array([row.analytic_deflected, row.ladder_deflected]).tobytes() == table[columns].tobytes()
        _, direct = run_protocol(BASE, shots=1_000, seed=metrics._row_seed(8, i), time_scale=ts)
        assert (row.success_rate, row.mean_psi_fidelity) == (direct.success_rate, direct.mean_psi_fidelity)


@pytest.mark.parametrize(
    "axis, values, failed",
    [
        ("delta_over_g", (5.0, 60.0, 100.0, 150.0), 0),  # delta/g < 10 fails only at an end
        ("l0", (2, 3, 4, 6), 1),  # three ladder dimensions around an odd l0
        ("ladder_halfwidth", (3, 4, 5, 6), 0),  # l0 = 4 needs a halfwidth of at least 4
        ("interaction_time_scale", (-0.5, 0.0, 0.7, 1.0, 1.3), 0),
    ],
)
def test_sweep_rows_equal_one_row_runs_bit_for_bit(axis, values, failed):
    # The sweep stacks ladders and heralds across rows; every good row must
    # give the bits of a one-time comparison and of a direct protocol run
    # with the row's seed.
    base = BraggParams(l0=4) if axis == "ladder_halfwidth" else BASE
    spec = SweepSpec(axis=axis, values=values, base=base, shots=1_000, seed=13)
    rows = run_sweep(spec).rows
    assert rows[failed].error.startswith("ValueError: ")
    columns = [POPULATION_COLUMNS.index("analytic_deflected"), POPULATION_COLUMNS.index("ladder_deflected")]
    for i, (row, value) in enumerate(zip(rows, values)):
        if i == failed:
            continue
        params, ts = metrics._row_params(spec, value)
        table = oracle_compare(params, [ts * full_deflection_time(params)]).table[0]
        assert row.error == ""
        assert np.array([row.analytic_deflected, row.ladder_deflected]).tobytes() == table[columns].tobytes()
        _, direct = run_protocol(params, shots=1_000, seed=metrics._row_seed(13, i), time_scale=ts)
        got = np.array([row.success_rate, row.mean_psi_fidelity])
        assert got.tobytes() == np.array([direct.success_rate, direct.mean_psi_fidelity]).tobytes()
        assert (row.success_low, row.success_high) == wilson_interval(direct.successes, direct.retained_shots)


def test_sweep_spec_rejects_non_numeric_values():
    for axis in ("delta_over_g", "l0"):
        for bad in ("50", True, None):
            with pytest.raises(ValueError, match=f"sweep value {bad!r} is not a number"):
                SweepSpec(axis=axis, values=(bad, 100), base=BASE, shots=10, seed=1)
    with pytest.raises(ValueError, match="sweep value '50' is not a number"):
        SweepSpec(axis="delta_over_g", values=("50", "100"), base=BASE, shots=10, seed=1)


def test_integer_axes_reject_fractional_values():
    for axis, values in (("l0", (2, 3.7, 4.5)), ("ladder_halfwidth", (5, 6.5))):
        with pytest.raises(ValueError, match=f"{axis} values must be integers"):
            SweepSpec(axis=axis, values=values, base=BASE, shots=10, seed=1)
    spec = SweepSpec(axis="l0", values=(2.0, 4.0), base=BASE, shots=100, seed=1)
    rows = run_sweep(spec).rows
    assert [row.value for row in rows] == [2.0, 4.0] and not any(row.error for row in rows)


def test_sweep_rows_keep_axis_order():
    spec = SweepSpec(
        axis="ladder_halfwidth", values=(5, 6, 7), base=BASE, shots=200, seed=6
    )
    rows = run_sweep(spec).rows
    assert [row.value for row in rows] == [5.0, 6.0, 7.0]
    assert all(isinstance(row, ComparisonRow) for row in rows)
