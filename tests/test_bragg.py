import math
import warnings

import numpy as np
import pytest

from cavityswap.bragg import (
    BraggParams,
    analytic_amplitudes,
    branch_amplitudes,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    deflection_phase,
    entangled_pair_state,
    evolve_ladder,
    full_deflection_time,
    ladder_offsets,
    ladder_population_series,
    max_excited_population,
    nonnegative_times,
    pair_labels,
    pair_oracle_fidelity,
    pair_state_from_ladder,
    pendellosung_frequency,
    pendellosung_phase_rate,
    recoil_frequency,
)
from cavityswap import bragg, quantum
from cavityswap.cli import _LADDER_SLICE
from cavityswap.swap import joint_state, mode_basis
from reference import expm, full_hamiltonian_by_labels, partial_trace


def params(**kw):
    kw.setdefault("g", 1.0)
    kw.setdefault("delta", 100.0)
    return BraggParams(**kw)


def low_ratio_params(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return params(**kw)


def amplitude(p, pair, label):
    """Amplitude of a pair state on a (photon number, momentum) label."""
    return pair[pair_labels(p).index(label)]


# ---------------------------------------------------------------- units


def test_recoil_frequency_rb85_at_780nm():
    # Hand substitution: k = 2 pi / 780 nm, M = 84.911789738 u gives
    # hbar k^2 / 2M = 2.4266e4 rad/s.
    mass = 84.911789738 * 1.66053906660e-27
    assert recoil_frequency(mass, 780e-9) == pytest.approx(2.4266e4, rel=5e-4)


def test_recoil_frequency_scaling_laws():
    base = recoil_frequency(1.4e-25, 780e-9)
    assert recoil_frequency(2.8e-25, 780e-9) == pytest.approx(base / 2, rel=1e-12)
    assert recoil_frequency(1.4e-25, 390e-9) == pytest.approx(base * 4, rel=1e-12)


def test_recoil_frequency_rejects_nonpositive_input():
    with pytest.raises(ValueError):
        recoil_frequency(0.0, 780e-9)
    with pytest.raises(ValueError):
        recoil_frequency(1e-25, -1.0)


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError, match="even"):
        params(l0=3)
    with pytest.raises(ValueError, match="even"):
        params(l0=0)
    with pytest.raises(ValueError, match="odd"):
        params(r=2)
    with pytest.raises(TypeError):
        params(n=0)  # every ladder is the one-photon ladder
    with pytest.raises(ValueError, match="dispersive"):
        params(delta=5.0)
    with pytest.raises(ValueError, match="ladder_halfwidth"):
        params(ladder_halfwidth=2, l0=4)


def test_params_warns_in_marginal_dispersive_regime():
    with pytest.warns(UserWarning, match="below 50"):
        params(delta=20.0)


def test_ladder_halfwidth_default():
    assert params().ladder_halfwidth == 7
    assert params(l0=4).ladder_halfwidth == 8


# ---------------------------------------------------------------- Hamiltonians


def test_effective_hamiltonian_coupling_magnitude():
    p = params()
    h = build_effective_hamiltonian(p)
    off = np.diag(h, 1)
    assert np.allclose(off, -p.g**2 / (4 * p.delta))


def test_effective_hamiltonian_light_shift_on_diagonal():
    p = params()
    h = build_effective_hamiltonian(p)
    offsets = list(ladder_offsets(p))
    # Kinetic zero sits at the incoming momentum, so that site shows the
    # bare light shift; the Bragg partner is degenerate with it.
    i_in, i_out = offsets.index(0), offsets.index(-p.l0)
    assert h[i_in, i_in] == pytest.approx(-p.g**2 / (2 * p.delta))
    assert h[i_out, i_out] == pytest.approx(h[i_in, i_in])


def test_effective_hamiltonian_is_exactly_hermitian():
    h = build_effective_hamiltonian(params())
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_full_hamiltonian_matches_the_labelled_construction():
    # Index arithmetic against the term-by-term build over labelled sites:
    # ground sites first, the incoming one at index ladder_halfwidth, then
    # the excited block.
    for l0 in (2, 4, 6):
        for halfwidth in (l0 // 2 + 2, None, l0 // 2 + 9):
            p = params(l0=l0, ladder_halfwidth=halfwidth)
            reference, labels = full_hamiltonian_by_labels(p)
            assert build_full_hamiltonian(p).tobytes() == reference.tobytes(), (l0, halfwidth)
            assert labels.index(("g", 0)) == p.ladder_halfwidth
            ground = len(ladder_offsets(p))
            assert [lab[0] for lab in labels] == ["g"] * ground + ["e"] * (len(labels) - ground)


def test_full_hamiltonian_block_structure():
    p = params()
    h = build_full_hamiltonian(p)
    labels = full_hamiltonian_by_labels(p)[1]
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    # Detuning splits the manifolds: compare sites with equal kinetic terms.
    g0 = labels.index(("g", 0))
    # offset -1 has kinetic (l0/2 - 1)^2 - (l0/2)^2; reconstruct directly.
    e0 = labels.index(("e", -1))
    kin = (p.l0 / 2 - 1) ** 2 - (p.l0 / 2) ** 2
    assert h[e0, e0].real - kin == pytest.approx(p.delta)
    assert h[g0, g0] == 0.0
    # coupling g/2 between neighbouring manifold sites
    assert h[g0, e0] == pytest.approx(p.g / 2)


def test_adiabaticity_of_the_effective_reduction():
    # Excited-manifold population stays perturbatively small, (g/2 delta)^2
    # per virtual transition, validating the ladder model.
    worst = max_excited_population(params())
    assert worst <= 1e-3


# ---------------------------------------------------------------- closed forms


def test_pendellosung_frequency_values():
    assert pendellosung_frequency(params()) == pytest.approx(0.005, rel=1e-12)
    assert pendellosung_frequency(params(l0=4)) == pytest.approx(6.25e-6, rel=1e-12)


def test_pendellosung_phase_rate_values():
    assert pendellosung_phase_rate(params()) == 0.0
    assert pendellosung_phase_rate(params(l0=4)) == pytest.approx(-1.5625e-6, rel=1e-12)


def test_phase_rate_scales_with_photon_number_squared():
    # The rate is quadratic in g^2 n; the photon number is fixed at one, so
    # check through the formula's g dependence instead: doubling g^2
    # quadruples the magnitude.
    base = pendellosung_phase_rate(params(l0=4))
    doubled = pendellosung_phase_rate(params(l0=4, g=math.sqrt(2.0)))
    assert doubled == pytest.approx(4 * base, rel=1e-12)


def test_full_deflection_time_values():
    assert full_deflection_time(params()) == pytest.approx(200 * math.pi, rel=1e-12)
    assert full_deflection_time(params(r=3)) == pytest.approx(600 * math.pi, rel=1e-12)
    p4 = params(l0=4)
    assert full_deflection_time(p4) == pytest.approx(
        p4.r * math.pi / pendellosung_frequency(p4), rel=1e-12
    )


def test_deflection_phase_values():
    assert deflection_phase(params()) == 0.0
    assert deflection_phase(params(l0=4)) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert deflection_phase(params(l0=4, r=3)) == pytest.approx(-3 * math.pi / 4, rel=1e-12)


def test_analytic_amplitudes_initial_condition_and_half_time():
    p = params()
    c_plus, c_minus = analytic_amplitudes(p, 0.0)
    assert c_plus == 1.0 and c_minus == 0.0
    t_half = math.pi / (2 * pendellosung_frequency(p))
    c_plus, c_minus = analytic_amplitudes(p, t_half)
    assert abs(c_plus) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(c_minus) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_analytic_amplitudes_at_full_deflection():
    p = params()
    c_plus, c_minus = analytic_amplitudes(p, full_deflection_time(p))
    assert abs(c_plus) <= 1e-12
    assert c_minus == pytest.approx(1j, abs=1e-12)


def test_analytic_populations_sum_to_one_for_any_time():
    rng = np.random.default_rng(2)
    p = params(l0=4)
    for t in rng.uniform(0.0, 3.0 / pendellosung_frequency(p), size=50):
        c_plus, c_minus = analytic_amplitudes(p, float(t))
        assert abs(abs(c_plus) ** 2 + abs(c_minus) ** 2 - 1.0) <= 1e-12


def test_branch_amplitudes_at_nominal_timing_match_the_closed_form():
    # Pins the (-1)^((r-1)/2) sign of the exact nominal amplitude.
    for l0 in (2, 4, 6):
        for r in (1, 3):
            p = params(l0=l0, r=r)
            exact = branch_amplitudes(p)
            closed = analytic_amplitudes(p, full_deflection_time(p))
            assert exact[0] == 0.0
            assert max(abs(a - b) for a, b in zip(exact, closed)) <= 1e-12, (l0, r)


def test_pair_and_joint_states_carry_the_branch_amplitudes():
    p = params(l0=4)
    m = p.l0 // 2
    for ts in (0.6, 0.0):
        c_plus, c_minus = branch_amplitudes(p, ts)
        pair = entangled_pair_state(p, ts)
        assert amplitude(p, pair, (1, m)) == c_plus / math.sqrt(2.0)
        assert amplitude(p, pair, (1, -m)) == c_minus / math.sqrt(2.0)
        # Rows are the cavity pairs 00, 01, 10, 11.
        js = joint_state(p, ts)
        assert js[1, mode_basis(2).index((1, 1, 0, 0))] == 0.5 * c_plus
        assert js[1, mode_basis(2).index((1, 0, 0, 1))] == 0.5 * c_minus
        assert js[3, mode_basis(2).index((0, 0, 1, 1))] == 0.5 * c_minus * c_minus


# ---------------------------------------------------------------- ladder oracle


def test_ladder_initial_state_and_zero_photon_freeze():
    p = params()
    state = evolve_ladder(p, 0.0)
    assert state.undeflected_population == pytest.approx(1.0, abs=1e-14)
    # Without a photon the ladder is purely kinetic and diagonal, so the
    # atom stays at its incoming site bit for bit: pair_state_from_ladder
    # writes that half as the unit vector instead of propagating it.
    for l0 in (2, 4, 6, 8, 10):
        for halfwidth in (l0 // 2 + 2, None, l0 // 2 + 9):
            p = params(l0=l0, ladder_halfwidth=halfwidth)
            offsets = ladder_offsets(p)
            kinetic = np.diag(((p.l0 / 2.0 + offsets) ** 2 - (p.l0 / 2.0) ** 2).astype(np.complex128))
            incoming = np.zeros(len(offsets), dtype=np.complex128)
            incoming[p.ladder_halfwidth] = 1.0
            for scale in (0.0, 0.3, 1.0, 1.7):
                (frozen,) = quantum.propagate(kinetic, incoming, [scale * full_deflection_time(p)])
                assert frozen.tobytes() == incoming.tobytes(), (l0, halfwidth, scale)


def test_ladder_matches_closed_form_over_a_full_period():
    p = params(ladder_halfwidth=8)
    period = 2 * math.pi / pendellosung_frequency(p)
    series = ladder_population_series(p, np.linspace(0.0, period, 161))
    worst = 0.0
    for t, pu, pd in zip(series.times, series.undeflected, series.deflected):
        c_plus, c_minus = analytic_amplitudes(p, t)
        worst = max(worst, abs(abs(c_plus) ** 2 - pu), abs(abs(c_minus) ** 2 - pd))
    assert worst <= 0.02
    assert not series.truncation_warning


def test_ladder_norm_drift_over_full_deflection():
    for l0 in (2, 4, 6):
        for r in (1, 3):
            p = params(l0=l0, r=r)
            state = evolve_ladder(p, full_deflection_time(p))
            assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12, (l0, r)


def test_deflection_is_nearly_complete_at_the_nominal_time():
    p = params()
    state = evolve_ladder(p, 2 * math.pi * p.delta / p.g**2)
    assert state.deflected_population >= 0.95


def test_bragg_confinement_outside_the_resonant_pair():
    p = params()
    state = evolve_ladder(p, full_deflection_time(p))
    outside = 1.0 - state.undeflected_population - state.deflected_population
    assert outside <= 0.05


def test_closed_form_error_grows_as_detuning_shrinks():
    worst = []
    for ratio in (100.0, 50.0, 25.0, 10.0):
        p = low_ratio_params(delta=ratio, ladder_halfwidth=8)
        period = 2 * math.pi / pendellosung_frequency(p)
        series = ladder_population_series(p, np.linspace(0.0, period, 121))
        err = max(
            max(
                abs(abs(analytic_amplitudes(p, t)[0]) ** 2 - pu),
                abs(abs(analytic_amplitudes(p, t)[1]) ** 2 - pd),
            )
            for t, pu, pd in zip(series.times, series.undeflected, series.deflected)
        )
        worst.append(err)
    assert all(b > a for a, b in zip(worst, worst[1:]))


def test_truncation_warning_fires_when_the_ladder_spreads():
    # Strong coupling pushes population to the ladder edge.
    p = low_ratio_params(g=320.0, delta=3200.0, ladder_halfwidth=3)
    state = evolve_ladder(p, 0.5)
    assert state.boundary_population > 1e-6
    assert state.truncation_warning


def test_population_series_matches_single_shot_evolution():
    p = params()
    t = 0.37 * full_deflection_time(p)
    series = ladder_population_series(p, [0.0, 0.5 * t, t])
    direct = evolve_ladder(p, t)
    assert series.undeflected[-1] == pytest.approx(direct.undeflected_population, abs=1e-10)
    assert series.deflected[-1] == pytest.approx(direct.deflected_population, abs=1e-10)


def test_population_series_does_not_depend_on_the_block_size(monkeypatch):
    # 4097 and 7169 times leave a lone last time for blocks of 4096, 1024
    # and 7; every time must still come out bit for bit the same.
    for l0 in (2, 4, 6):
        for r in (1, 3):
            p = params(l0=l0, r=r)
            for points in (4097, 7169):
                times = np.linspace(0.0, 2.5 * full_deflection_time(p), points)
                series = []
                for block in (4096, 1024, 7):
                    monkeypatch.setattr(quantum, "SERIES_BLOCK", block)
                    series.append(ladder_population_series(p, times))
                for other in series[1:]:
                    assert np.array_equal(other.undeflected, series[0].undeflected)
                    assert np.array_equal(other.deflected, series[0].deflected)
                    assert other.boundary_max == series[0].boundary_max


def test_population_series_of_slices_equal_the_whole_series():
    # Two full slices and a one-time tail, one call each as the ladder
    # commands make them: the slices hold the bits of the whole series,
    # t = 0 included, and the largest slice boundary population is the
    # whole grid's.
    size = _LADDER_SLICE
    for l0 in (2, 4):
        p = params(l0=l0)
        times = np.linspace(0.0, 1.5 * full_deflection_time(p), 2 * size + 1)
        whole = ladder_population_series(p, times)
        slices = [ladder_population_series(p, times[s:s + size]) for s in range(0, len(times), size)]
        assert [len(c.times) for c in slices] == [size, size, 1]
        for name in ("times", "undeflected", "deflected"):
            joined = np.concatenate([getattr(c, name) for c in slices])
            assert joined.tobytes() == getattr(whole, name).tobytes()
        assert max(c.boundary_max for c in slices) == whole.boundary_max
        assert (slices[0].undeflected[0], slices[0].deflected[0]) == (1.0, 0.0)


def test_params_need_a_finite_positive_deflection_time():
    # The Pendelloesung frequency underflows (subnormal at l0 = 144, 0 from
    # l0 = 150, a float overflow in its denominator at l0 = 2000) or
    # overflows (g^2 at g = 1e200); the last l0 with a finite time is 142.
    assert math.isfinite(full_deflection_time(params(l0=142)))
    for bad in (dict(l0=144), dict(l0=200), dict(l0=2000), dict(g=1e-300, delta=1e-290), dict(g=1e200, delta=1e202)):
        with pytest.raises(ValueError, match="gives no finite positive full deflection time"):
            BraggParams(**bad)


def test_times_must_be_finite_and_nonnegative():
    assert nonnegative_times([0.0, 2.5]).tolist() == [0.0, 2.5]
    for bad in ([1.0, -0.5], [-math.inf]):
        with pytest.raises(ValueError, match="^times must be nonnegative$"):
            nonnegative_times(bad)
    for bad in ([1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="^times must be finite and nonnegative$"):
            nonnegative_times(bad)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ladder_population_series(params(), [0.0, math.inf])


def test_ladder_integrator_paths_agree():
    # Eigendecomposition path against the Taylor-series expm oracle; the
    # Taylor path's own round-off grows with t, hence the looser bound at
    # the full deflection time.
    p = params()
    h = build_effective_hamiltonian(p)
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[list(ladder_offsets(p)).index(0)] = 1.0
    for t, bound in ((2.0, 1e-12), (full_deflection_time(p), 1e-9)):
        state = evolve_ladder(p, t)
        assert np.max(np.abs(state.amps - expm(-1j * t * h) @ psi0)) <= bound


# ---------------------------------------------------------------- pair state


def test_entangled_pair_state_at_first_order():
    p = params()
    pair = entangled_pair_state(p)
    m = p.l0 // 2
    assert amplitude(p, pair, (0, m)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert amplitude(p, pair, (0, -m)) == 0.0
    assert amplitude(p, pair, (1, m)) == 0.0
    assert amplitude(p, pair, (1, -m)) == pytest.approx(1j / math.sqrt(2), abs=1e-12)


def test_entangled_pair_state_carries_the_deflection_phase():
    p = params(l0=4)
    pair = entangled_pair_state(p)
    expected = 1j * np.exp(-1j * deflection_phase(p)) / math.sqrt(2)
    assert amplitude(p, pair, (1, -2)) == pytest.approx(expected, abs=1e-12)


def test_pair_reduced_cavity_state_is_maximally_mixed():
    pair = entangled_pair_state(params())
    rho = partial_trace(np.outer(pair, pair.conj()), (2, 2), keep=0)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_pair_state_agrees_with_ladder_oracle():
    fid, warn = pair_oracle_fidelity(params(ladder_halfwidth=8))
    assert fid >= 0.98
    assert not warn


def test_ladder_pair_state_is_normalised():
    state, _ = pair_state_from_ladder(params())
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-9
