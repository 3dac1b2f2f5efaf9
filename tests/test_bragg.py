import math
import warnings

import numpy as np
import pytest

from cavityswap.bragg import (
    BraggParams,
    analytic_amplitudes,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    deflection_phase,
    entangled_pair_state,
    evolve_ladder,
    full_deflection_time,
    ladder_offsets,
    ladder_population_series,
    max_excited_population,
    pair_oracle_fidelity,
    pair_state_from_ladder,
    pendellosung_frequency,
    pendellosung_phase_rate,
    recoil_frequency,
)
from cavityswap.quantum import expm, partial_trace


def params(**kw):
    kw.setdefault("g", 1.0)
    kw.setdefault("delta", 100.0)
    return BraggParams(**kw)


def low_ratio_params(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return params(**kw)


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
    with pytest.raises(ValueError, match="photon"):
        params(n=2)
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


def test_effective_hamiltonian_is_diagonal_without_photons():
    h = build_effective_hamiltonian(params(n=0))
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


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


def test_full_hamiltonian_block_structure():
    p = params()
    model = build_full_hamiltonian(p)
    h = model.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    # Detuning splits the manifolds: compare sites with equal kinetic terms.
    g0 = model.labels.index(("g", 0))
    # offset -1 has kinetic (l0/2 - 1)^2 - (l0/2)^2; reconstruct directly.
    e0 = model.labels.index(("e", -1))
    kin = (p.l0 / 2 - 1) ** 2 - (p.l0 / 2) ** 2
    assert h[e0, e0].real - kin == pytest.approx(p.delta)
    assert h[g0, g0] == 0.0
    # coupling g/2 between neighbouring manifold sites
    assert h[g0, e0] == pytest.approx(p.g / 2)


def test_full_hamiltonian_without_photons_has_no_excited_manifold():
    model = build_full_hamiltonian(params(n=0))
    assert model.excited_indices == ()
    h = model.hamiltonian
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_adiabaticity_of_the_effective_reduction():
    # Excited-manifold population stays perturbatively small, (g/2 delta)^2
    # per virtual transition, validating the ladder model.
    worst = max_excited_population(params())
    assert worst <= 1e-3


# ---------------------------------------------------------------- closed forms


def test_pendellosung_frequency_values():
    assert pendellosung_frequency(params()) == pytest.approx(0.005, rel=1e-12)
    assert pendellosung_frequency(params(l0=4)) == pytest.approx(6.25e-6, rel=1e-12)
    assert pendellosung_frequency(params(n=0)) == 0.0


def test_pendellosung_phase_rate_values():
    assert pendellosung_phase_rate(params()) == 0.0
    assert pendellosung_phase_rate(params(l0=4)) == pytest.approx(-1.5625e-6, rel=1e-12)


def test_phase_rate_scales_with_photon_number_squared():
    # The rate is quadratic in n by construction; n is restricted to {0, 1},
    # so check through the formula's g dependence instead: doubling g^2 n
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
    with pytest.raises(ValueError, match="n = 0"):
        full_deflection_time(params(n=0))


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


# ---------------------------------------------------------------- ladder oracle


def test_ladder_initial_state_and_zero_photon_freeze():
    p = params()
    state = evolve_ladder(p, 0.0)
    assert state.undeflected_population == pytest.approx(1.0, abs=1e-14)
    frozen = evolve_ladder(params(n=0), 123.4)
    assert frozen.undeflected_population == pytest.approx(1.0, abs=1e-12)
    assert frozen.deflected_population == 0.0


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
    assert pair.amplitude((0, m)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert pair.amplitude((0, -m)) == 0.0
    assert pair.amplitude((1, m)) == 0.0
    assert pair.amplitude((1, -m)) == pytest.approx(1j / math.sqrt(2), abs=1e-12)


def test_entangled_pair_state_carries_the_deflection_phase():
    p = params(l0=4)
    pair = entangled_pair_state(p)
    expected = 1j * np.exp(-1j * deflection_phase(p)) / math.sqrt(2)
    assert pair.amplitude((1, -2)) == pytest.approx(expected, abs=1e-12)


def test_pair_reduced_cavity_state_is_maximally_mixed():
    pair = entangled_pair_state(params())
    rho = partial_trace(pair.density(), (2, 2), keep=0)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_pair_state_agrees_with_ladder_oracle():
    fid, warn = pair_oracle_fidelity(params(ladder_halfwidth=8))
    assert fid >= 0.98
    assert not warn


def test_ladder_pair_state_is_normalised():
    state, _ = pair_state_from_ladder(params())
    assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-9
