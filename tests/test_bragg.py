import math
import warnings

import numpy as np
import pytest

from cavityswap.bragg import (
    POPULATION_COLUMNS,
    BraggParams,
    analytic_amplitudes,
    bounded_ladder_time,
    branch_amplitudes,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    deflection_phase,
    entangled_pair_state,
    evolve_ladder,
    full_deflection_time,
    ladder_offsets,
    max_excited_population,
    nonnegative_times,
    ladder_pair_fidelity,
    oracle_compare,
    pair_labels,
    pair_oracle_fidelity,
    pendellosung_frequency,
    pendellosung_phase_rate,
    recoil_frequency,
)
from cavityswap import bragg, quantum
from cavityswap.cli import _LADDER_SLICE
from cavityswap.swap import joint_state, mode_basis
from reference import expm, full_basis_pair_fidelity, full_hamiltonian_by_labels, partial_trace


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


def period_grid(p, points):
    return np.linspace(0.0, 2 * math.pi / pendellosung_frequency(p), points)


def column(comp, name):
    return comp.table[:, POPULATION_COLUMNS.index(name)]


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


def test_ladder_halfwidth_is_capped_before_any_ladder_is_built(monkeypatch):
    # A halfwidth of 1e5 would ask for a (2e5 + 1)^2 dense matrix; the cap
    # refuses it in the parameters, before any Hamiltonian exists.
    def refuse(p):
        raise AssertionError("a Hamiltonian was built")

    monkeypatch.setattr(bragg, "build_effective_hamiltonian", refuse)
    monkeypatch.setattr(bragg, "build_full_hamiltonian", refuse)
    cap = BraggParams.MAX_LADDER_HALFWIDTH
    assert params(ladder_halfwidth=cap).ladder_halfwidth == cap
    for bad in (cap + 1, 100_000):
        with pytest.raises(ValueError, match=f"^ladder_halfwidth must be at most {cap}, got {bad}$"):
            params(ladder_halfwidth=bad)
    # The largest l0 with a finite deflection time (268, at delta/g = 10)
    # keeps its default halfwidth.
    g = 2.0 * 10.0 * (2.0 ** 133 * math.prod(range(2, 267, 2))) ** (1 / 134)
    assert low_ratio_params(g=g, delta=10.0 * g, l0=268).ladder_halfwidth == 140 <= cap
    with pytest.raises(ValueError, match="no finite positive full deflection time"):
        low_ratio_params(g=g, delta=10.0 * g, l0=270)


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
    # atom stays at its incoming site bit for bit: ladder_pair_fidelity
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


@pytest.mark.parametrize("halfwidth, points", [(None, 81), (8, 161)])
def test_ladder_matches_closed_form_over_a_full_period(halfwidth, points):
    # The ladder columns against one scalar closed form per time.
    p = params(ladder_halfwidth=halfwidth)
    comp = oracle_compare(p, period_grid(p, points))
    worst = 0.0
    for t, pu, pd in zip(*(column(comp, name).tolist() for name in ("time", "ladder_undeflected", "ladder_deflected"))):
        c_plus, c_minus = analytic_amplitudes(p, t)
        worst = max(worst, abs(abs(c_plus) ** 2 - pu), abs(abs(c_minus) ** 2 - pd))
    assert worst <= 0.02
    assert comp.max_error <= 0.02
    assert not comp.truncation_warning


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
        worst.append(oracle_compare(p, period_grid(p, 121)).max_error)
    assert all(b > a for a, b in zip(worst, worst[1:]))


def test_truncation_warning_fires_when_the_ladder_spreads():
    # Strong coupling pushes population to the ladder edge.
    p = low_ratio_params(g=320.0, delta=3200.0, ladder_halfwidth=3)
    assert evolve_ladder(p, 0.5).boundary_population > 1e-6
    assert oracle_compare(p, [0.0, 0.5]).truncation_warning
    assert pair_oracle_fidelity(p, 0.5 / full_deflection_time(p))[1]


def test_oracle_compare_matches_single_shot_evolution():
    p = params()
    t = 0.37 * full_deflection_time(p)
    comp = oracle_compare(p, [0.0, 0.5 * t, t])
    direct = evolve_ladder(p, t)
    assert column(comp, "ladder_undeflected")[-1] == pytest.approx(direct.undeflected_population, abs=1e-10)
    assert column(comp, "ladder_deflected")[-1] == pytest.approx(direct.deflected_population, abs=1e-10)


def test_oracle_compare_error_vanishes_at_time_zero():
    comp = oracle_compare(params(), [0.0])
    assert column(comp, "error")[0] == pytest.approx(0.0, abs=1e-14)


def test_oracle_compare_table_matches_the_closed_form_point_by_point():
    # The array table against one analytic_amplitudes call per time.  SIMD
    # cos/sin may round differently from the scalar ones, hence 1e-15.
    for p in (params(), params(l0=4, r=3)):
        times = period_grid(p, 1001)
        comp = oracle_compare(p, times)
        assert comp.table.shape == (times.size, len(POPULATION_COLUMNS))
        reference = []
        ladder = zip(column(comp, "ladder_undeflected").tolist(), column(comp, "ladder_deflected").tolist())
        for t, (lu, ld) in zip(times.tolist(), ladder):
            c_plus, c_minus = analytic_amplitudes(p, t)
            au, ad = abs(c_plus) ** 2, abs(c_minus) ** 2
            reference.append((t, au, ad, lu, ld, max(abs(au - lu), abs(ad - ld))))
        assert np.max(np.abs(comp.table - np.array(reference))) <= 1e-15
        assert comp.max_error == pytest.approx(max(row[-1] for row in reference), abs=1e-15)


@pytest.mark.parametrize("l0", [2, 4, 6])
def test_oracle_compare_bits_depend_on_neither_block_size_nor_grid(monkeypatch, l0):
    # A sweep row tabulates one time, entangle and oracle-compare a grid.
    # Grids of 4097 and 7169 times leave a lone last time for blocks of
    # 4096, 1024 and 7; every time must come out bit for bit the same
    # whatever the block, alone or inside its grid.
    for r in (1, 3):
        p = params(l0=l0, r=r)
        for points in (4097, 7169):
            times = np.linspace(0.0, 2.5 * full_deflection_time(p), points)
            comps = []
            for block in (4096, 1024, 512, 7):
                monkeypatch.setattr(quantum, "SERIES_BLOCK", block)
                comps.append(oracle_compare(p, times))
                for k in (1, 6, 13, 1000, points // 2, points - 1):
                    assert np.array_equal(oracle_compare(p, [times[k]]).table[0], comps[-1].table[k])
                assert np.array_equal(oracle_compare(p, times[-1:]).final_amplitudes, comps[-1].final_amplitudes)
            for other in comps[1:]:
                assert np.array_equal(other.table, comps[0].table)
                assert np.array_equal(other.final_amplitudes, comps[0].final_amplitudes)
                assert (other.max_error, other.truncation_warning) == (comps[0].max_error, comps[0].truncation_warning)


@pytest.mark.parametrize("l0, halfwidth", [(2, None), (4, None), (2, 3)])
def test_oracle_compare_of_slices_equal_the_whole_comparison(monkeypatch, l0, halfwidth):
    # Two full slices and a one-time tail, one call each as the ladder
    # commands make them: the tables join to the whole table bit for bit,
    # t = 0 included, the largest slice error is the whole max_error, and
    # the truncation flag of the whole grid is any slice's.  With the limit
    # set between the slices' boundary populations on the tight ladder of
    # halfwidth 3, only the last slice reads clean.
    size = _LADDER_SLICE
    p = params(l0=l0, ladder_halfwidth=halfwidth)
    times = period_grid(p, 2 * size + 1)
    whole = oracle_compare(p, times)
    starts = range(0, len(times), size)
    slices = [oracle_compare(p, times[s:s + size]) for s in starts]
    assert [len(c.table) for c in slices] == [size, size, 1]
    assert np.concatenate([c.table for c in slices]).tobytes() == whole.table.tobytes()
    assert (column(slices[0], "ladder_undeflected")[0], column(slices[0], "ladder_deflected")[0]) == (1.0, 0.0)
    assert max(c.max_error for c in slices) == whole.max_error
    assert slices[-1].final_amplitudes.tobytes() == whole.final_amplitudes.tobytes()
    assert not whole.truncation_warning
    monkeypatch.setattr(bragg, "TRUNCATION_LIMIT", 1e-18)
    flags = [oracle_compare(p, times[s:s + size]).truncation_warning for s in starts]
    assert oracle_compare(p, times).truncation_warning == any(flags)
    if halfwidth == 3:
        assert flags == [True, True, False]


def test_oracle_compare_stacks_one_ladder_layout():
    # Each member of a stack reads as its own call; a stack that mixes
    # layouts, or lacks one row of times per set, is refused.
    stack = (params(delta=100.0), params(delta=150.0))
    times = [np.linspace(0.0, 1.3 * full_deflection_time(p), 9) for p in stack]
    for p, t, comp in zip(stack, times, oracle_compare(stack, times)):
        alone = oracle_compare(p, t)
        assert np.array_equal(comp.table, alone.table)
        assert (comp.max_error, comp.truncation_warning) == (alone.max_error, alone.truncation_warning)
        assert np.array_equal(comp.final_amplitudes, alone.final_amplitudes)
    message = "^a stack of ladders needs one l0 and ladder_halfwidth and one row of times per set$"
    for bad_stack, bad_times in (((params(), params(l0=4)), times), (stack, times[:1]), (stack, times[0])):
        with pytest.raises(ValueError, match=message):
            oracle_compare(bad_stack, bad_times)


def test_ladder_times_whose_phases_overflow_are_refused():
    # max |diagonal| + 2 |coupling| bounds every eigenvalue of the ladder,
    # so a time that passes keeps every phase t * lambda of propagate finite.
    for p in (params(), params(l0=4, ladder_halfwidth=9), params(l0=142), low_ratio_params(delta=10.0)):
        h = build_effective_hamiltonian(p)
        bound = float(np.max(np.abs(np.diag(h).real))) + 2.0 * abs(h[0, 1].real)
        assert np.max(np.abs(np.linalg.eigvalsh(h))) <= bound
        edge = np.nextafter(np.finfo(float).max / bound, 0.0)
        assert bounded_ladder_time(p, edge) == edge
        assert bounded_ladder_time(p, 0.0) == 0.0
        oracle_compare(p, [edge])  # no RuntimeWarning: an error under this suite's filter
        with pytest.raises(ValueError, match="x the ladder spectral bound .* leaves the float range$"):
            bounded_ladder_time(p, 2.0 * edge)
    # At l0 = 142 one Pendelloesung period already overflows the phases.
    p = params(l0=142)
    with pytest.raises(ValueError, match="leaves the float range"):
        bounded_ladder_time(p, 2.0 * math.pi / pendellosung_frequency(p))


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
        oracle_compare(params(), [0.0, math.inf])


def test_oracle_compare_refuses_an_empty_grid():
    # An empty grid has no last time to keep the amplitudes of.
    for p, times in ((params(), []), ((params(), params(delta=150.0)), [[], []])):
        with pytest.raises(ValueError, match="^a comparison needs at least one time$"):
            oracle_compare(p, times)


def test_oracle_compare_keeps_the_last_amplitudes():
    # The final amplitudes are those whose populations fill the table's last row.
    p = params(l0=4)
    comp = oracle_compare(p, period_grid(p, 7))
    assert comp.final_amplitudes.shape == (2,)
    populations = np.abs(comp.final_amplitudes) ** 2
    assert populations.tolist() == [column(comp, "ladder_undeflected")[-1], column(comp, "ladder_deflected")[-1]]


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


@pytest.mark.parametrize("l0", [2, 4, 6])
@pytest.mark.parametrize("wide", [False, True])
def test_ladder_pair_fidelity_matches_the_full_basis_overlap(l0, wide):
    # The four-site overlap of a comparison's last amplitudes against the
    # overlap over both whole ladders of one full-amplitude evolution.
    for r in (1, 3):
        p = params(l0=l0, r=r, ladder_halfwidth=None if wide else l0 // 2 + 3)
        for ts in (1.0, 0.7, 0.0, 1.3):
            fid, warn = pair_oracle_fidelity(p, ts)
            comp = oracle_compare(p, [ts * full_deflection_time(p)])
            assert fid == ladder_pair_fidelity(p, comp, ts) and warn == comp.truncation_warning
            assert abs(fid - full_basis_pair_fidelity(p, ts)) <= 1e-15, (r, ts)
            assert not warn
