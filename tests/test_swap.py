import json
import math

import numpy as np
import pytest

from cavityswap.bragg import BraggParams, deflection_phase
from cavityswap.cli import main
from cavityswap.metrics import _row_seed, wilson_interval
from cavityswap.swap import (
    CLASS_TARGETS,
    ClickPattern,
    apply_beam_splitter,
    beam_splitter_unitary,
    click_distribution,
    epr_decomposition_check,
    herald_distribution,
    joint_state,
    joint_state_from_amplitudes,
    mode_basis,
    run_protocol,
    single_particle_mixer,
)
from reference import concurrence, fidelity, first_quantised_lift, partial_trace, two_pair_joint_amplitudes

P2 = BraggParams()
P4 = BraggParams(l0=4)

PSI_PLUS_PATTERNS = {"D4&D2", "D3&D1"}
PSI_MINUS_PATTERNS = {"D4&D1", "D3&D2"}
ZERO_PATTERNS = {"D4&D3", "D2&D1"}
DOUBLE_00 = {"D4&D4", "D3&D3"}
DOUBLE_11 = {"D2&D2", "D1&D1"}


def conditional_cavity_state(s, pattern):
    """Brute-force reference for one herald: project the whole mode-mixed
    joint state on the click pattern with a full-space projector, trace out
    the modes, and return (two-cavity density matrix, pattern probability)."""
    basis = mode_basis(2)
    occ_index = next(j for j, occ in enumerate(basis) if ClickPattern.from_occupation(occ) == pattern)
    proj = np.zeros((len(basis), len(basis)))
    proj[occ_index, occ_index] = 1.0
    proj_full = np.kron(np.eye(4), proj)
    vec = s.reshape(-1)
    projected = proj_full @ np.outer(vec, vec.conj()) @ proj_full
    prob = float(np.trace(projected).real)
    return partial_trace(projected / prob, (4, len(basis)), keep=0), prob


def mode_vector(occ, *extra_occupations):
    basis = mode_basis(2)
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.index(occ)] = 1.0
    for occ2, coeff in extra_occupations:
        vec[basis.index(occ2)] = coeff
    return vec


# ---------------------------------------------------------------- joint state


def test_joint_state_branch_amplitudes_at_zero_phase():
    # Rows are the cavity pairs 00, 01, 10, 11.
    js = joint_state(P2)
    basis = mode_basis(2)
    expected = np.zeros((4, len(basis)), dtype=complex)
    for row, occ, amp in (
        (0, (1, 1, 0, 0), 0.5),
        (1, (1, 0, 0, 1), 0.5j),
        (2, (0, 1, 1, 0), 0.5j),
        (3, (0, 0, 1, 1), -0.5),
    ):
        expected[row, basis.index(occ)] = amp
    assert js.shape == expected.shape
    assert np.max(np.abs(js - expected)) <= 1e-14


def test_joint_state_is_normalised_for_any_timing():
    rng = np.random.default_rng(8)
    for ts in (1.0, 0.0, *rng.uniform(0.0, 2.0, size=8)):
        js = joint_state(P2, time_scale=float(ts))
        assert abs(np.linalg.norm(js) - 1.0) <= 1e-12


def test_joint_state_reduced_cavities_are_maximally_mixed():
    vec = joint_state(P2).reshape(-1)
    rho = partial_trace(np.outer(vec, vec.conj()), (2, 2, len(mode_basis(2))), keep=(0, 1))
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_joint_state_respects_atom_number_superselection():
    js = joint_state(P2, time_scale=0.87)
    for occ, column in zip(mode_basis(2), js.T):
        assert sum(occ) == 2 or not column.any()


def test_joint_state_from_amplitudes_matches_the_term_by_term_expansion():
    rng = np.random.default_rng(12)
    pairs = [(0.0, 1.0), (1.0, 0.0), (0.0, 1j)]
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        pairs.append(tuple(c / np.linalg.norm(c)))
    for c_plus, c_minus in pairs:
        want = two_pair_joint_amplitudes(complex(c_plus), complex(c_minus), mode_basis(2))
        assert np.array_equal(joint_state_from_amplitudes(c_plus, c_minus).reshape(-1), want)


def test_joint_state_from_amplitudes_rejects_unnormalised_branches():
    with pytest.raises(ValueError, match="c\\+"):
        joint_state_from_amplitudes(0.9, 0.9)


def test_joint_state_functions_reject_a_state_of_the_wrong_dimension():
    js = joint_state_from_amplitudes(0.0, 1.0)
    for check in (apply_beam_splitter, lambda s: epr_decomposition_check(s, 0.0), click_distribution):
        for wrong in (js[:, :-1], js.reshape(-1), js[None]):
            with pytest.raises(ValueError, match="joint state"):
                check(wrong)


# ---------------------------------------------------------------- EPR identity


@pytest.mark.parametrize("p", [P2, P4], ids=["phase=0", "phase=-pi/4"])
def test_epr_decomposition_identity(p):
    ok, residual = epr_decomposition_check(joint_state(p), deflection_phase(p))
    assert ok
    assert residual <= 1e-12


def test_epr_decomposition_detects_a_perturbed_amplitude():
    broken = joint_state(P2)
    broken[0, 5] += 1e-6
    ok, residual = epr_decomposition_check(broken, deflection_phase(P2))
    assert not ok
    assert residual > 1e-12


# ---------------------------------------------------------------- beam splitter


def test_beam_splitter_is_unitary_on_the_two_atom_space():
    u = beam_splitter_unitary()
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


def test_beam_splitter_conserves_atom_number():
    # An amplitude leaking out of the n-atom sector would raise in
    # basis.index or break unitarity within the sector.
    for n in range(4):
        u = beam_splitter_unitary(mode_basis(n))
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


def test_beam_splitter_lift_matches_the_first_quantised_lift():
    for total in range(4):
        basis = mode_basis(total)
        reference = first_quantised_lift(single_particle_mixer(), basis)
        assert np.max(np.abs(beam_splitter_unitary(basis) - reference)) <= 1e-15


def test_single_atom_splits_evenly_between_its_two_detectors():
    basis = mode_basis(1)
    u = beam_splitter_unitary(basis)
    col = basis.index((1, 0, 0, 0))
    probs = np.abs(u[:, col]) ** 2
    assert probs[basis.index((1, 0, 0, 0))] == pytest.approx(0.5, abs=1e-12)
    assert probs[basis.index((0, 1, 0, 0))] == pytest.approx(0.5, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_antisymmetric_two_atom_input_keeps_its_form():
    u = beam_splitter_unitary()
    vec = (mode_vector((1, 0, 0, 1)) - mode_vector((0, 1, 1, 0))) / math.sqrt(2)
    out = u @ vec
    expected = (mode_vector((1, 0, 0, 1)) - mode_vector((0, 1, 1, 0))) / math.sqrt(2)
    overlap = np.vdot(expected, out)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_two_atom_input_bunches_into_matching_ports():
    # Two-particle interference: the symmetric combination exits with both
    # atoms on the same port index, up to a global phase.
    u = beam_splitter_unitary()
    vec = (mode_vector((1, 0, 0, 1)) + mode_vector((0, 1, 1, 0))) / math.sqrt(2)
    out = u @ vec
    expected = (mode_vector((1, 0, 1, 0)) + mode_vector((0, 1, 0, 1))) / math.sqrt(2)
    assert abs(np.vdot(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_undeflected_pair_coalesces_like_hong_ou_mandel():
    # Both atoms entering the same mixer never exit on opposite ports.
    basis = mode_basis(2)
    u = beam_splitter_unitary()
    out = u @ mode_vector((1, 1, 0, 0))
    assert abs(out[basis.index((1, 1, 0, 0))]) <= 1e-14
    assert abs(out[basis.index((2, 0, 0, 0))]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out[basis.index((0, 2, 0, 0))]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_phi_branch_inputs_produce_no_cross_port_amplitudes():
    # The deflected/undeflected pair combinations behind the phi heralds
    # bunch entirely into doubles for any relative phase.
    basis = mode_basis(2)
    u = beam_splitter_unitary()
    coincidences = [basis.index(occ) for occ in basis if max(occ) == 1]
    for phase in (0.0, -math.pi / 4, 1.234):
        vec = (
            mode_vector((1, 1, 0, 0)) + np.exp(-2j * phase) * mode_vector((0, 0, 1, 1))
        ) / math.sqrt(2)
        out = u @ vec
        assert np.max(np.abs(out[coincidences])) <= 1e-14


# ---------------------------------------------------------------- click distribution


def test_click_distribution_nominal_probabilities():
    dist = herald_distribution(P2)
    by_label = {h.pattern.label: h for h in dist}
    assert len(dist) == 10
    for label in ZERO_PATTERNS:
        assert by_label[label].probability == 0.0
        assert by_label[label].classification == "none"
    for h in dist:
        if h.pattern.label not in ZERO_PATTERNS:
            assert abs(h.probability - 0.125) <= 1e-12
    assert abs(sum(h.probability for h in dist) - 1.0) <= 1e-12


def test_click_distribution_herald_classes():
    dist = herald_distribution(P2)
    for h in dist:
        label = h.pattern.label
        if label in PSI_PLUS_PATTERNS:
            assert h.classification == "psi_plus"
            assert abs(h.fidelity_to_class - 1.0) <= 1e-10
            assert abs(h.concurrence - 1.0) <= 1e-10
        elif label in PSI_MINUS_PATTERNS:
            assert h.classification == "psi_minus"
            assert abs(h.fidelity_to_class - 1.0) <= 1e-10
            assert abs(h.concurrence - 1.0) <= 1e-10
        elif label in DOUBLE_00:
            assert h.classification == "product_00"
            assert h.concurrence <= 1e-10
        elif label in DOUBLE_11:
            assert h.classification == "product_11"
            assert h.concurrence <= 1e-10


def test_click_distribution_heralds_are_pure_at_nominal_timing():
    for h in herald_distribution(P2):
        if h.probability > 0.0:
            rho = h.conditional_state
            assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10


def test_heralds_are_independent_of_the_deflection_phase():
    reference = herald_distribution(P2)
    for phase in (-math.pi / 4, 1.234):
        dist = click_distribution(
            apply_beam_splitter(joint_state_from_amplitudes(0.0, 1j * np.exp(-1j * phase)))
        )
        for a, b in zip(reference, dist):
            assert a.pattern == b.pattern
            assert abs(a.probability - b.probability) <= 1e-12
            assert a.classification == b.classification
            if a.probability > 0.0:
                assert abs(a.fidelity_to_class - b.fidelity_to_class) <= 1e-12


def test_probability_completeness_for_arbitrary_timing():
    rng = np.random.default_rng(31)
    for ts in rng.uniform(0.0, 2.0, size=10):
        dist = herald_distribution(P2, time_scale=float(ts))
        assert abs(sum(h.probability for h in dist) - 1.0) <= 1e-12


def test_paper_table_labels_disagree_with_the_calculation():
    dist = herald_distribution(P2)
    for h in dist:
        if h.probability > 0.0:
            assert h.classification != h.paper_label


def test_conditional_state_via_projection_and_partial_trace():
    # l0 = 4 off nominal timing gives complex conditional states.
    for p in (P2, P4):
        for ts in (1.0, 0.7):
            post = apply_beam_splitter(joint_state(p, time_scale=ts))
            for h in click_distribution(post):
                if h.probability == 0.0:
                    continue
                rho, prob = conditional_cavity_state(post, h.pattern)
                assert abs(prob - h.probability) <= 1e-12
                assert np.max(np.abs(rho - h.conditional_state)) <= 1e-12


def test_click_distribution_matches_the_brute_force_reference():
    # Every herald statistic, computed for all patterns at once, against
    # projection and partial trace of the whole state: post-mixer states of
    # random branch pairs, whose heralds are symmetric under exchanging the
    # cavities, then random states of the same space, whose heralds are not.
    # On those Wootters' eigen-route reads up to ~1.1e-8 off (the square
    # root of eigenvalue round-off), hence its looser concurrence bound.
    rng = np.random.default_rng(2024)
    shape = joint_state_from_amplitudes(0.0, 1.0).shape
    states = []
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c_plus, c_minus = c / np.linalg.norm(c)
        states.append((apply_beam_splitter(joint_state_from_amplitudes(c_plus, c_minus)), 1e-8))
    for _ in range(20):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        states.append((amps / np.linalg.norm(amps), 1e-7))
    for post, concurrence_bound in states:
        for h in click_distribution(post):
            if h.probability == 0.0:
                assert h.conditional_state is None and h.pattern.label in ZERO_PATTERNS
                continue
            rho, prob = conditional_cavity_state(post, h.pattern)
            assert abs(prob - h.probability) <= 1e-12
            assert np.max(np.abs(rho - h.conditional_state)) <= 1e-12
            fids = {name: fidelity(rho, target) for name, target in CLASS_TARGETS.items()}
            assert h.classification == max(fids, key=fids.get)
            assert abs(h.fidelity_to_class - fids[h.classification]) <= 1e-12
            assert abs(h.concurrence - concurrence(rho)) <= concurrence_bound


# ---------------------------------------------------------------- sampling


def test_sampled_frequencies_match_the_exact_distribution():
    report = run_protocol(P2, shots=100_000, seed=7)
    sigma = math.sqrt(0.125 * 0.875 / report.retained_shots)
    for h, count in zip(report.results, report.counts):
        freq = count / report.retained_shots
        if h.probability > 0.0:
            assert abs(freq - 0.125) <= 4 * sigma
        else:
            assert count == 0


@pytest.mark.parametrize("l0", (2, 4, 6))
@pytest.mark.parametrize("r", (1, 3))
def test_closed_form_concurrence_matches_wootters(l0, r):
    # Each herald is pure, so 2|ad - bc| must agree with the mixed-state
    # Wootters routine up to that routine's eigenvalue round-off.
    for ts in (0.0, 0.3, 0.6, 0.7, 1.0, 1.3):
        for h in herald_distribution(BraggParams(l0=l0, r=r), ts):
            if h.probability > 0.0:
                assert 0.0 <= h.concurrence <= 1.0
                assert abs(h.concurrence - concurrence(h.conditional_state)) <= 1e-8


def test_product_doubles_have_zero_concurrence_off_nominal_timing():
    # The Wootters eigen-route reads 3.4e-9 here: the square root of round-off.
    by_label = {h.pattern.label: h for h in herald_distribution(P2, 0.6)}
    for label in DOUBLE_00:
        assert by_label[label].probability > 0.0
        assert by_label[label].concurrence <= 1e-15


def test_herald_distribution_solves_no_eigenproblem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("herald_distribution called numpy.linalg")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for ts in (0.6, 1.0):
        assert len(herald_distribution(P2, ts)) == 10


# ---------------------------------------------------------------- protocol runs


def test_protocol_nominal_success_statistics():
    report = run_protocol(P2, shots=20_000, seed=3)
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.mean_psi_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.mean_psi_concurrence == pytest.approx(1.0, abs=1e-10)
    low, high = wilson_interval(round(report.success_rate * report.retained_shots), report.retained_shots, z=4.0)
    assert low <= 0.5 <= high
    assert set(report.paper_label_divergences) == DOUBLE_00 | DOUBLE_11 | PSI_PLUS_PATTERNS | PSI_MINUS_PATTERNS


def test_protocol_without_interaction_yields_separable_doubles():
    report = run_protocol(P2, shots=2_000, seed=5, time_scale=0.0)
    nonzero = [h for h in report.results if h.probability > 0.0]
    assert {h.pattern.label for h in nonzero} == DOUBLE_00
    for h in nonzero:
        assert h.probability == pytest.approx(0.5, abs=1e-12)
        assert h.concurrence <= 1e-10


def test_protocol_timing_error_degrades_psi_fidelity():
    leak = math.sin(math.pi * 0.05) ** 2
    report = run_protocol(P2, shots=2_000, seed=5, time_scale=1.1)
    assert 0.5 < report.mean_psi_fidelity < 1.0
    assert report.mean_psi_fidelity == pytest.approx(1.0 / (1.0 + leak), abs=1e-9)
    fidelities = [
        run_protocol(P2, shots=500, seed=5, time_scale=ts).mean_psi_fidelity
        for ts in (1.0, 1.05, 1.1, 1.2)
    ]
    assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


def test_protocol_psi_minus_heralds_stay_exact_under_timing_error():
    # The antisymmetric projection removes the undeflected leakage, so the
    # cross-momentum same-index patterns keep fidelity one; only their
    # probability shrinks.
    report = run_protocol(P2, shots=500, seed=5, time_scale=1.1)
    for h in report.results:
        if h.classification == "psi_minus":
            assert abs(h.fidelity_to_class - 1.0) <= 1e-10


def test_protocol_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots"):
        run_protocol(P2, shots=0, seed=1)


def test_protocol_detection_efficiency_discards_shots():
    report = run_protocol(P2, shots=50_000, seed=7, detection_efficiency=0.8)
    assert report.retained_shots + report.discarded_shots == 50_000
    assert report.retained_shots == pytest.approx(50_000 * 0.64, rel=0.05)
    low, high = wilson_interval(report.discarded_shots, 50_000, z=4.0)
    assert low <= 1.0 - 0.8**2 <= high
    sigma = math.sqrt(0.125 * 0.875 / report.retained_shots)
    for h, count in zip(report.results, report.counts):
        if h.probability > 0.0:
            assert abs(count / report.retained_shots - 0.125) <= 4 * sigma
    # At this timing the pattern probabilities sum to 1 - 5.6e-16; ideal
    # detectors must still discard nothing.
    assert run_protocol(P2, shots=50_000, seed=7, time_scale=0.7).discarded_shots == 0


def test_protocol_counts_are_consistent_at_a_billion_shots():
    report = run_protocol(P2, shots=10**9, seed=13, detection_efficiency=0.9)
    assert sum(report.counts) == report.retained_shots
    assert report.retained_shots + report.discarded_shots == 10**9
    for h, count in zip(report.results, report.counts):
        if h.probability > 0.0:
            low, high = wilson_interval(count, report.retained_shots, z=4.0)
            assert low <= h.probability <= high
        else:
            assert count == 0


def test_protocol_summary_dumps_int_and_seed_sequence_seeds():
    # An int seed is written as it is; a sweep row's SeedSequence as its
    # entropy and spawn key, which rebuild the same draw.
    assert '"seed": 7,' in json.dumps(run_protocol(P2, shots=10, seed=7).summary())
    report = run_protocol(P2, shots=1000, seed=_row_seed(3, 2))
    seed = json.loads(json.dumps(report.summary()))["seed"]
    assert seed == {"entropy": 3, "spawn_key": [2]}
    again = run_protocol(P2, shots=1000, seed=np.random.SeedSequence(seed["entropy"], spawn_key=seed["spawn_key"]))
    assert again.counts == report.counts


def test_protocol_report_serialisation_is_deterministic(tmp_path):
    argv = ["protocol", "--shots", "10000", "--seed", "11", "--detection-efficiency", "0.9",
            "--out", str(tmp_path)]
    names = ("protocol_report.csv", "protocol_summary.json")
    assert main(argv) == 0
    first = [(tmp_path / name).read_text() for name in names]
    assert main(argv) == 0
    assert [(tmp_path / name).read_text() for name in names] == first


def test_protocol_report_csv_columns(tmp_path):
    assert main(["protocol", "--shots", "100", "--seed", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "protocol_report.csv").read_text().splitlines()
    assert lines[0].startswith("# cavityswap ")
    assert lines[1].startswith("# config: ")
    assert lines[2] == "pattern,probability,empirical_frequency,classification,paper_label,fidelity,concurrence"
    assert len(lines) == 3 + 10
