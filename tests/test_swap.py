import json
import math

import numpy as np
import pytest

from cavityswap import swap
from cavityswap.bragg import BraggParams, deflection_phase
from cavityswap.cli import main
from cavityswap.metrics import _row_seed, wilson_interval
from cavityswap.swap import (
    CLASS_NAMES,
    CLASS_TARGETS,
    PAPER_TABLE_LABELS,
    PATTERN_LABELS,
    beam_splitter_unitary,
    branch_pair,
    epr_decomposition_check,
    herald_batch,
    herald_distribution,
    joint_state,
    mode_basis,
    paper_label_divergences,
    run_protocol,
    single_particle_mixer,
)
from reference import DETECTORS, concurrence, fidelity, first_quantised_lift, partial_trace, two_pair_joint_amplitudes

P2 = BraggParams()
P4 = BraggParams(l0=4)

PSI_PLUS_PATTERNS = {"D4&D2", "D3&D1"}
PSI_MINUS_PATTERNS = {"D4&D1", "D3&D2"}
ZERO_PATTERNS = {"D4&D3", "D2&D1"}
DOUBLE_00 = {"D4&D4", "D3&D3"}
DOUBLE_11 = {"D2&D2", "D1&D1"}


def patterns(heralds, row=0):
    """(label, probability, class name, fidelity, concurrence) of every
    pattern of one herald row, in pattern order."""
    probs, classes, fids, concs = heralds.row(row)
    return [
        (label, prob, CLASS_NAMES[k], fid, c)
        for label, prob, k, fid, c in zip(PATTERN_LABELS, probs, classes, fids, concs)
    ]


def post_mixer(s):
    """A (4, 10) joint state after both atoms pass the mode mixers."""
    return s @ beam_splitter_unitary().T


def conditional_cavity_state(s, j):
    """Brute-force reference for one herald: project the whole mode-mixed
    joint state on click pattern j with a full-space projector, trace out
    the modes, and return (two-cavity density matrix, pattern probability)."""
    basis = mode_basis(2)
    proj = np.zeros((len(basis), len(basis)))
    proj[j, j] = 1.0
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


def test_joint_amplitudes_match_the_term_by_term_expansion():
    rng = np.random.default_rng(12)
    pairs = [(0.0, 1.0), (1.0, 0.0), (0.0, 1j)]
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        pairs.append(tuple(c / np.linalg.norm(c)))
    # Complex pairs, as branch_pair returns them.
    pairs = [(complex(c_plus), complex(c_minus)) for c_plus, c_minus in pairs]
    amps = swap._joint_amplitudes(pairs)
    assert amps.shape == (len(pairs), 4, len(mode_basis(2)))
    for (c_plus, c_minus), state in zip(pairs, amps):
        want = two_pair_joint_amplitudes(c_plus, c_minus, mode_basis(2))
        assert np.array_equal(state.reshape(-1), want)


@pytest.mark.parametrize("pair, message", [
    ((0.9, 0.9), "c\\+"),
    ((math.nan, 1.0), "finite"),
])
def test_branch_pair_rejects_unnormalised_or_nonfinite_branches(monkeypatch, pair, message):
    monkeypatch.setattr(swap, "branch_amplitudes", lambda p, time_scale: pair)
    with pytest.raises(ValueError, match=message):
        branch_pair(P2)
    with pytest.raises(ValueError, match=message):
        joint_state(P2)


def test_epr_decomposition_check_rejects_a_state_of_the_wrong_dimension():
    js = joint_state(P2)
    for wrong in (js[:, :-1], js.reshape(-1), js[None]):
        with pytest.raises(ValueError, match="joint state"):
            epr_decomposition_check(wrong, 0.0)


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


# ---------------------------------------------------------------- heralds


def test_pattern_labels_name_the_detectors_of_each_occupation():
    # Output mode i feeds DETECTORS[i]; a double names its detector twice.
    for occ, label in zip(mode_basis(2), PATTERN_LABELS, strict=True):
        clicks = [DETECTORS[mode] for mode, count in enumerate(occ) for _ in range(count)]
        assert label == "&".join(clicks)
    assert set(PATTERN_LABELS) == set(PAPER_TABLE_LABELS)


def test_herald_distribution_nominal_probabilities():
    heralds = herald_distribution(P2)
    assert heralds.probabilities.shape == (1, 10)
    for label, prob, name, fid, c in patterns(heralds):
        if label in ZERO_PATTERNS:
            assert prob == 0.0 and name == "none" and fid == 0.0 and c == 0.0
        else:
            assert abs(prob - 0.125) <= 1e-12
    assert abs(sum(heralds.row(0)[0]) - 1.0) <= 1e-12


def test_herald_distribution_classes():
    for label, _, name, fid, c in patterns(herald_distribution(P2)):
        if label in PSI_PLUS_PATTERNS:
            assert name == "psi_plus"
            assert abs(fid - 1.0) <= 1e-10
            assert abs(c - 1.0) <= 1e-10
        elif label in PSI_MINUS_PATTERNS:
            assert name == "psi_minus"
            assert abs(fid - 1.0) <= 1e-10
            assert abs(c - 1.0) <= 1e-10
        elif label in DOUBLE_00:
            assert name == "product_00"
            assert c <= 1e-10
        elif label in DOUBLE_11:
            assert name == "product_11"
            assert c <= 1e-10


def test_heralds_are_pure_at_nominal_timing():
    post = post_mixer(joint_state(P2))
    for j, prob in enumerate(herald_distribution(P2).row(0)[0]):
        if prob > 0.0:
            rho, _ = conditional_cavity_state(post, j)
            assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10


def test_heralds_are_independent_of_the_deflection_phase():
    reference = patterns(herald_distribution(P2))
    for phase in (-math.pi / 4, 1.234):
        heralds = herald_batch([(0j, complex(1j * np.exp(-1j * phase)))])
        for a, b in zip(reference, patterns(heralds)):
            assert a[0] == b[0]
            assert abs(a[1] - b[1]) <= 1e-12
            assert a[2] == b[2]
            if a[1] > 0.0:
                assert abs(a[3] - b[3]) <= 1e-12


def test_probability_completeness_for_arbitrary_timing():
    rng = np.random.default_rng(31)
    for ts in rng.uniform(0.0, 2.0, size=10):
        probs = herald_distribution(P2, time_scale=float(ts)).row(0)[0]
        assert abs(sum(probs) - 1.0) <= 1e-12


def test_paper_table_labels_disagree_with_the_calculation():
    for label, prob, name, _, _ in patterns(herald_distribution(P2)):
        if prob > 0.0:
            assert name != PAPER_TABLE_LABELS[label]


def assert_heralds_match_the_reference(heralds, posts, concurrence_bound):
    """Every herald statistic of every row against projection and partial
    trace of that row's whole post-mixer state."""
    for row, post in enumerate(posts):
        for j, (label, prob, name, fid, c) in enumerate(patterns(heralds, row)):
            if prob == 0.0:
                assert name == "none" and label in ZERO_PATTERNS
                continue
            rho, want = conditional_cavity_state(post, j)
            assert abs(want - prob) <= 1e-12
            fids = {target: fidelity(rho, vec) for target, vec in CLASS_TARGETS.items()}
            assert name == max(fids, key=fids.get)
            assert abs(fid - fids[name]) <= 1e-12
            assert abs(c - concurrence(rho)) <= concurrence_bound


def test_conditional_state_via_projection_and_partial_trace():
    # l0 = 4 off nominal timing gives complex conditional states.
    for p in (P2, P4):
        for ts in (1.0, 0.7):
            post = post_mixer(joint_state(p, time_scale=ts))
            assert_heralds_match_the_reference(herald_distribution(p, ts), [post], 1e-8)


def test_heralds_match_the_brute_force_reference():
    # Every herald statistic, computed for all states and patterns at once,
    # against projection and partial trace of the whole state: post-mixer
    # states of random branch pairs (through herald_batch), whose heralds
    # are symmetric under exchanging the cavities, then random states of the
    # same space (through the array core), whose heralds are not.  On those
    # Wootters' eigen-route reads up to ~1.1e-8 off (the square root of
    # eigenvalue round-off), hence its looser concurrence bound.
    rng = np.random.default_rng(2024)
    pairs = []
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c_plus, c_minus = c / np.linalg.norm(c)
        pairs.append((complex(c_plus), complex(c_minus)))
    states = []
    for _ in range(20):
        amps = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
        states.append(amps / np.linalg.norm(amps))
    amps = np.stack(states)
    batches = (
        (herald_batch(pairs), post_mixer(swap._joint_amplitudes(pairs)), 1e-8),
        (swap._heralds(amps), amps, 1e-7),
    )
    for heralds, posts, concurrence_bound in batches:
        assert_heralds_match_the_reference(heralds, posts, concurrence_bound)


# ---------------------------------------------------------------- sampling


def test_sampled_frequencies_match_the_exact_distribution():
    heralds, sample = run_protocol(P2, shots=100_000, seed=7)
    sigma = math.sqrt(0.125 * 0.875 / sample.retained_shots)
    for prob, count in zip(heralds.row(0)[0], sample.counts):
        freq = count / sample.retained_shots
        if prob > 0.0:
            assert abs(freq - 0.125) <= 4 * sigma
        else:
            assert count == 0


@pytest.mark.parametrize("l0", (2, 4, 6))
@pytest.mark.parametrize("r", (1, 3))
def test_closed_form_concurrence_matches_wootters(l0, r):
    # Each herald is pure, so 2|ad - bc| must agree with the mixed-state
    # Wootters routine up to that routine's eigenvalue round-off.
    p = BraggParams(l0=l0, r=r)
    for ts in (0.0, 0.3, 0.6, 0.7, 1.0, 1.3):
        post = post_mixer(joint_state(p, time_scale=ts))
        probs, _, _, concs = herald_distribution(p, ts).row(0)
        for j, (prob, c) in enumerate(zip(probs, concs)):
            if prob > 0.0:
                assert 0.0 <= c <= 1.0
                assert abs(c - concurrence(conditional_cavity_state(post, j)[0])) <= 1e-8


def test_product_doubles_have_zero_concurrence_off_nominal_timing():
    # The Wootters eigen-route reads 3.4e-9 here: the square root of round-off.
    by_label = {label: (prob, c) for label, prob, _, _, c in patterns(herald_distribution(P2, 0.6))}
    for label in DOUBLE_00:
        prob, c = by_label[label]
        assert prob > 0.0
        assert c <= 1e-15


def test_herald_distribution_solves_no_eigenproblem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("herald_distribution called numpy.linalg")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for ts in (0.6, 1.0):
        assert herald_distribution(P2, ts).probabilities.shape == (1, 10)


# ---------------------------------------------------------------- protocol runs


def test_protocol_nominal_success_statistics():
    heralds, sample = run_protocol(P2, shots=20_000, seed=3)
    assert sample.success_probability == pytest.approx(0.5, abs=1e-12)
    assert sample.mean_psi_fidelity == pytest.approx(1.0, abs=1e-10)
    assert sample.mean_psi_concurrence == pytest.approx(1.0, abs=1e-10)
    assert sample.success_rate == sample.successes / sample.retained_shots
    low, high = wilson_interval(sample.successes, sample.retained_shots, z=4.0)
    assert low <= 0.5 <= high
    assert set(paper_label_divergences(heralds)) == DOUBLE_00 | DOUBLE_11 | PSI_PLUS_PATTERNS | PSI_MINUS_PATTERNS


def test_protocol_without_interaction_yields_separable_doubles():
    heralds, _ = run_protocol(P2, shots=2_000, seed=5, time_scale=0.0)
    nonzero = [(label, prob, c) for label, prob, _, _, c in patterns(heralds) if prob > 0.0]
    assert {label for label, _, _ in nonzero} == DOUBLE_00
    for _, prob, c in nonzero:
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert c <= 1e-10


def test_protocol_timing_error_degrades_psi_fidelity():
    leak = math.sin(math.pi * 0.05) ** 2
    _, sample = run_protocol(P2, shots=2_000, seed=5, time_scale=1.1)
    assert 0.5 < sample.mean_psi_fidelity < 1.0
    assert sample.mean_psi_fidelity == pytest.approx(1.0 / (1.0 + leak), abs=1e-9)
    fidelities = [
        run_protocol(P2, shots=500, seed=5, time_scale=ts)[1].mean_psi_fidelity
        for ts in (1.0, 1.05, 1.1, 1.2)
    ]
    assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


def test_protocol_psi_minus_heralds_stay_exact_under_timing_error():
    # The antisymmetric projection removes the undeflected leakage, so the
    # cross-momentum same-index patterns keep fidelity one; only their
    # probability shrinks.
    heralds, _ = run_protocol(P2, shots=500, seed=5, time_scale=1.1)
    for _, _, name, fid, _ in patterns(heralds):
        if name == "psi_minus":
            assert abs(fid - 1.0) <= 1e-10


def test_protocol_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots"):
        run_protocol(P2, shots=0, seed=1)


def test_protocol_detection_efficiency_discards_shots():
    heralds, sample = run_protocol(P2, shots=50_000, seed=7, detection_efficiency=0.8)
    assert sample.retained_shots + sample.discarded_shots == 50_000
    assert sample.retained_shots == pytest.approx(50_000 * 0.64, rel=0.05)
    low, high = wilson_interval(sample.discarded_shots, 50_000, z=4.0)
    assert low <= 1.0 - 0.8**2 <= high
    sigma = math.sqrt(0.125 * 0.875 / sample.retained_shots)
    for prob, count in zip(heralds.row(0)[0], sample.counts):
        if prob > 0.0:
            assert abs(count / sample.retained_shots - 0.125) <= 4 * sigma
    # At this timing the pattern probabilities sum to 1 - 5.6e-16; ideal
    # detectors must still discard nothing.
    assert run_protocol(P2, shots=50_000, seed=7, time_scale=0.7)[1].discarded_shots == 0


def test_protocol_counts_are_consistent_at_a_billion_shots():
    heralds, sample = run_protocol(P2, shots=10**9, seed=13, detection_efficiency=0.9)
    assert sum(sample.counts) == sample.retained_shots
    assert sample.retained_shots + sample.discarded_shots == 10**9
    for prob, count in zip(heralds.row(0)[0], sample.counts):
        if prob > 0.0:
            low, high = wilson_interval(count, sample.retained_shots, z=4.0)
            assert low <= prob <= high
        else:
            assert count == 0


def test_protocol_summary_writes_the_int_seed_and_row_seeds_rebuild_their_draw(tmp_path):
    # The CLI seeds its one draw with the configured int and writes it as
    # it is in the config.  A sweep row's SeedSequence is rebuilt from the
    # config's seed and the row index, and gives the same draw.
    assert main(["protocol", "--shots", "10", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "protocol_summary.json").read_text())["config"]["seed"] == 7
    _, sample = run_protocol(P2, shots=1000, seed=_row_seed(3, 2))
    _, again = run_protocol(P2, shots=1000, seed=np.random.SeedSequence(3, spawn_key=(2,)))
    assert again.counts == sample.counts


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


@pytest.mark.parametrize("l0, time_scale", [(2, 1.0), (2, 0.6), (4, 0.7)])
def test_protocol_report_csv_matches_the_heralds(tmp_path, l0, time_scale):
    # Every cell is the '%.12g' text of the herald arrays' value; the
    # empirical frequency is the count over the retained shots.
    argv = ["protocol", "--l0", str(l0), "--time-scale", str(time_scale), "--shots", "1000", "--seed", "4",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = [line.split(",") for line in (tmp_path / "protocol_report.csv").read_text().splitlines()[3:]]
    p = BraggParams(l0=l0)
    _, sample = run_protocol(p, shots=1000, seed=4, time_scale=time_scale)
    want = patterns(herald_distribution(p, time_scale))
    assert len(rows) == len(want) == 10
    for row, (label, prob, name, fid, c), count in zip(rows, want, sample.counts, strict=True):
        assert row[0] == label
        assert row[1] == f"{prob:.12g}"
        assert row[2] == f"{count / sample.retained_shots:.12g}"
        assert row[3] == name
        assert row[4] == PAPER_TABLE_LABELS[label]
        assert row[5] == f"{fid:.12g}"
        assert row[6] == f"{c:.12g}"
