import numpy as np
import pytest

from cavityswap.quantum import SERIES_BLOCK, propagate
from reference import PAULI_X, concurrence, expm, fidelity, partial_trace


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    return amps


def evolve(h, psi, t):
    """``psi`` propagated for the single time ``t``."""
    return propagate(h, psi, [t])[0]


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell(which):
    vecs = {
        "phi_plus": [1, 0, 0, 1],
        "phi_minus": [1, 0, 0, -1],
        "psi_plus": [0, 1, 1, 0],
        "psi_minus": [0, 1, -1, 0],
    }
    return np.array(vecs[which], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------- propagate


def test_evolve_under_zero_hamiltonian_is_identity():
    rng = np.random.default_rng(11)
    psi = random_state(rng, 5)
    out = evolve(np.zeros((5, 5)), psi, t=3.7)
    assert np.allclose(out, psi, atol=1e-14)


def test_evolve_sigma_x_half_pi_gives_minus_i_excited():
    # Closed form: exp(-i sx pi/2) = -i sx.
    out = evolve(PAULI_X, [1.0, 0.0], t=np.pi / 2)
    assert abs(out[0]) < 1e-15
    assert abs(out[1] - (-1j)) < 1e-12


def test_evolve_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(np.array([[0, 1], [0, 0]], dtype=complex), [1.0, 0.0], 1.0)


def test_evolve_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        evolve(np.eye(3), [1.0, 0.0], 1.0)


def test_norm_preserved_under_random_hermitian_evolution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        psi = random_state(rng, dim)
        t = float(rng.uniform(0.1, 5.0))
        out = evolve(random_hermitian(rng, dim), psi, t)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


def test_evolution_operator_is_unitary():
    # Column k of exp(-i h t) is basis vector k propagated.
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 9)
    u = np.column_stack([evolve(h, e, 2.3) for e in np.eye(9)])
    assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-9


def test_expm_matches_eigendecomposition():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    t = 4.2
    w, v = np.linalg.eigh(h)
    reference = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
    assert np.max(np.abs(expm(-1j * t * h) - reference)) <= 1e-12


def test_evolve_matches_taylor_expm_on_random_hermitians():
    # The eigendecomposition path against the independent Taylor oracle.
    rng = np.random.default_rng(3)
    for _ in range(10):
        dim = int(rng.integers(2, 13))
        h = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        t = float(rng.uniform(0.1, 5.0))
        out = evolve(h, psi, t)
        assert np.max(np.abs(out - expm(-1j * t * h) @ psi)) <= 1e-12


def test_propagate_rows_equal_the_selected_columns_exactly():
    # Real-symmetric generators such as the momentum ladder, with the four
    # rows the ladder tables read: selecting rows leaves every bit as the
    # plain V diag(e^{-i w t}) V^dag product has it, so those tables do not
    # depend on it.
    rng = np.random.default_rng(23)
    a = rng.normal(size=(25, 25))
    h = (a + a.T).astype(complex)
    w, v = np.linalg.eigh(h)
    rows = [12, 10, 0, 24]
    for amps in (random_state(rng, 25), np.eye(25)[12]):
        for times in ([1.7], [0.0, 2.5], rng.uniform(0.0, 50.0, 4096)):
            full = propagate(h, amps, times)
            # propagate evaluates a one-time grid as two equal times.
            twice = np.resize(times, max(len(times), 2))
            plain = ((np.exp(-1j * np.outer(twice, w)) * (v.conj().T @ amps)) @ v.T)[:len(times)]
            plain[np.asarray(times) == 0.0] = amps
            assert np.array_equal(full, plain)
            assert np.array_equal(propagate(h, amps, times, rows=rows), full[:, rows])


def test_propagate_rows_match_the_selected_columns_on_complex_generators():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 9)
    amps = random_state(rng, 9)
    for rows in ([4, 0, 8], [3]):
        for times in ([1.7], [0.0, 2.5], rng.uniform(0.0, 50.0, 4096)):
            full = propagate(h, amps, times)
            assert np.max(np.abs(propagate(h, amps, times, rows=rows) - full[:, rows])) <= 1e-14


def test_propagate_rows_on_a_diagonal_hamiltonian_skip_dark_modes():
    # Only the modes the state occupies carry weight; the others are skipped.
    energies = np.array([0.0, 1.0, 4.0, 9.0, 1.0, 0.5])
    h = np.diag(energies)
    amps = np.array([0, 0.6, 0, 0, 0.8j, 0], dtype=complex)
    rows = [4, 1, 0]
    for times in ([1.7], [0.0, 2.5], np.linspace(0.0, 40.0, 4096)):
        full = propagate(h, amps, times)
        assert np.array_equal(propagate(h, amps, times, rows=rows), full[:, rows])
        exact = np.exp(-1j * np.outer(times, energies)) * amps
        assert np.max(np.abs(full - exact)) <= 1e-15


def test_propagate_diagonalises_once_per_call(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 17)
    out = propagate(h, np.eye(17)[8], np.linspace(0.0, 100.0, 100_000), rows=[8, 4, 0, 16])
    assert calls == [(17, 17)]
    assert out.shape == (100_000, 4)


def test_stacked_propagate_equals_single_calls():
    # A stack of G systems, one of them diagonal (so it leaves modes dark
    # that the others occupy) and one time of 0, against G single calls.
    rng = np.random.default_rng(37)
    hs = [random_hermitian(rng, 11) for _ in range(3)]
    hs.insert(1, np.diag(rng.uniform(-3.0, 3.0, 11)).astype(complex))
    amps = [random_state(rng, 11) for _ in hs]
    amps[1] = np.zeros(11, dtype=complex)
    amps[1][[2, 7]] = (0.6, 0.8j)
    times = rng.uniform(0.0, 20.0, (len(hs), 5))
    times[2, 3] = 0.0
    for rows in (None, [7, 2, 0, 10]):
        for grid in (times, times[:, :1]):
            stacked = propagate(np.array(hs), np.array(amps), grid, rows=rows)
            assert stacked.shape == (len(hs), grid.shape[1], 11 if rows is None else 4)
            for g, (h, a, t) in enumerate(zip(hs, amps, grid)):
                single = propagate(h, a, t, rows=rows)
                if g == 1:
                    # Modes the other members occupy add exact zero terms
                    # to the diagonal member's sums, which may flip the sign
                    # of a zero component; + 0.0 folds -0.0 into 0.0.
                    stacked[g] += 0.0
                    single += 0.0
                assert stacked[g].tobytes() == single.tobytes()


def test_propagate_gives_the_bits_of_the_whole_grid_piece_by_piece():
    # Pieces of two blocks, the last of them a lone time, and a t = 0 row
    # inside a later piece: each piece's own call reads exactly as its rows
    # of one call on the whole grid, for a single system and for a stack.
    rng = np.random.default_rng(41)
    hs = np.array([random_hermitian(rng, 13) for _ in range(2)])
    amps = np.array([random_state(rng, 13) for _ in hs])
    times = rng.uniform(0.0, 30.0, (2, 4 * SERIES_BLOCK + 1))
    times[:, 2 * SERIES_BLOCK + 5] = 0.0
    rows = [6, 2, 0, 12]
    starts = range(0, times.shape[1], 2 * SERIES_BLOCK)
    for h, a, t in ((hs[0], amps[0], times[0]), (hs, amps, times)):
        whole = propagate(h, a, t, rows=rows)
        pieces = [propagate(h, a, t[..., s:s + 2 * SERIES_BLOCK], rows=rows) for s in starts]
        assert [piece.shape[-2] for piece in pieces] == [2 * SERIES_BLOCK, 2 * SERIES_BLOCK, 1]
        assert np.concatenate(pieces, axis=-2).tobytes() == whole.tobytes()
        assert pieces[1][..., 5, :].tobytes() == a[..., rows].tobytes()


def test_evolution_composes_over_time():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 5)
    psi = random_state(rng, 5)
    stepped = evolve(h, evolve(h, psi, 1.3), 0.9)
    direct = evolve(h, psi, 2.2)
    assert np.max(np.abs(stepped - direct)) <= 1e-8


# ---------------------------------------------------------------- partial trace


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = np.outer(bell("phi_plus"), bell("phi_plus").conj())
    for keep in (0, 1):
        reduced = partial_trace(rho, (2, 2), keep)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_recovers_product_factors_exactly():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a, b = (np.outer(psi, psi.conj()) for psi in (random_state(rng, 3), random_state(rng, 4)))
        joint = np.kron(a, b)
        assert np.max(np.abs(partial_trace(joint, (3, 4), 0) - a)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, (3, 4), 1) - b)) <= 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(29)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    rho = np.outer(amps, amps.conj())
    reduced = partial_trace(rho, (3, 4), 0)
    assert abs(np.trace(reduced) - 1.0) <= 1e-12
    assert np.max(np.abs(reduced - reduced.conj().T)) <= 1e-12


def test_partial_trace_rejects_bad_factorization():
    with pytest.raises(ValueError, match="factor"):
        partial_trace(np.eye(6), (4, 2), 0)


# ---------------------------------------------------------------- fidelity


def test_fidelity_of_projector_with_itself():
    psi = bell("psi_plus")
    assert fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_of_maximally_mixed_with_any_bell_state():
    for which in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        assert fidelity(np.eye(4) / 4, bell(which)) == pytest.approx(0.25, abs=1e-14)


def test_fidelity_of_equal_phi_mixture():
    # Direct matrix arithmetic: the cross terms cancel, leaving 1/2.
    rho = 0.5 * np.outer(bell("phi_plus"), bell("phi_plus").conj()) + 0.5 * np.outer(
        bell("phi_minus"), bell("phi_minus").conj()
    )
    assert fidelity(rho, bell("phi_plus")) == pytest.approx(0.5, abs=1e-14)


def test_fidelity_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        fidelity(np.eye(4) / 4, np.ones(3) / np.sqrt(3))


# ---------------------------------------------------------------- concurrence


def test_concurrence_of_bell_states_is_one():
    for which in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        rho = np.outer(bell(which), bell(which).conj())
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_product_state_is_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_of_half_psi_half_product_mixture():
    # Hand-derived: rho (sy x sy) rho* (sy x sy) has the single nonzero
    # eigenvalue 1/4, so the sqrt spectrum is {1/2, 0, 0, 0} and C = 1/2.
    psi = bell("psi_plus")
    rho = 0.5 * np.outer(psi, psi.conj())
    rho[0, 0] += 0.5
    assert concurrence(rho) == pytest.approx(0.5, abs=1e-12)


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(41)
    base = 0.7 * np.outer(bell("psi_minus"), bell("psi_minus").conj()) + 0.3 * np.eye(4) / 4
    reference = concurrence(base)
    for _ in range(10):
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ base @ u.conj().T
        assert abs(concurrence(rotated) - reference) <= 1e-8


def test_concurrence_rejects_wrong_dimension_and_negative_matrices():
    with pytest.raises(ValueError, match="two-qubit"):
        concurrence(np.eye(2) / 2)
    bad = np.diag([0.8, 0.5, -0.3, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        concurrence(bad)
