"""Test-only reference helpers: Taylor-series matrix exponential, Wootters
concurrence, brute-force partial trace, fidelity, bosonic beam-splitter
lift, two-pair joint state and the two-manifold Hamiltonian built term by
term over labelled sites.

The simulator itself never forms these; the tests use them to check its
propagator, closed forms and index arithmetic against independent,
explicit constructions.
"""

import itertools
import math

import numpy as np

from cavityswap.bragg import ladder_offsets
from cavityswap.quantum import _require_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


def _square_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring.

    The argument is scaled by a power of two until its 1-norm is at most
    one half, the exponential of the scaled matrix is summed as a Taylor
    series to machine precision, and the result is squared back up.
    """
    a = _square_matrix(a, "exponent")
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0**squarings)
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
        if np.max(np.abs(term)) <= 1e-18 * max(1.0, float(np.max(np.abs(out)))):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) are
    sorted in decreasing order; the concurrence is the largest minus the
    rest, floored at zero.
    """
    rho = _square_matrix(rho, "density matrix")
    if rho.shape[0] != 4:
        raise ValueError("concurrence is defined for 4-dimensional (two-qubit) states")
    _require_hermitian(rho, "density matrix")
    eigmin = float(np.min(np.linalg.eigvalsh(rho)))
    if eigmin < -1e-7:
        raise ValueError(f"density matrix has negative eigenvalue {eigmin:.3e}")
    flipped = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(rho @ flipped).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def full_hamiltonian_by_labels(p) -> tuple:
    """Two-manifold Hamiltonian of ``p`` built term by term over labelled
    sites, with its labels: ("g", offset) on the even ladder offsets, then
    ("e", offset) on the odd offsets between and around them.  Each site
    gets its kinetic energy (plus delta when excited), and each ground site
    couples with g/2 to every excited site one momentum unit away."""
    even = [int(o) for o in ladder_offsets(p)]
    labels = [("g", o) for o in even] + [("e", o) for o in range(even[0] - 1, even[-1] + 2, 2)]
    index = {label: i for i, label in enumerate(labels)}
    h = np.zeros((len(labels), len(labels)), dtype=np.complex128)
    for (manifold, offset), i in index.items():
        h[i, i] = (p.l0 / 2.0 + offset) ** 2 - (p.l0 / 2.0) ** 2 + (p.delta if manifold == "e" else 0.0)
    for offset in even:
        for target in (("e", offset - 1), ("e", offset + 1)):
            i, j = index[("g", offset)], index[target]
            h[i, j] = h[j, i] = 0.5 * p.g
    return h, tuple(labels)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Reduced density matrix over the factors listed in ``keep``.

    ``dims`` gives the dimension of each tensor factor (first factor
    varies slowest); all factors not in ``keep`` are traced out.  The
    kept factors retain their original relative order.
    """
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError("factor dimensions must be positive")
    rho = _square_matrix(rho, "density matrix")
    total = math.prod(dims)
    if rho.shape[0] != total:
        raise ValueError(
            f"cannot factor a {rho.shape[0]}-dimensional matrix into {dims}"
        )
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    nfac = len(dims)
    work = rho.reshape(dims + dims)
    removed = 0
    for ax in sorted((i for i in range(nfac) if i not in keep), reverse=True):
        work = np.trace(work, axis1=ax, axis2=ax + nfac - removed)
        removed += 1
    kept_dim = math.prod(dims[k] for k in keep)
    return work.reshape(kept_dim, kept_dim)


def fidelity(rho, target) -> float:
    """Overlap <target|rho|target> of a density matrix with a pure state."""
    rho = _square_matrix(rho, "density matrix")
    vec = np.asarray(target, dtype=np.complex128)
    if vec.ndim != 1 or vec.size != rho.shape[0]:
        raise ValueError(
            f"target dimension {vec.size} does not match density matrix dimension {rho.shape[0]}"
        )
    value = complex(np.vdot(vec, rho @ vec))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real ({value.imag:.3e}); rho is malformed")
    return float(min(1.0, max(0.0, value.real)))


def first_quantised_lift(u1, occupations) -> np.ndarray:
    """Bosonic lift of the one-particle unitary ``u1`` by brute force.

    The N particles of the occupations are taken as distinguishable: the
    mixer acts as u1 (x) ... (x) u1 on their product space, and the result
    is restricted to the symmetrised state of each occupation, the
    normalised sum of every mode sequence with that occupation.
    """
    modes = len(u1)
    total = sum(occupations[0])
    big = np.ones((1, 1), dtype=np.complex128)
    for _ in range(total):
        big = np.kron(big, u1)
    sym = np.zeros((modes,) * total + (len(occupations),), dtype=np.complex128)
    for seq in itertools.product(range(modes), repeat=total):
        occ = tuple(seq.count(mode) for mode in range(modes))
        if occ in occupations:
            sym[seq + (occupations.index(occ),)] = 1.0
    # The first particle varies slowest, as in the Kronecker product.
    sym = sym.reshape(modes**total, len(occupations))
    sym /= np.linalg.norm(sym, axis=0)
    return sym.conj().T @ big @ sym


def two_pair_joint_amplitudes(c_plus, c_minus, occupations) -> np.ndarray:
    """Two-pair joint state expanded term by term.

    For each cavity pair (c1, c2) the term is (1/2) times the product of
    each atom's creation operator: with cavity bit 0 atom k stays in its
    undeflected mode, with bit 1 it is c+ (undeflected) + c- (deflected).
    Modes are (a1, a2, b1, b2); amplitudes are ordered (c1, c2, occupation).
    """
    dim = len(occupations)
    amps = np.zeros(4 * dim, dtype=np.complex128)
    for c1, c2 in itertools.product((0, 1), repeat=2):
        atom1 = [(0, 1.0)] if c1 == 0 else [(0, c_plus), (2, c_minus)]
        atom2 = [(1, 1.0)] if c2 == 0 else [(1, c_plus), (3, c_minus)]
        for (m1, w1), (m2, w2) in itertools.product(atom1, atom2):
            occ = [0, 0, 0, 0]
            occ[m1] += 1
            occ[m2] += 1
            amps[(2 * c1 + c2) * dim + occupations.index(tuple(occ))] += 0.5 * w1 * w2
    return amps
