"""Test-only reference helpers: brute-force partial trace, fidelity,
bosonic beam-splitter lift and two-pair joint state.

The simulator itself never forms these; the tests use them to check its
closed forms against explicit density-matrix arithmetic.
"""

import itertools
import math

import numpy as np

from cavityswap.quantum import StateVector, _square_matrix

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


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


def fidelity(rho, target: StateVector | np.ndarray) -> float:
    """Overlap <target|rho|target> of a density matrix with a pure state."""
    rho = _square_matrix(rho, "density matrix")
    vec = target.amps if isinstance(target, StateVector) else np.asarray(target, dtype=np.complex128)
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
