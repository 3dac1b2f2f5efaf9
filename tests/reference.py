"""Test-only reference helpers: brute-force partial trace and fidelity.

The simulator itself never forms these; the tests use them to check its
closed forms against explicit density-matrix arithmetic.
"""

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
