"""Dense linear algebra for small labelled quantum systems.

States carry an explicit, ordered tuple of basis labels so that factor
order and serialised amplitudes are unambiguous; operators and density
matrices are plain complex ndarrays.  Everything is pure and immutable,
so callers may evaluate in parallel without coordination.  Dimensions
stay in the tens to hundreds, which is why dense storage is used
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI_Y",
    "StateVector",
    "basis_state",
    "expm",
    "propagate",
    "propagator",
    "evolve",
    "concurrence",
]

HERMITICITY_ATOL = 1e-12

# Times evaluated at once by propagate; the block bounds the (times x modes)
# phase array on long grids.  It does not keep the block's product on one
# BLAS thread: with numpy 2.4.6 and OPENBLAS_NUM_THREADS=2 on 2 vCPUs, CPU
# over wall time was ~2 at 16-64 modes (1 at 15; the default ladder has
# l0 + 13), so the thread cap sets the product's parallelism.
SERIES_BLOCK = 1024

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


def _square_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def _require_hermitian(h: np.ndarray, name: str = "operator") -> None:
    deviation = float(np.max(np.abs(h - h.conj().swapaxes(-1, -2)))) if h.size else 0.0
    if deviation > HERMITICITY_ATOL:
        raise ValueError(
            f"{name} is not Hermitian (max |H - H^dag| = {deviation:.3e})"
        )


@dataclass(frozen=True)
class StateVector:
    """Pure state over an ordered, labelled basis.

    ``labels[i]`` names the basis vector whose amplitude is ``amps[i]``.
    Labels are tuples with one entry per tensor factor, the first factor
    varying slowest.  Amplitudes are stored read-only and are never
    renormalised behind the caller's back.
    """

    labels: tuple
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        labels = tuple(self.labels)
        if amps.ndim != 1:
            raise ValueError("amplitudes must form a 1-d array")
        if len(labels) != amps.size:
            raise ValueError(
                f"{len(labels)} labels for {amps.size} amplitudes"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in basis") from None

    def amplitude(self, label) -> complex:
        return complex(self.amps[self.index(label)])

    def density(self) -> np.ndarray:
        """Outer product |psi><psi| as a dense matrix."""
        return np.outer(self.amps, self.amps.conj())


def basis_state(labels, label) -> StateVector:
    """Computational basis vector with amplitude 1 on ``label``."""
    labels = tuple(labels)
    amps = np.zeros(len(labels), dtype=np.complex128)
    amps[labels.index(label)] = 1.0
    return StateVector(labels, amps)


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


def propagate(h, amps, times, rows=None) -> np.ndarray:
    """Propagate ``amps`` under Hermitian ``h`` to every time in ``times``
    (hbar = 1); row k of the result is exp(-i h times[k]) @ amps.

    One eigendecomposition per call: exp(-i h t) = V diag(e^{-i lambda t}) V^dag
    is exactly unitary up to eigenvector round-off at any t.  The grid is
    then evaluated in blocks of ``SERIES_BLOCK`` (1024) times; a block of
    one time is evaluated as two equal times, so no time's result depends
    on where the blocks fall or on the length of the grid.  :func:`expm`
    is kept as the independent check of this path.  Rows at t = 0 are
    ``amps`` exactly.

    ``rows`` (indices into the state) limits the result to those
    components, in that order; the others are never formed.  Eigenmodes
    with no overlap with ``amps`` contribute exact zeros and are skipped.

    A stack of G systems propagates in the same way: ``h`` of shape
    (G, M, M), ``amps`` (G, M) and ``times`` (G, T) give a (G, T, rows)
    result from one stacked eigendecomposition, each system's slice
    bitwise equal to its own call.  A mode is skipped only where no
    system of the stack overlaps it, so a system that leaves modes dark
    which others occupy gains exact zero terms; a component that is
    exactly zero may then carry the other sign.
    """
    return propagator(h, amps, rows)(times)


def propagator(h, amps, rows=None):
    """``times -> propagate(h, amps, times, rows)`` from one
    eigendecomposition, made here.  No time's result depends on where the
    blocks fall, so a long grid evaluated piece by piece gives the bits of
    the whole without its result being held at once."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"Hamiltonian must be a square matrix or a stack of them, got shape {h.shape}")
    # eigh reads one triangle only; a non-Hermitian h would pass silently.
    _require_hermitian(h, "Hamiltonian")
    single = h.ndim == 2
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != h.shape[:-1]:
        raise ValueError(f"Hamiltonian dimension {h.shape[-1]} does not match state shape {amps.shape}")
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    w, v = np.linalg.eigh(h)
    if single:
        w, v, amps = w[None], v[None], amps[None]
    overlap = (v.conj().swapaxes(1, 2) @ amps[:, :, None])[:, :, 0]
    live = (overlap != 0.0).any(axis=0)
    w, overlap = w[:, live], overlap[:, live]
    modes = v.swapaxes(1, 2)[:, live][:, :, rows]

    def evaluate(times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if single:
            times = times[None]
        elif times.ndim != 2 or times.shape[0] != len(w):
            raise ValueError(f"a stack of {len(w)} Hamiltonians needs ({len(w)}, T) times, got {times.shape}")
        # One spare time: a one-time block is evaluated as two equal times,
        # since BLAS would sum its matrix-vector product in another order
        # than a matrix product.
        count = times.shape[1]
        out = np.empty((len(w), count + 1, modes.shape[2]), dtype=np.complex128)
        for start in range(0, count, SERIES_BLOCK):
            block = times[:, start:start + SERIES_BLOCK]
            if block.shape[1] == 1:
                block = np.repeat(block, 2, axis=1)
            phases = np.exp(-1j * (block[:, :, None] * w[:, None, :])) * overlap[:, None, :]
            np.matmul(phases, modes, out=out[:, start:start + block.shape[1]])
        out = out[:, :count]
        stack, at = np.nonzero(times == 0.0)
        out[stack, at] = amps[stack][:, rows]
        return out[0] if single else out

    return evaluate


def evolve(h, psi: StateVector, t: float) -> StateVector:
    """Propagate ``psi`` under Hermitian ``h`` for time ``t`` (hbar = 1)."""
    return StateVector(psi.labels, propagate(h, psi.amps, [t])[0])


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
