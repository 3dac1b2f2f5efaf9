"""The one propagator: amplitudes under a Hermitian generator (hbar = 1).

Hamiltonians and amplitudes are plain complex ndarrays; callers keep their
own index conventions.  One eigendecomposition per call makes
exp(-i h t) exactly unitary up to eigenvector round-off at any t, and
dimensions stay in the tens, which is why dense storage is used.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HERMITICITY_ATOL", "SERIES_BLOCK", "propagate"]

HERMITICITY_ATOL = 1e-12

# Times evaluated at once by propagate; the block bounds the (times x modes)
# phase array on long grids, not the BLAS threads of its product.  With numpy
# 2.4.6 and OPENBLAS_NUM_THREADS=2 on 2 vCPUs, the (1024 x K) @ (K x 4)
# product of a ladder series (K = l0 + 13 by default) ran on one thread up to
# K = 16 and on two from K = 17 (CPU over wall 1.3 at 17, 1.9 at 19); from
# K = 16 on, the second thread then spun ~0.13 s of CPU after every call.
SERIES_BLOCK = 1024


def _require_hermitian(h: np.ndarray, name: str = "operator") -> None:
    deviation = float(np.max(np.abs(h - h.conj().swapaxes(-1, -2)))) if h.size else 0.0
    if deviation > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian (max |H - H^dag| = {deviation:.3e})")


def propagate(h, amps, times, rows=None) -> np.ndarray:
    """Propagate ``amps`` under Hermitian ``h`` to every time in ``times``
    (hbar = 1); row k of the result is exp(-i h times[k]) @ amps.

    One eigendecomposition per call: exp(-i h t) = V diag(e^{-i lambda t}) V^dag
    is exactly unitary up to eigenvector round-off at any t.  The grid is
    then evaluated in blocks of ``SERIES_BLOCK`` (1024) times; a block of
    one time is evaluated as two equal times, so no time's result depends
    on where the blocks fall or on the length of the grid.  The
    scaling-and-squaring Taylor series in ``tests/reference.py`` is the
    independent check of this path.  Rows at t = 0 are ``amps`` exactly.

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
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"Hamiltonian must be a square matrix or a stack of them, got shape {h.shape}")
    # eigh reads one triangle only; a non-Hermitian h would pass silently.
    _require_hermitian(h, "Hamiltonian")
    single = h.ndim == 2
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != h.shape[:-1]:
        raise ValueError(f"Hamiltonian dimension {h.shape[-1]} does not match state shape {amps.shape}")
    times = np.asarray(times, dtype=float)
    if single:
        times = times[None]
    elif times.ndim != 2 or times.shape[0] != len(h):
        raise ValueError(f"a stack of {len(h)} Hamiltonians needs ({len(h)}, T) times, got {times.shape}")
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    w, v = np.linalg.eigh(h)
    if single:
        w, v, amps = w[None], v[None], amps[None]
    overlap = (v.conj().swapaxes(1, 2) @ amps[:, :, None])[:, :, 0]
    live = (overlap != 0.0).any(axis=0)
    w, overlap = w[:, live], overlap[:, live]
    modes = v.swapaxes(1, 2)[:, live][:, :, rows]
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
