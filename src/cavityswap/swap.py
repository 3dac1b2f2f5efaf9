"""Two-pair joint state, momentum-mode beam splitters, and click heralds.

Both atoms are treated as indistinguishable bosons in a second-quantised
four-mode picture.  Input modes (a1, a2) carry the undeflected momenta of
atoms 1 and 2, (b1, b2) the deflected ones; a 50/50 mixer acts within each
momentum class and the output modes feed the detectors

    a1' -> D4,   a2' -> D3,   b1' -> D2,   b2' -> D1.

Every two-click pattern heralds a conditional state of the two cavities.
:func:`herald_batch` computes the heralds of many joint states at once and
returns them as :class:`Heralds` arrays, one row per state and one column
per pattern: columns are labelled by :data:`PATTERN_LABELS`, classes index
:data:`CLASS_NAMES`.  :func:`run_protocol` returns those arrays with the
counts sampled from them; the CLI lays out the protocol's artifacts.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bragg import BraggParams, branch_amplitudes, nonnegative_time_scale

__all__ = [
    "mode_basis",
    "single_particle_mixer",
    "beam_splitter_unitary",
    "joint_state",
    "epr_decomposition_check",
    "branch_pair",
    "Heralds",
    "herald_batch",
    "herald_distribution",
    "ProtocolSample",
    "sample_protocol",
    "run_protocol",
    "paper_label_divergences",
    "CLASS_TARGETS",
    "CLASS_NAMES",
    "PATTERN_LABELS",
    "PAPER_TABLE_LABELS",
]

# Two-qubit cavity basis order: (c1, c2) = 00, 01, 10, 11.
_SQ2 = math.sqrt(2.0)
CLASS_TARGETS = {
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / _SQ2,
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / _SQ2,
    "product_00": np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128),
    "product_11": np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128),
}
# Herald classes by index: the targets, then "none" for a pattern that
# never clicks.
CLASS_NAMES = (*CLASS_TARGETS, "none")
_NONE = len(CLASS_TARGETS)
_PSI = (CLASS_NAMES.index("psi_plus"), CLASS_NAMES.index("psi_minus"))
# Row k is the bra of target k, so _TARGET_BRAS @ v holds every <target|v>.
_TARGET_BRAS = np.array(list(CLASS_TARGETS.values())).conj()

# Click pattern of each two-atom occupation, in mode_basis(2) order: the
# detectors of its two atoms, in output mode order.
PATTERN_LABELS = (
    "D4&D4", "D4&D3", "D4&D2", "D4&D1", "D3&D3",
    "D3&D2", "D3&D1", "D2&D2", "D2&D1", "D1&D1",
)

# Herald table as published alongside the protocol, kept for side-by-side
# reporting.  It disagrees with the bosonic calculation on every pattern:
# same-detector doubles herald cavity product states (the coherent sum of
# the two phi branches), and the psi+/psi- coincidence pairings are
# exchanged.
PAPER_TABLE_LABELS = {
    "D4&D4": "phi_plus_or_minus",
    "D3&D3": "phi_plus_or_minus",
    "D2&D2": "phi_plus_or_minus",
    "D1&D1": "phi_plus_or_minus",
    "D4&D1": "psi_plus",
    "D3&D2": "psi_plus",
    "D4&D2": "psi_minus",
    "D3&D1": "psi_minus",
    "D4&D3": "none",
    "D2&D1": "none",
}

def _occupations_with_total(total: int) -> list:
    occs = []
    for n0 in range(total, -1, -1):
        for n1 in range(total - n0, -1, -1):
            for n2 in range(total - n0 - n1, -1, -1):
                occs.append((n0, n1, n2, total - n0 - n1 - n2))
    return occs


@lru_cache(maxsize=None)
def mode_basis(total: int = 2) -> tuple:
    """Occupations of the four atomic momentum modes holding exactly
    ``total`` atoms, sorted lexicographically descending: for two atoms
    (2,0,0,0), (1,1,0,0), ... , (0,0,0,2).  The same index order is used
    before and after the mode mixer; after it, modes 0-3 feed detectors
    D4, D3, D2 and D1."""
    if total < 0:
        raise ValueError("total occupation must be nonnegative")
    return tuple(_occupations_with_total(total))


def single_particle_mixer() -> np.ndarray:
    """One-atom 50/50 mixer: a1 -> (a1' + i a2')/sqrt(2) and cyclic, with
    the deflected pair (b1, b2) mixed the same way.  The 1/sqrt(2) makes
    the map unitary."""
    u = np.zeros((4, 4), dtype=np.complex128)
    for base in (0, 2):
        u[base, base] = 1.0 / _SQ2
        u[base + 1, base] = 1j / _SQ2
        u[base, base + 1] = 1j / _SQ2
        u[base + 1, base + 1] = 1.0 / _SQ2
    return u


def _modes(occ) -> list:
    """Mode index of each atom of an occupation, in mode order."""
    return [mode for mode, count in enumerate(occ) for _ in range(count)]


def _permanent(m: np.ndarray) -> complex:
    """Permanent of a square matrix by its defining sum over permutations."""
    k = len(m)
    return sum(math.prod(m[i, s[i]] for i in range(k)) for s in itertools.permutations(range(k)))


@lru_cache(maxsize=None)
def beam_splitter_unitary(basis: tuple | None = None) -> np.ndarray:
    """Mode mixer lifted to the bosonic occupation basis by the permanent
    formula (Scheel, quant-ph/0406127; Aaronson & Arkhipov, arXiv:1011.3245),

        <m|U|n> = perm(U1[m, n]) / sqrt(prod_i m_i! prod_j n_j!),

    where U1[m, n] repeats output mode i m_i times and input mode j n_j
    times.  This keeps the two-atoms-in-one-mode amplitudes honest.
    ``basis`` is a :func:`mode_basis`, two atoms by default.
    """
    if basis is None:
        basis = mode_basis(2)
    u1 = single_particle_mixer()
    facts = [math.prod(map(math.factorial, occ)) for occ in basis]
    u = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for col, n in enumerate(basis):
        for row, m in enumerate(basis):
            perm = _permanent(u1[np.ix_(_modes(m), _modes(n))])
            # perm / m! is the coefficient of the output monomial.
            u[row, col] = perm / facts[row] * math.sqrt(facts[row]) / math.sqrt(facts[col])
    u.setflags(write=False)
    return u


# Two-atom occupations of the branch pairs, atom 1's branch first:
# PP = a1+ a2+, PM = a1+ b2+, MP = b1+ a2+, MM = b1+ b2+.
_BRANCH_PAIRS = ((1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))
# A joint state is a (cavity pair 00, 01, 10, 11) x two-atom mode array;
# the branch pairs sit on these mode columns.
_JOINT_SHAPE = (4, len(mode_basis(2)))
_BRANCH_COLUMNS = [mode_basis(2).index(occ) for occ in _BRANCH_PAIRS]


def branch_pair(p: BraggParams, time_scale: float = 1.0) -> tuple[complex, complex]:
    """The branch amplitudes of :func:`~cavityswap.bragg.branch_amplitudes`
    as a checked pair of complex numbers: ValueError unless
    |c+|^2 + |c-|^2 = 1 within 1e-12 and both are finite."""
    c_plus, c_minus = map(complex, branch_amplitudes(p, time_scale))
    if abs(abs(c_plus) ** 2 + abs(c_minus) ** 2 - 1.0) > 1e-12:
        raise ValueError("branch amplitudes must satisfy |c+|^2 + |c-|^2 = 1")
    if not all(map(math.isfinite, (c_plus.real, c_plus.imag, c_minus.real, c_minus.imag))):
        raise ValueError("amplitudes must be finite")
    return c_plus, c_minus


def _joint_amplitudes(pairs) -> np.ndarray:
    """(pair, cavity pair, two-atom mode) amplitudes of the joint states of
    (c+, c-) pairs as :func:`branch_pair` returns them, as in
    :func:`joint_state`."""
    # The products are taken in Python: numpy may fuse a complex product's
    # multiply and add, which would round them differently from the
    # term-by-term expansion.
    coeffs = []
    for c_plus, c_minus in pairs:
        half_plus, half_minus = 0.5 * c_plus, 0.5 * c_minus
        # Rows: cavity pairs 00, 01, 10, 11; columns: PP, PM, MP, MM.
        coeffs.append([
            [0.5, 0.0, 0.0, 0.0],
            [half_plus, half_minus, 0.0, 0.0],
            [half_plus, 0.0, half_minus, 0.0],
            [half_plus * c_plus, half_plus * c_minus, half_minus * c_plus, half_minus * c_minus],
        ])
    amps = np.zeros((len(coeffs), *_JOINT_SHAPE), dtype=np.complex128)
    amps[:, :, _BRANCH_COLUMNS] = np.array(coeffs, dtype=np.complex128).reshape(-1, 4, 4)
    return amps


def joint_state(p: BraggParams, time_scale: float = 1.0) -> np.ndarray:
    """Joint state of both cavities and both atoms before the mode mixer,
    from the one-photon branch amplitudes (c+, c-) = (undeflected,
    deflected) of :func:`branch_pair`, shared by both atoms.

    The zero-photon branch leaves its atom undeflected with amplitude one,
    so the state over (cavity 1, cavity 2, mode occupation) reads

        (1/2) [ |00> a1+a2+  +  |01> a1+(c+ a2+ + c- b2+)
              + |10> (c+ a1+ + c- b1+) a2+
              + |11> (c+ a1+ + c- b1+)(c+ a2+ + c- b2+) ] |vac>.

    Every term holds exactly two atoms.  The result is a (cavity pair,
    two-atom mode) array of shape (4, 10), cavity pairs in the order 00,
    01, 10, 11 and modes in :func:`mode_basis` order.
    """
    return _joint_amplitudes([branch_pair(p, time_scale)])[0]


def _mode_amplitudes(s) -> np.ndarray:
    """A joint state as a complex (cavity pair, two-atom mode) array;
    ValueError for any other shape."""
    amps = np.asarray(s, dtype=np.complex128)
    if amps.shape != _JOINT_SHAPE:
        raise ValueError(
            f"expected a (cavity pair x two-atom mode) joint state of shape {_JOINT_SHAPE}, got {amps.shape}"
        )
    return amps


def epr_decomposition_check(s, phase: float) -> tuple[bool, float]:
    """Verify the four-branch Bell decomposition of the joint state.

    Rebuilds the state as a sum of cavity Bell states paired with two-atom
    momentum EPR states,

        (1/4) (PP + e^{-2i phi} MM)(|00> - |11>)
      + (1/4) (PP - e^{-2i phi} MM)(|00> + |11>)
      + (i e^{-i phi}/4) (PM + MP)(|01> + |10>)
      + (i e^{-i phi}/4) (PM - MP)(|01> - |10>),

    and returns (residual <= 1e-12, residual) against the (4, 10) joint
    state ``s``.  P and M are the undeflected/deflected single-atom modes,
    so PP = a1+a2+|vac> etc.
    """
    amps = _mode_amplitudes(s)
    pp, pm, mp, mm = np.eye(_JOINT_SHAPE[1], dtype=np.complex128)[_BRANCH_COLUMNS]
    c00, c01, c10, c11 = np.eye(4, dtype=np.complex128)
    ph1 = np.exp(-1j * phase)
    ph2 = np.exp(-2j * phase)
    total = (
        0.25 * np.kron(c00 - c11, pp + ph2 * mm)
        + 0.25 * np.kron(c00 + c11, pp - ph2 * mm)
        + 0.25j * ph1 * np.kron(c01 + c10, pm + mp)
        + 0.25j * ph1 * np.kron(c01 - c10, pm - mp)
    )
    residual = float(np.max(np.abs(total.reshape(amps.shape) - amps)))
    return residual <= 1e-12, residual


class Heralds(NamedTuple):
    """Herald statistics of R joint states, one row per state and one
    column per click pattern (labelled by :data:`PATTERN_LABELS`).

    ``classes`` indexes :data:`CLASS_NAMES`: the target of
    :data:`CLASS_TARGETS` that best matches the normalised conditional
    cavity vector of the pattern, or "none" after them for a pattern of
    probability zero (whose fidelity and concurrence read 0), and
    ``concurrences`` holds the closed form 2|ad - bc| of each pure herald.
    """

    probabilities: np.ndarray
    classes: np.ndarray
    fidelities: np.ndarray
    concurrences: np.ndarray

    def row(self, r: int) -> tuple[list, list, list, list]:
        """Probabilities, classes, fidelities and concurrences of row ``r``
        as Python lists in pattern order, for sums that must run in that
        order."""
        return tuple(a[r].tolist() for a in (self.probabilities, self.classes, self.fidelities, self.concurrences))


def _heralds(psi: np.ndarray) -> Heralds:
    """Herald statistics of post-mixer amplitudes of shape
    (state, cavity pair, pattern), for every state and pattern at once."""
    probs = (psi.real**2 + psi.imag**2).sum(axis=1)
    totals = probs.sum(axis=1)
    corrupt = ~(np.abs(totals - 1.0) <= 1e-12)
    if corrupt.any():
        total = float(totals[corrupt][0])
        raise RuntimeError(f"click probabilities sum to {total!r}, not 1; joint state is corrupt")
    dark = probs == 0.0
    vecs = psi / np.sqrt(np.where(dark, 1.0, probs))[:, None, :]
    fids = np.abs(_TARGET_BRAS @ vecs) ** 2
    # Every herald is pure, so Wootters' concurrence is 2|v00 v11 - v01 v10|;
    # the clamp keeps a Bell herald at exactly 1 despite round-off.
    conc = np.minimum(1.0, 2.0 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2]))
    return Heralds(
        probabilities=probs,
        classes=np.where(dark, _NONE, fids.argmax(axis=1)),
        fidelities=np.where(dark, 0.0, fids.max(axis=1)),
        concurrences=np.where(dark, 0.0, conc),
    )


def herald_batch(pairs) -> Heralds:
    """Herald statistics of the protocol for R branch-amplitude pairs at
    once, each a (c+, c-) pair as :func:`branch_pair` returns it.

    The joint-state coefficients of all pairs are placed on the branch-pair
    columns and sent through the lifted mixer in one stacked product; every
    statistic is then computed on the (R x cavity pair x pattern) result.
    Probabilities must sum to one within 1e-12 on every row (RuntimeError
    otherwise).
    """
    return _heralds(_joint_amplitudes(pairs) @ beam_splitter_unitary(mode_basis(2)).T)


def herald_distribution(p: BraggParams, time_scale: float = 1.0) -> Heralds:
    """The one-row :class:`Heralds` of the full protocol at the given timing."""
    return herald_batch([branch_pair(p, time_scale)])


def _sample_counts(probs, shots: int, seed, efficiency: float) -> tuple[list, int]:
    # Each atom is missed independently of the pattern, so a discarded shot
    # is one more outcome, of probability 1 - efficiency^2.  It goes first,
    # because multinomial gives the rounding remainder to the last outcome:
    # at efficiency 1 nothing is discarded.
    kept = efficiency**2
    pvals = [1.0 - kept, *(p * kept for p in probs)]
    drawn = np.random.default_rng(seed).multinomial(shots, pvals)
    return drawn[1:].tolist(), int(drawn[0])


class ProtocolSample(NamedTuple):
    """Sampled pattern counts of one protocol run, with its psi-herald
    totals: success means heralding one of the psi Bell states."""

    counts: list
    retained_shots: int
    discarded_shots: int
    successes: int
    success_rate: float
    success_probability: float
    mean_psi_fidelity: float
    mean_psi_concurrence: float


def sample_protocol(
    heralds: Heralds, row: int, shots: int, seed, detection_efficiency: float = 1.0
) -> ProtocolSample:
    """Draw the counts of ``shots`` click patterns from one row of a herald
    batch, in one multinomial draw seeded by ``seed`` (an int or a
    ``np.random.SeedSequence``), and sum the psi heralds in pattern order.
    With ``detection_efficiency`` below one each atom is detected
    independently with that probability and shots with a missed click are
    discarded."""
    probs, classes, fids, concs = heralds.row(row)
    counts, discarded = _sample_counts(probs, shots, seed, detection_efficiency)
    retained = shots - discarded
    psi = [
        (prob, fid, c, count)
        for prob, k, fid, c, count in zip(probs, classes, fids, concs, counts)
        if k in _PSI
    ]
    psi_prob = sum(prob for prob, _, _, _ in psi)
    successes = sum(count for *_, count in psi)
    return ProtocolSample(
        counts=counts,
        retained_shots=retained,
        discarded_shots=discarded,
        successes=successes,
        success_rate=successes / retained if retained else 0.0,
        success_probability=psi_prob,
        mean_psi_fidelity=sum(prob * fid for prob, fid, _, _ in psi) / psi_prob if psi_prob else 0.0,
        mean_psi_concurrence=sum(prob * c for prob, _, c, _ in psi) / psi_prob if psi_prob else 0.0,
    )


def run_protocol(
    p: BraggParams,
    shots: int,
    seed: int | np.random.SeedSequence,
    time_scale: float = 1.0,
    detection_efficiency: float = 1.0,
) -> tuple[Heralds, ProtocolSample]:
    """The one-row :class:`Heralds` of the protocol at the given
    interaction-time scale and the :class:`ProtocolSample` drawn from it.

    The counts of ``shots`` click patterns come from one multinomial draw
    seeded by ``seed``.  With ``detection_efficiency`` below one each atom
    is detected independently with that probability and shots with a
    missed click are discarded.  Success means heralding one of the psi
    Bell states.
    """
    if shots <= 0:
        raise ValueError("shots must be a positive integer")
    nonnegative_time_scale(time_scale)
    if not 0.0 < detection_efficiency <= 1.0:
        raise ValueError("detection efficiency must be in (0, 1]")
    heralds = herald_distribution(p, time_scale)
    return heralds, sample_protocol(heralds, 0, shots, seed, detection_efficiency)


def paper_label_divergences(heralds: Heralds) -> tuple:
    """Labels of the patterns of a one-row :class:`Heralds` that can click
    and whose class differs from the published table
    (:data:`PAPER_TABLE_LABELS`), in pattern order."""
    probs, classes, _, _ = heralds.row(0)
    return tuple(
        label for label, prob, k in zip(PATTERN_LABELS, probs, classes)
        if prob > 0.0 and CLASS_NAMES[k] != PAPER_TABLE_LABELS[label]
    )
