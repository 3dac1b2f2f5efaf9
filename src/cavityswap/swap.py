"""Two-pair joint state, momentum-mode beam splitters, and click heralds.

Both atoms are treated as indistinguishable bosons in a second-quantised
four-mode picture.  Input modes (a1, a2) carry the undeflected momenta of
atoms 1 and 2, (b1, b2) the deflected ones; a 50/50 mixer acts within each
momentum class and the output modes feed the detectors

    a1' -> D4,   a2' -> D3,   b1' -> D2,   b2' -> D1.

Every two-click pattern heralds a conditional state of the two cavities;
classifying those states and sampling shot statistics is what this module
does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .bragg import BraggParams, branch_amplitudes
from .quantum import StateVector

__all__ = [
    "DETECTORS",
    "N_MODES",
    "ClickPattern",
    "ModeBasis",
    "mode_basis",
    "single_particle_mixer",
    "beam_splitter_unitary",
    "joint_state",
    "joint_state_from_amplitudes",
    "apply_beam_splitter",
    "epr_decomposition_check",
    "branch_pair",
    "Heralds",
    "herald_batch",
    "HeraldResult",
    "click_distribution",
    "herald_distribution",
    "ProtocolSample",
    "sample_protocol",
    "run_protocol",
    "ProtocolReport",
    "CLASS_TARGETS",
    "PAPER_TABLE_LABELS",
]

N_MODES = 4
# Output mode index -> detector name.
DETECTORS = ("D4", "D3", "D2", "D1")

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
_CLASS_NAMES = (*CLASS_TARGETS, "none")
_NONE = len(CLASS_TARGETS)
_PSI = (_CLASS_NAMES.index("psi_plus"), _CLASS_NAMES.index("psi_minus"))
# Row k is the bra of target k, so _TARGET_BRAS @ v holds every <target|v>.
_TARGET_BRAS = np.array(list(CLASS_TARGETS.values())).conj()

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

@dataclass(frozen=True)
class ClickPattern:
    """Unordered pair of detector clicks (a double counts one detector twice)."""

    clicks: tuple

    def __post_init__(self):
        clicks = tuple(sorted(self.clicks, reverse=True))
        if len(clicks) != 2 or any(c not in DETECTORS for c in clicks):
            raise ValueError(f"a click pattern is two of {DETECTORS}, got {self.clicks!r}")
        object.__setattr__(self, "clicks", clicks)

    @classmethod
    def from_occupation(cls, occ) -> "ClickPattern":
        clicks = []
        for mode, count in enumerate(occ):
            clicks.extend([DETECTORS[mode]] * count)
        return cls(tuple(clicks))

    @cached_property
    def label(self) -> str:
        return f"{self.clicks[0]}&{self.clicks[1]}"


@dataclass(frozen=True)
class ModeBasis:
    """Fixed-order occupation basis of the four atomic momentum modes.

    Occupations are sorted lexicographically descending, so for two atoms
    the basis runs (2,0,0,0), (1,1,0,0), ... , (0,0,0,2).  The same index
    order is reused before and after the mode mixer; after it, mode i
    feeds detector DETECTORS[i].
    """

    occupations: tuple

    @property
    def dim(self) -> int:
        return len(self.occupations)

    def index(self, occ) -> int:
        return self.occupations.index(tuple(occ))


def _occupations_with_total(total: int) -> list:
    occs = []
    for n0 in range(total, -1, -1):
        for n1 in range(total - n0, -1, -1):
            for n2 in range(total - n0 - n1, -1, -1):
                occs.append((n0, n1, n2, total - n0 - n1 - n2))
    return occs


@lru_cache(maxsize=None)
def mode_basis(total: int = 2) -> ModeBasis:
    """Occupation basis holding exactly ``total`` atoms across the 4 modes."""
    if total < 0:
        raise ValueError("total occupation must be nonnegative")
    return ModeBasis(tuple(_occupations_with_total(total)))


@lru_cache(maxsize=None)
def _click_patterns() -> tuple:
    """(click pattern, published table label) of each two-atom occupation,
    in basis order."""
    patterns = [ClickPattern.from_occupation(occ) for occ in mode_basis(2).occupations]
    return tuple((pattern, PAPER_TABLE_LABELS[pattern.label]) for pattern in patterns)


def single_particle_mixer() -> np.ndarray:
    """One-atom 50/50 mixer: a1 -> (a1' + i a2')/sqrt(2) and cyclic, with
    the deflected pair (b1, b2) mixed the same way.  The 1/sqrt(2) makes
    the map unitary."""
    u = np.zeros((N_MODES, N_MODES), dtype=np.complex128)
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
def beam_splitter_unitary(basis: ModeBasis | None = None) -> np.ndarray:
    """Mode mixer lifted to the bosonic occupation basis by the permanent
    formula (Scheel, quant-ph/0406127; Aaronson & Arkhipov, arXiv:1011.3245),

        <m|U|n> = perm(U1[m, n]) / sqrt(prod_i m_i! prod_j n_j!),

    where U1[m, n] repeats output mode i m_i times and input mode j n_j
    times.  This keeps the two-atoms-in-one-mode amplitudes honest.
    """
    if basis is None:
        basis = mode_basis(2)
    u1 = single_particle_mixer()
    facts = [math.prod(map(math.factorial, occ)) for occ in basis.occupations]
    u = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for col, n in enumerate(basis.occupations):
        for row, m in enumerate(basis.occupations):
            perm = _permanent(u1[np.ix_(_modes(m), _modes(n))])
            # perm / m! is the coefficient of the output monomial.
            u[row, col] = perm / facts[row] * math.sqrt(facts[row]) / math.sqrt(facts[col])
    u.setflags(write=False)
    return u


# Two-atom occupations of the branch pairs, atom 1's branch first:
# PP = a1+ a2+, PM = a1+ b2+, MP = b1+ a2+, MM = b1+ b2+.
_BRANCH_PAIRS = ((1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))


@lru_cache(maxsize=None)
def _joint_layout() -> tuple:
    """Labels of the two-pair joint state and the basis indices of the
    branch pairs, in :data:`_BRANCH_PAIRS` order."""
    basis = mode_basis(2)
    labels = tuple((c1, c2, occ) for c1 in (0, 1) for c2 in (0, 1) for occ in basis.occupations)
    return labels, tuple(basis.index(occ) for occ in _BRANCH_PAIRS)


def _checked_pair(c_plus, c_minus) -> tuple[complex, complex]:
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    if abs(abs(c_plus) ** 2 + abs(c_minus) ** 2 - 1.0) > 1e-12:
        raise ValueError("branch amplitudes must satisfy |c+|^2 + |c-|^2 = 1")
    if not all(map(math.isfinite, (c_plus.real, c_plus.imag, c_minus.real, c_minus.imag))):
        raise ValueError("amplitudes must be finite")
    return c_plus, c_minus


def _joint_amplitudes(pairs) -> np.ndarray:
    """(pair, cavity pair, two-atom mode) amplitudes of the joint states of
    checked (c+, c-) pairs, as in :func:`joint_state_from_amplitudes`."""
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
    labels, columns = _joint_layout()
    amps = np.zeros((len(coeffs), 4, len(labels) // 4), dtype=np.complex128)
    amps[:, :, columns] = np.array(coeffs, dtype=np.complex128).reshape(-1, 4, 4)
    return amps


def joint_state_from_amplitudes(c_plus: complex, c_minus: complex) -> StateVector:
    """Two-pair joint state before the mode mixer, from one-photon branch
    amplitudes (undeflected, deflected) shared by both atoms.

    The zero-photon branch leaves its atom undeflected with amplitude one,
    so the state over (cavity 1, cavity 2, mode occupation) reads

        (1/2) [ |00> a1+a2+  +  |01> a1+(c+ a2+ + c- b2+)
              + |10> (c+ a1+ + c- b1+) a2+
              + |11> (c+ a1+ + c- b1+)(c+ a2+ + c- b2+) ] |vac>.

    Requires |c+|^2 + |c-|^2 = 1; every term holds exactly two atoms.
    """
    amps = _joint_amplitudes([_checked_pair(c_plus, c_minus)])
    return StateVector(_joint_layout()[0], amps.reshape(-1))


def joint_state(p: BraggParams, time_scale: float = 1.0) -> StateVector:
    """Joint state of both cavities and both atoms before the mode mixer,
    with the one-photon branch amplitudes of :func:`branch_amplitudes`."""
    return joint_state_from_amplitudes(*branch_amplitudes(p, time_scale))


def _mode_amplitudes(s: StateVector) -> np.ndarray:
    """Amplitudes of a joint state as a (cavity pair, two-atom mode) array."""
    dim = mode_basis(2).dim
    if s.dim != 4 * dim:
        raise ValueError("expected a (cavity pair x two-atom mode) joint state")
    return s.amps.reshape(4, dim)


def apply_beam_splitter(s: StateVector) -> StateVector:
    """Send both atoms through the momentum-mode mixers.

    The labels keep their positions; after this call the occupation slots
    refer to the primed (detector-facing) modes.
    """
    u = beam_splitter_unitary(mode_basis(2))
    out = (_mode_amplitudes(s) @ u.T).reshape(-1)
    return StateVector(s.labels, out)


def epr_decomposition_check(s: StateVector, phase: float) -> tuple[bool, float]:
    """Verify the four-branch Bell decomposition of the joint state.

    Rebuilds the state as a sum of cavity Bell states paired with two-atom
    momentum EPR states,

        (1/4) (PP + e^{-2i phi} MM)(|00> - |11>)
      + (1/4) (PP - e^{-2i phi} MM)(|00> + |11>)
      + (i e^{-i phi}/4) (PM + MP)(|01> + |10>)
      + (i e^{-i phi}/4) (PM - MP)(|01> - |10>),

    and returns (residual <= 1e-12, residual) against ``s``.  P and M are
    the undeflected/deflected single-atom modes, so PP = a1+a2+|vac> etc.
    """
    amps = _mode_amplitudes(s)
    basis = mode_basis(2)

    def occ_vec(occ):
        v = np.zeros(basis.dim, dtype=np.complex128)
        v[basis.index(occ)] = 1.0
        return v

    pp = occ_vec((1, 1, 0, 0))
    mm = occ_vec((0, 0, 1, 1))
    pm = occ_vec((1, 0, 0, 1))
    mp = occ_vec((0, 1, 1, 0))
    c00 = np.array([1, 0, 0, 0], dtype=np.complex128)
    c01 = np.array([0, 1, 0, 0], dtype=np.complex128)
    c10 = np.array([0, 0, 1, 0], dtype=np.complex128)
    c11 = np.array([0, 0, 0, 1], dtype=np.complex128)
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


@dataclass(frozen=True)
class HeraldResult:
    """Conditional outcome for one click pattern.

    ``conditional_state`` is the normalised two-cavity density matrix (None
    when the pattern has probability zero), ``classification`` the best
    matching target with its fidelity, ``concurrence`` the closed form
    2|ad - bc| of the pure heralded state a|00> + b|01> + c|10> + d|11>,
    ``paper_label`` the published table entry for comparison.
    """

    pattern: ClickPattern
    probability: float
    conditional_state: np.ndarray | None
    classification: str
    fidelity_to_class: float
    concurrence: float
    paper_label: str


def branch_pair(p: BraggParams, time_scale: float = 1.0) -> tuple[complex, complex]:
    """The branch amplitudes of :func:`~cavityswap.bragg.branch_amplitudes`
    as a checked pair of complex numbers: ValueError unless
    |c+|^2 + |c-|^2 = 1 within 1e-12 and both are finite."""
    return _checked_pair(*branch_amplitudes(p, time_scale))


class Heralds(NamedTuple):
    """Herald statistics of R joint states, one row per state and one
    column per click pattern (in :func:`mode_basis` order).

    ``states[r, :, j]`` is the normalised conditional cavity vector of
    pattern j, ``classes`` indexes the best matching target of
    :data:`CLASS_TARGETS`, or "none" after them for a pattern of
    probability zero (whose fidelity and concurrence read 0), and
    ``concurrences`` holds the closed form 2|ad - bc| of each pure herald.
    """

    probabilities: np.ndarray
    states: np.ndarray
    classes: np.ndarray
    fidelities: np.ndarray
    concurrences: np.ndarray


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
        states=vecs,
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


def _herald_results(heralds: Heralds, row: int) -> list:
    """The :class:`HeraldResult` of every pattern of one row of a batch."""
    vecs = heralds.states[row]
    rhos = vecs.T[:, :, None] * vecs.T[:, None, :].conj()
    rhos.setflags(write=False)
    return [
        HeraldResult(pattern, prob, None if prob == 0.0 else rhos[j], _CLASS_NAMES[k], fid, c, paper)
        for j, ((pattern, paper), prob, k, fid, c) in enumerate(zip(
            _click_patterns(), heralds.probabilities[row].tolist(), heralds.classes[row].tolist(),
            heralds.fidelities[row].tolist(), heralds.concurrences[row].tolist(),
        ))
    ]


def click_distribution(s: StateVector) -> list:
    """Exact outcome distribution of a mode-mixed joint state.

    One entry per possible two-click pattern (zero-probability patterns
    included); probabilities must sum to one within 1e-12 or the state was
    not a valid post-mixer joint state.  Every statistic is computed for
    all patterns at once, on the (cavity pair x pattern) amplitude array.
    """
    return _herald_results(_heralds(_mode_amplitudes(s)[None]), 0)


def herald_distribution(p: BraggParams, time_scale: float = 1.0) -> list:
    """Click distribution for the full protocol at the given timing."""
    return _herald_results(herald_batch([branch_pair(p, time_scale)]), 0)


def _sample_counts(probs, shots: int, seed: int, efficiency: float) -> tuple[list, int]:
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
    success_rate: float
    success_probability: float
    mean_psi_fidelity: float
    mean_psi_concurrence: float


def sample_protocol(
    heralds: Heralds, row: int, shots: int, seed: int, detection_efficiency: float = 1.0
) -> ProtocolSample:
    """Draw the counts of ``shots`` click patterns from one row of a herald
    batch, in one multinomial draw seeded by ``seed``, and sum the psi
    heralds in pattern order.  With ``detection_efficiency`` below one each
    atom is detected independently with that probability and shots with a
    missed click are discarded."""
    probs = heralds.probabilities[row].tolist()
    counts, discarded = _sample_counts(probs, shots, seed, detection_efficiency)
    retained = shots - discarded
    psi = [
        (prob, fid, c, count)
        for prob, k, fid, c, count in zip(
            probs, heralds.classes[row].tolist(), heralds.fidelities[row].tolist(),
            heralds.concurrences[row].tolist(), counts,
        )
        if k in _PSI
    ]
    psi_prob = sum(prob for prob, _, _, _ in psi)
    success_count = sum(count for *_, count in psi)
    return ProtocolSample(
        counts=counts,
        retained_shots=retained,
        discarded_shots=discarded,
        success_rate=success_count / retained if retained else 0.0,
        success_probability=psi_prob,
        mean_psi_fidelity=sum(prob * fid for prob, fid, _, _ in psi) / psi_prob if psi_prob else 0.0,
        mean_psi_concurrence=sum(prob * c for prob, _, c, _ in psi) / psi_prob if psi_prob else 0.0,
    )


@dataclass(frozen=True)
class ProtocolReport:
    """Exact distribution plus sampled statistics for one protocol run."""

    params: BraggParams
    seed: int
    shots: int
    time_scale: float
    detection_efficiency: float
    results: tuple
    counts: tuple
    retained_shots: int
    discarded_shots: int
    success_rate: float
    success_probability: float
    class_stats: dict
    mean_psi_fidelity: float
    mean_psi_concurrence: float
    paper_label_divergences: tuple
    note: str

    def summary(self) -> dict:
        """Body of the protocol summary artifact (the CLI adds version and config)."""
        return {
            "seed": self.seed,
            "shots": self.shots,
            "retained_shots": self.retained_shots,
            "discarded_shots": self.discarded_shots,
            "time_scale": self.time_scale,
            "detection_efficiency": self.detection_efficiency,
            "success_rate": self.success_rate,
            "success_probability": self.success_probability,
            "mean_psi_fidelity": self.mean_psi_fidelity,
            "mean_psi_concurrence": self.mean_psi_concurrence,
            "class_stats": self.class_stats,
            "paper_label_divergences": list(self.paper_label_divergences),
            "note": self.note,
        }


def run_protocol(
    p: BraggParams,
    shots: int,
    seed: int,
    time_scale: float = 1.0,
    detection_efficiency: float = 1.0,
) -> ProtocolReport:
    """Sample the protocol and aggregate herald statistics.

    Draws the counts of ``shots`` click patterns from the exact
    distribution at the given interaction-time scale, in one multinomial
    draw seeded by ``seed``.  With ``detection_efficiency`` below one each
    atom is detected independently with that probability and shots with a
    missed click are discarded.  Success means heralding one of the psi
    Bell states.
    """
    if shots <= 0:
        raise ValueError("shots must be a positive integer")
    if time_scale < 0.0:
        raise ValueError(f"time_scale must be nonnegative, got {time_scale!r}")
    if not 0.0 < detection_efficiency <= 1.0:
        raise ValueError("detection efficiency must be in (0, 1]")
    heralds = herald_batch([branch_pair(p, time_scale)])
    dist = _herald_results(heralds, 0)
    sample = sample_protocol(heralds, 0, shots, seed, detection_efficiency)

    # (probability, count, fidelity, concurrence, label) of each pattern, by class.
    by_class: dict = {}
    for h, count in zip(dist, sample.counts):
        row = (h.probability, count, h.fidelity_to_class, h.concurrence, h.pattern.label)
        by_class.setdefault(h.classification, []).append(row)
    class_stats: dict = {}
    for name in _CLASS_NAMES:
        if name not in by_class:
            continue
        probs, cts, fids, concs, labels = zip(*by_class[name])
        prob, ct = sum(probs), sum(cts)
        stats = {"probability": prob, "count": ct, "patterns": list(labels)}
        if prob > 0.0:
            stats["fidelity_exact"] = sum(p * f for p, f in zip(probs, fids)) / prob
            stats["concurrence_exact"] = sum(p * c for p, c in zip(probs, concs)) / prob
        if ct > 0:
            stats["fidelity_empirical"] = sum(c * f for c, f in zip(cts, fids)) / ct
        class_stats[name] = stats

    divergences = tuple(
        h.pattern.label for h in dist if h.probability > 0.0 and h.classification != h.paper_label
    )
    note = (
        "herald classifications follow the bosonic mode calculation; "
        "paper_label reproduces the published click table, which disagrees "
        "on the flagged patterns"
        if divergences
        else "herald classifications agree with the published click table"
    )
    return ProtocolReport(
        params=p,
        seed=seed,
        shots=shots,
        time_scale=time_scale,
        detection_efficiency=detection_efficiency,
        results=tuple(dist),
        counts=tuple(sample.counts),
        retained_shots=sample.retained_shots,
        discarded_shots=sample.discarded_shots,
        success_rate=sample.success_rate,
        success_probability=sample.success_probability,
        class_stats=class_stats,
        mean_psi_fidelity=sample.mean_psi_fidelity,
        mean_psi_concurrence=sample.mean_psi_concurrence,
        paper_label_divergences=divergences,
        note=note,
    )
