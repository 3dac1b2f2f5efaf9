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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bragg import BraggParams, branch_amplitudes
from .quantum import StateVector, concurrence

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
    "HeraldResult",
    "click_distribution",
    "herald_distribution",
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

    @property
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


@lru_cache(maxsize=None)
def beam_splitter_unitary(basis: ModeBasis | None = None) -> np.ndarray:
    """Mode mixer lifted to the bosonic occupation basis.

    Each input occupation is written as a product of creation operators,
    every operator is substituted by its single-particle image and the
    polynomial is expanded; sqrt(n!) factors convert between operator
    monomials and normalised Fock states.  This keeps the two-atoms-in-
    one-mode amplitudes honest.
    """
    if basis is None:
        basis = mode_basis(2)
    u1 = single_particle_mixer()
    u = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for col, occ in enumerate(basis.occupations):
        poly = {(0,) * N_MODES: 1.0 + 0.0j}
        for mode, count in enumerate(occ):
            for _ in range(count):
                grown: dict = {}
                for mono, coeff in poly.items():
                    for out_mode in range(N_MODES):
                        w = u1[out_mode, mode]
                        if w == 0.0:
                            continue
                        key = list(mono)
                        key[out_mode] += 1
                        key = tuple(key)
                        grown[key] = grown.get(key, 0.0j) + coeff * w
                poly = grown
        norm_in = math.sqrt(math.prod(math.factorial(c) for c in occ))
        for mono, coeff in poly.items():
            norm_out = math.sqrt(math.prod(math.factorial(c) for c in mono))
            u[basis.index(mono), col] = coeff * norm_out / norm_in
    u.setflags(write=False)
    return u


def _joint_labels(basis: ModeBasis) -> tuple:
    return tuple(
        (c1, c2, occ) for c1 in (0, 1) for c2 in (0, 1) for occ in basis.occupations
    )


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
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    if abs(abs(c_plus) ** 2 + abs(c_minus) ** 2 - 1.0) > 1e-12:
        raise ValueError("branch amplitudes must satisfy |c+|^2 + |c-|^2 = 1")
    basis = mode_basis(2)
    atom1 = {"a": ((1, 0, 0, 0), c_plus), "b": ((0, 0, 1, 0), c_minus)}
    atom2 = {"a": ((0, 1, 0, 0), c_plus), "b": ((0, 0, 0, 1), c_minus)}
    amps = np.zeros(4 * basis.dim, dtype=np.complex128)

    def add(c1, c2, occ1, w1, occ2, w2):
        occ = tuple(x + y for x, y in zip(occ1, occ2))
        idx = (2 * c1 + c2) * basis.dim + basis.index(occ)
        amps[idx] += 0.5 * w1 * w2

    add(0, 0, atom1["a"][0], 1.0, atom2["a"][0], 1.0)
    for occ2, w2 in atom2.values():
        add(0, 1, atom1["a"][0], 1.0, occ2, w2)
    for occ1, w1 in atom1.values():
        add(1, 0, occ1, w1, atom2["a"][0], 1.0)
    for occ1, w1 in atom1.values():
        for occ2, w2 in atom2.values():
            add(1, 1, occ1, w1, occ2, w2)
    return StateVector(_joint_labels(basis), amps)


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
    matching target with its fidelity, ``paper_label`` the published table
    entry for comparison.
    """

    pattern: ClickPattern
    probability: float
    conditional_state: np.ndarray | None
    classification: str
    fidelity_to_class: float
    concurrence: float
    paper_label: str


def click_distribution(s: StateVector) -> list:
    """Exact outcome distribution of a mode-mixed joint state.

    One entry per possible two-click pattern (zero-probability patterns
    included); probabilities must sum to one within 1e-12 or the state was
    not a valid post-mixer joint state.
    """
    psi = _mode_amplitudes(s)
    results = []
    total = 0.0
    for j, occ in enumerate(mode_basis(2).occupations):
        pattern = ClickPattern.from_occupation(occ)
        vec = psi[:, j]
        prob = float(np.vdot(vec, vec).real)
        total += prob
        if prob == 0.0:
            results.append(
                HeraldResult(pattern, 0.0, None, "none", 0.0, 0.0, PAPER_TABLE_LABELS[pattern.label])
            )
            continue
        vec = vec / math.sqrt(prob)
        rho = np.outer(vec, vec.conj())
        rho.setflags(write=False)
        fids = {name: float(abs(np.vdot(target, vec)) ** 2) for name, target in CLASS_TARGETS.items()}
        best = max(fids, key=fids.get)
        results.append(
            HeraldResult(
                pattern,
                prob,
                rho,
                best,
                fids[best],
                concurrence(rho),
                PAPER_TABLE_LABELS[pattern.label],
            )
        )
    if abs(total - 1.0) > 1e-12:
        raise RuntimeError(f"click probabilities sum to {total!r}, not 1; joint state is corrupt")
    return results


def herald_distribution(p: BraggParams, time_scale: float = 1.0) -> list:
    """Click distribution for the full protocol at the given timing."""
    return click_distribution(apply_beam_splitter(joint_state(p, time_scale)))


def _sample_counts(dist, shots: int, seed: int, efficiency: float) -> tuple[np.ndarray, int]:
    # Each atom is missed independently of the pattern, so a discarded shot
    # is one more outcome, of probability 1 - efficiency^2.  It goes first,
    # because multinomial gives the rounding remainder to the last outcome:
    # at efficiency 1 nothing is discarded.
    kept = efficiency**2
    pvals = [1.0 - kept, *(h.probability * kept for h in dist)]
    drawn = np.random.default_rng(seed).multinomial(shots, pvals)
    return drawn[1:], int(drawn[0])


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
    dist = herald_distribution(p, time_scale)
    counts, discarded = _sample_counts(dist, shots, seed, detection_efficiency)
    retained = shots - discarded

    class_stats: dict = {}
    for name in (*CLASS_TARGETS, "none"):
        members = [(h, c) for h, c in zip(dist, counts) if h.classification == name]
        if not members:
            continue
        prob = sum(h.probability for h, _ in members)
        ct = int(sum(c for _, c in members))
        stats = {
            "probability": prob,
            "count": ct,
            "patterns": [h.pattern.label for h, _ in members],
        }
        if prob > 0.0:
            stats["fidelity_exact"] = sum(h.probability * h.fidelity_to_class for h, _ in members) / prob
            stats["concurrence_exact"] = sum(h.probability * h.concurrence for h, _ in members) / prob
        if ct > 0:
            stats["fidelity_empirical"] = sum(c * h.fidelity_to_class for h, c in members) / ct
        class_stats[name] = stats

    psi = [h for h in dist if h.classification in ("psi_plus", "psi_minus")]
    psi_prob = sum(h.probability for h in psi)
    mean_fid = sum(h.probability * h.fidelity_to_class for h in psi) / psi_prob if psi_prob else 0.0
    mean_conc = sum(h.probability * h.concurrence for h in psi) / psi_prob if psi_prob else 0.0
    success_count = int(
        sum(c for h, c in zip(dist, counts) if h.classification in ("psi_plus", "psi_minus"))
    )
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
        counts=tuple(int(c) for c in counts),
        retained_shots=retained,
        discarded_shots=discarded,
        success_rate=success_count / retained if retained else 0.0,
        success_probability=psi_prob,
        class_stats=class_stats,
        mean_psi_fidelity=mean_fid,
        mean_psi_concurrence=mean_conc,
        paper_label_divergences=divergences,
        note=note,
    )
