"""Bragg scattering of a ground-state atom off a cavity standing wave.

The atom enters with transverse momentum +(l0/2) hbar k and, deep in the
dispersive regime, Pendelloesung-oscillates between that momentum and the
mirror value -(l0/2) hbar k.  This module builds the momentum-ladder
Hamiltonian that drives the oscillation (and the two-manifold model it is
derived from), evaluates the closed-form oscillation amplitudes and timing,
and assembles the atom-cavity entangled pair state the swap protocol
consumes.

Units: hbar = 1, frequencies in units of the photon-recoil frequency,
momenta in units of hbar k.  :func:`recoil_frequency` converts physical
parameters into these units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import propagate

__all__ = [
    "BraggParams",
    "recoil_frequency",
    "ladder_offsets",
    "build_effective_hamiltonian",
    "build_full_hamiltonian",
    "max_excited_population",
    "pendellosung_frequency",
    "full_deflection_time",
    "deflection_phase",
    "analytic_amplitudes",
    "branch_amplitudes",
    "LadderState",
    "evolve_ladder",
    "nonnegative_times",
    "nonnegative_time_scale",
    "bounded_ladder_time",
    "POPULATION_COLUMNS",
    "PopulationComparison",
    "oracle_compare",
    "pair_labels",
    "entangled_pair_state",
    "ladder_pair_fidelity",
    "pair_oracle_fidelity",
]

HBAR = 1.054571817e-34  # J s

# Boundary population above this marks the ladder truncation as too tight.
TRUNCATION_LIMIT = 1e-6

@dataclass(frozen=True)
class BraggParams:
    """Dimensionless parameters of one atom-cavity Bragg interaction.

    Attributes
    ----------
    g : float
        Vacuum Rabi frequency in recoil units.
    delta : float
        Detuning between the atomic transition and the field, recoil units.
        The ratio delta/g must be at least 10 (dispersive regime); below 50
        a warning is emitted because the closed forms degrade.
    l0 : int
        Positive even integer; the atom enters at momentum +(l0/2) hbar k
        and scatters to -(l0/2) hbar k.  The full deflection time must be a
        finite positive float: at g = 1, delta = 100, l0 is at most 142.
    r : int
        Positive odd integer selecting which full-deflection time to use.
    ladder_halfwidth : int
        The ladder keeps momentum offsets -2L .. +2L in steps of 2; must
        leave at least two sites beyond the Bragg pair and be at most
        ``MAX_LADDER_HALFWIDTH``.  Defaults to l0/2 + 6.
    """

    g: float = 1.0
    delta: float = 100.0
    l0: int = 2
    r: int = 1
    ladder_halfwidth: int | None = None

    # The ladders are dense: (2L+1)^2 complex entries for the effective
    # model and (4L+3)^2 for the two-manifold one, each diagonalised by an
    # O(M^3) eigh, so L = 1e5 would ask for hundreds of GiB.  The cap still
    # admits the default halfwidth of every l0 with a finite deflection
    # time: l0 is at most 268 (past it the Pendelloesung denominator
    # overflows, whatever g and delta), whose default is 140.
    MAX_LADDER_HALFWIDTH = 256

    def __post_init__(self):
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ValueError("vacuum Rabi frequency g must be positive and finite")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("detuning delta must be positive and finite")
        if self.l0 < 2 or self.l0 % 2 != 0:
            raise ValueError("l0 must be a positive even integer (got %r)" % (self.l0,))
        if self.r < 1 or self.r % 2 != 1:
            raise ValueError("r must be a positive odd integer (got %r)" % (self.r,))
        ratio = self.delta / self.g
        if ratio < 10.0:
            raise ValueError(
                f"dispersive ratio delta/g = {ratio:.3g} is below 10; "
                "the model requires an off-resonant interaction"
            )
        if ratio < 50.0:
            warnings.warn(
                f"dispersive ratio delta/g = {ratio:.3g} is below 50; "
                "closed-form amplitudes lose accuracy",
                UserWarning,
                stacklevel=2,
            )
        if self.ladder_halfwidth is None:
            object.__setattr__(self, "ladder_halfwidth", self.l0 // 2 + 6)
        if self.ladder_halfwidth < self.l0 // 2 + 2:
            raise ValueError(
                f"ladder_halfwidth must be at least l0/2 + 2 = {self.l0 // 2 + 2}"
            )
        try:
            finite = 0.0 < full_deflection_time(self) < math.inf
        except ArithmeticError:  # the frequency is 0, or a factor of it overflows
            finite = False
        if not finite:
            raise ValueError(
                f"l0 = {self.l0} with g = {self.g!r} and delta = {self.delta!r} gives no finite positive "
                "full deflection time: the Pendelloesung frequency leaves the float range"
            )
        if self.ladder_halfwidth > self.MAX_LADDER_HALFWIDTH:
            raise ValueError(
                f"ladder_halfwidth must be at most {self.MAX_LADDER_HALFWIDTH}, got {self.ladder_halfwidth}"
            )


def recoil_frequency(mass_kg: float, wavelength_m: float) -> float:
    """Photon-recoil angular frequency hbar k^2 / (2 M) in rad/s."""
    if mass_kg <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("mass and wavelength must be positive")
    k = 2.0 * math.pi / wavelength_m
    return HBAR * k * k / (2.0 * mass_kg)


def ladder_offsets(p: BraggParams) -> np.ndarray:
    """Even momentum offsets retained by the truncated ladder."""
    hw = 2 * p.ladder_halfwidth
    return np.arange(-hw, hw + 1, 2)


def _ladder_terms(p: BraggParams) -> tuple[np.ndarray, float]:
    """Diagonal and neighbour coupling of :func:`build_effective_hamiltonian`."""
    kinetic = (p.l0 / 2.0 + ladder_offsets(p)) ** 2 - (p.l0 / 2.0) ** 2
    light_shift = -(p.g**2) / (2.0 * p.delta)
    return kinetic + light_shift, -(p.g**2) / (4.0 * p.delta)


def build_effective_hamiltonian(p: BraggParams) -> np.ndarray:
    """Momentum-ladder Hamiltonian after eliminating the excited state.

    Diagonal entries hold the recoil kinetic energy (zeroed at the
    incoming momentum, a global phase choice) plus the one-photon light
    shift -g^2 / (2 delta), which is kept so the relative phase between the
    zero- and one-photon branches stays physical.  Standing wave momentum
    transfer couples ladder neighbours (offset +-2) with strength
    -g^2 / (4 delta).  The zero-photon branch has no coupling, so the atom
    stays at its incoming momentum there and needs no ladder of its own.
    """
    diagonal, coupling = _ladder_terms(p)
    h = np.diag(diagonal.astype(np.complex128))
    i = np.arange(len(diagonal) - 1)
    h[i, i + 1] = coupling
    h[i + 1, i] = coupling
    return h


def build_full_hamiltonian(p: BraggParams) -> np.ndarray:
    """Ground/excited two-manifold Hamiltonian before adiabatic elimination.

    The ground manifold (atom in its ground state, one photon) lives on the
    even momentum ladder; absorbing the photon moves the atom to the excited
    manifold, detuned by delta, on the odd ladder.  The standing wave shifts
    momentum by +-1 on each absorption or emission, with matrix element g/2.

    The G ground sites come first, on the offsets of :func:`ladder_offsets`
    (the incoming momentum is index ``p.ladder_halfwidth``); the G + 1
    excited sites follow, on the odd offsets from one below the first
    ground offset to one above the last, so ground site i couples to
    excited sites G + i and G + i + 1.
    """
    even = ladder_offsets(p)
    kin_even = (p.l0 / 2.0 + even) ** 2 - (p.l0 / 2.0) ** 2
    odd = np.arange(even[0] - 1, even[-1] + 2, 2)
    kin_odd = (p.l0 / 2.0 + odd) ** 2 - (p.l0 / 2.0) ** 2
    h = np.diag(np.concatenate((kin_even, kin_odd + p.delta)).astype(np.complex128))
    ground = np.arange(len(even))
    coupling = 0.5 * p.g
    for excited in (ground + len(even), ground + len(even) + 1):
        h[ground, excited] = coupling
        h[excited, ground] = coupling
    return h


def max_excited_population(p: BraggParams) -> float:
    """Largest excited-manifold population seen while evolving the full model.

    Starts from the ground manifold at the incoming momentum and samples
    the population at 400 evenly spaced times up to the full deflection
    time.  Small values validate the adiabatic elimination behind the
    effective ladder.
    """
    h = build_full_hamiltonian(p)
    psi0 = np.zeros(len(h), dtype=np.complex128)
    psi0[p.ladder_halfwidth] = 1.0
    times = full_deflection_time(p) * np.arange(1, 401) / 400
    excited = propagate(h, psi0, times, rows=np.arange(len(ladder_offsets(p)), len(h)))
    return float(np.max(np.sum(np.abs(excited) ** 2, axis=1)))


def pendellosung_frequency(p: BraggParams) -> float:
    """Angular frequency of the population flop between the two Bragg momenta.

    First order (l0 = 2): g^2 / (2 delta).  Higher orders pick up one
    recoil denominator per intermediate ladder site:
    (g^2 / 2 delta)^(l0/2) / [2^(l0/2 - 1) * (l0-2)(l0-4)...4*2]
    with frequencies already in recoil units.
    """
    base = p.g**2 / (2.0 * p.delta)
    if p.l0 == 2:
        return base
    order = p.l0 // 2
    denom = 2.0 ** (order - 1) * math.prod(range(2, p.l0 - 1, 2))
    return base**order / denom


def pendellosung_phase_rate(p: BraggParams) -> float:
    """Common phase accumulation rate of the two Bragg amplitudes.

    Zero at first order; for l0 > 2 equals -(g^2 / 4 delta)^2 / (2 (l0-2))
    in recoil units.
    """
    if p.l0 == 2:
        return 0.0
    return -((p.g**2 / (4.0 * p.delta)) ** 2) / ((p.l0 - 2) * 2.0)


def full_deflection_time(p: BraggParams) -> float:
    """Interaction time r pi / |B| after which a one-photon field flips
    the momentum with certainty (r odd)."""
    return p.r * math.pi / pendellosung_frequency(p)


def deflection_phase(p: BraggParams) -> float:
    """Phase r pi A/B carried by the deflected amplitude at the full
    deflection time.

    The deflected amplitude there is i (-1)^((r-1)/2) e^{-i phi} (see
    :func:`branch_amplitudes`); the phi returned here leaves the
    sign (-1)^((r-1)/2) out, so at r = 3 mod 4 it is off by pi from the
    phase the amplitude actually carries.
    """
    return p.r * math.pi * pendellosung_phase_rate(p) / pendellosung_frequency(p)


def analytic_amplitudes(p: BraggParams, t):
    """Closed-form amplitudes (undeflected, deflected) at time ``t``, a
    number or an array of times (then two arrays of that shape).

    The atom starts fully in the incoming momentum, so the undeflected
    amplitude is exp(-i A t) cos(B t / 2) and the deflected amplitude is
    i exp(-i A t) sin(B t / 2); the populations always sum to one.
    """
    a = pendellosung_phase_rate(p)
    b = pendellosung_frequency(p)
    phase = np.exp(-1j * a * t)
    return phase * np.cos(0.5 * b * t), 1j * phase * np.sin(0.5 * b * t)


def branch_amplitudes(p: BraggParams, time_scale: float = 1.0) -> tuple[complex, complex]:
    """One-photon branch amplitudes (undeflected, deflected) after
    ``time_scale`` full deflection times.

    At the nominal scale 1 they are the exact algebraic limit of
    :func:`analytic_amplitudes`, free of numerical cosine dust: 0 and
    i (-1)^((r-1)/2) e^{-i phi}, since sin(r pi / 2) = (-1)^((r-1)/2) and the
    accrued phase equals the deflection phase.  Other scales keep the
    closed-form undeflected leakage.
    """
    if time_scale == 1.0:
        parity = -1.0 if (p.r - 1) // 2 % 2 else 1.0
        return 0.0j, complex(1j * parity * np.exp(-1j * deflection_phase(p)))
    return analytic_amplitudes(p, time_scale * full_deflection_time(p))


@dataclass(frozen=True)
class LadderState:
    """Ladder amplitudes after an interaction, ``amps[i]`` at momentum
    offset ``ladder_offsets(p)[i]``, with the populations of offset 0 (the
    incoming momentum), offset -l0 (the deflected one) and the two
    boundary sites (above ``TRUNCATION_LIMIT``, a too-tight truncation)."""

    amps: np.ndarray
    undeflected_population: float
    deflected_population: float
    boundary_population: float


def evolve_ladder(p: BraggParams, t: float) -> LadderState:
    """Numerically exact evolution of the truncated ladder from offset 0.

    This is the independent check for the closed-form amplitudes: it
    propagates under the effective ladder Hamiltonian with no further
    approximation, and keeps every site's amplitude.
    """
    psi0 = np.zeros(len(ladder_offsets(p)), dtype=np.complex128)
    psi0[p.ladder_halfwidth] = 1.0
    amps = propagate(build_effective_hamiltonian(p), psi0, [t])[0]
    incoming, deflected = p.ladder_halfwidth, p.ladder_halfwidth - p.l0 // 2
    return LadderState(amps, float(abs(amps[incoming]) ** 2), float(abs(amps[deflected]) ** 2),
                       float(abs(amps[0]) ** 2 + abs(amps[-1]) ** 2))


def nonnegative_times(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless every one of them is
    finite and nonnegative."""
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("times must be nonnegative")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite and nonnegative")
    return times


def nonnegative_time_scale(time_scale: float) -> float:
    """``time_scale`` as a float; ValueError unless it is finite and
    nonnegative."""
    if time_scale < 0.0:
        raise ValueError(f"time_scale must be nonnegative, got {time_scale!r}")
    if not math.isfinite(time_scale):
        raise ValueError(f"time_scale must be finite, got {time_scale!r}")
    return float(time_scale)


def bounded_ladder_time(p: BraggParams, t: float) -> float:
    """``t`` as a float; ValueError unless its product with a bound on the
    ladder's eigenvalues, max |diagonal| + 2 |coupling| (Gershgorin), stays
    in the float range, so that no phase t * lambda of
    :func:`~cavityswap.quantum.propagate` overflows.  The bound needs
    neither the Hamiltonian nor its eigendecomposition."""
    t = float(t)
    diagonal, coupling = _ladder_terms(p)
    bound = float(np.max(np.abs(diagonal))) + 2.0 * abs(coupling)
    if not math.isfinite(t * bound):
        raise ValueError(f"time {t!r} x the ladder spectral bound {bound!r} leaves the float range")
    return t


# Columns of PopulationComparison.table, and of ``oracle_compare.csv``.
POPULATION_COLUMNS = (
    "time",
    "analytic_undeflected",
    "analytic_deflected",
    "ladder_undeflected",
    "ladder_deflected",
    "error",
)


@dataclass(frozen=True)
class PopulationComparison:
    """Closed-form vs exact-ladder populations along a time grid.

    ``table`` holds one row per time and one column per name in
    :data:`POPULATION_COLUMNS`; ``final_amplitudes`` holds the complex
    ladder amplitudes (incoming, deflected) at the grid's last time.
    """

    table: np.ndarray
    max_error: float
    truncation_warning: bool
    final_amplitudes: np.ndarray


def _population(z: np.ndarray) -> np.ndarray:
    # |z|^2 rounded exactly as Python's abs(z) ** 2: hypot, then pow(x, 2),
    # which is not always the x * x that np.abs(z) ** 2 computes.
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def oracle_compare(p, times):
    """Closed-form populations against the exact ladder along a finite,
    nonnegative time grid.

    Each time is propagated directly from t = 0 by one
    :func:`~cavityswap.quantum.propagate` call, so the ladder Hamiltonian
    gets one eigendecomposition per call, however long the grid; propagate
    evaluates it in blocks of ``SERIES_BLOCK`` (512) times.  Only the
    incoming, deflected and two boundary sites are computed.  An empty
    grid, which has no last time, is refused.

    ``p`` may also be a sequence of G parameter sets on one ladder layout
    (equal ``l0`` and ``ladder_halfwidth``), with ``times`` a (G, T) grid of
    one row per set.  Their Hamiltonians are then diagonalised in one
    stacked call, and a tuple of G comparisons is returned, each bitwise
    equal to the comparison of its own call.
    """
    stacked = not isinstance(p, BraggParams)
    ps = tuple(p) if stacked else (p,)
    times = nonnegative_times(times if stacked else [times])
    if len({(q.l0, q.ladder_halfwidth) for q in ps}) != 1 or times.ndim != 2 or len(times) != len(ps):
        raise ValueError("a stack of ladders needs one l0 and ladder_halfwidth and one row of times per set")
    if times.shape[1] == 0:
        raise ValueError("a comparison needs at least one time")
    h = np.stack([build_effective_hamiltonian(q) for q in ps])
    offsets = list(ladder_offsets(ps[0]))
    sites = [offsets.index(0), offsets.index(-ps[0].l0), 0, len(offsets) - 1]
    psi0 = np.zeros((len(ps), len(offsets)), dtype=np.complex128)
    psi0[:, sites[0]] = 1.0
    amps = propagate(h, psi0, times, rows=sites)
    # The amplitudes go once their last row and populations are taken, and
    # the closed-form amplitudes once their populations are.
    finals = amps[:, -1, :2].copy()
    pops = np.abs(amps)
    del amps
    pops **= 2
    out = []
    for q, t, pop, final in zip(ps, times, pops, finals):
        au, ad = (_population(c) for c in analytic_amplitudes(q, t))
        error = np.maximum(np.abs(au - pop[:, 0]), np.abs(ad - pop[:, 1]))
        boundary = float(np.max(pop[:, 2] + pop[:, 3]))
        out.append(PopulationComparison(np.column_stack((t, au, ad, pop[:, 0], pop[:, 1], error)),
                                        float(np.max(error)), boundary > TRUNCATION_LIMIT, final))
    return tuple(out) if stacked else out[0]


def pair_labels(p: BraggParams) -> tuple:
    """(photon number, momentum in hbar k units) of each amplitude of
    :func:`entangled_pair_state`, in its order."""
    m = p.l0 // 2
    return ((0, m), (0, -m), (1, m), (1, -m))


def entangled_pair_state(p: BraggParams, time_scale: float = 1.0) -> np.ndarray:
    """Atom-cavity entangled state after ``time_scale`` full deflection times.

    The cavity starts in (|0> + |1>)/sqrt(2); the zero-photon branch leaves
    the atom untouched while the one-photon branch carries
    :func:`branch_amplitudes`.  At the nominal scale 1 the state is
    (|0, +p> + i (-1)^((r-1)/2) e^{-i phi} |1, -p>)/sqrt(2).

    Returns the four amplitudes in the order of :func:`pair_labels`.
    """
    c_plus, c_minus = branch_amplitudes(p, time_scale)
    return np.array([1.0, 0.0, c_plus, c_minus], dtype=np.complex128) / math.sqrt(2.0)


def ladder_pair_fidelity(p: BraggParams, comparison: PopulationComparison, time_scale: float) -> float:
    """|<closed form|ladder>|^2: the pair state after ``time_scale`` full
    deflection times against the exact ladder pair at ``comparison``'s last
    time, which should be that interaction time.

    The zero-photon atom stays at the incoming momentum bit for bit; the
    one-photon branch carries the comparison's final amplitudes, rotated
    into the frame co-rotating with the light shift -g^2 / (2 delta), where
    the closed forms live.  No other ladder site overlaps the closed form,
    so the overlap runs over the four sites of :func:`pair_labels`.
    """
    t = float(comparison.table[-1, 0])
    frame = np.exp(-1j * (p.g**2 / (2.0 * p.delta)) * t)
    incoming, deflected = comparison.final_amplitudes
    ladder = np.array([1.0, 0.0, frame * incoming, frame * deflected], dtype=np.complex128) / math.sqrt(2.0)
    return float(abs(np.vdot(entangled_pair_state(p, time_scale), ladder)) ** 2)


def pair_oracle_fidelity(p: BraggParams, time_scale: float = 1.0) -> tuple[float, bool]:
    """:func:`ladder_pair_fidelity` after ``time_scale`` full deflection
    times, with the ladder's truncation flag there."""
    comparison = oracle_compare(p, [time_scale * full_deflection_time(p)])
    return ladder_pair_fidelity(p, comparison, time_scale), comparison.truncation_warning
