"""Simulator of a two-cavity entanglement-swapping protocol.

Two atoms Bragg-scatter off distant cavities prepared in photon-number
superpositions, their momentum modes are mixed on 50/50 beam splitters,
and detector coincidences herald entangled states of the two cavities.
The package provides the exact state machinery, closed-form Bragg
amplitudes with an independent ladder cross-check, heralded click
statistics with seeded sampling, sweep tooling, and a CLI.
"""

__version__ = "0.4.0"

from .quantum import (
    StateVector,
    basis_state,
    expm,
    evolve,
    concurrence,
)
from .bragg import (
    BraggParams,
    recoil_frequency,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    max_excited_population,
    pendellosung_frequency,
    pendellosung_phase_rate,
    full_deflection_time,
    deflection_phase,
    analytic_amplitudes,
    evolve_ladder,
    ladder_population_series,
    entangled_pair_state,
    pair_state_from_ladder,
    pair_oracle_fidelity,
)
from .swap import (
    ClickPattern,
    HeraldResult,
    ProtocolReport,
    beam_splitter_unitary,
    joint_state,
    apply_beam_splitter,
    epr_decomposition_check,
    click_distribution,
    herald_distribution,
    run_protocol,
)
from .metrics import (
    SweepSpec,
    ComparisonRow,
    oracle_compare,
    run_sweep,
    wilson_interval,
)

__all__ = [
    "__version__",
    "StateVector",
    "basis_state",
    "expm",
    "evolve",
    "concurrence",
    "BraggParams",
    "recoil_frequency",
    "build_effective_hamiltonian",
    "build_full_hamiltonian",
    "max_excited_population",
    "pendellosung_frequency",
    "pendellosung_phase_rate",
    "full_deflection_time",
    "deflection_phase",
    "analytic_amplitudes",
    "evolve_ladder",
    "ladder_population_series",
    "entangled_pair_state",
    "pair_state_from_ladder",
    "pair_oracle_fidelity",
    "ClickPattern",
    "HeraldResult",
    "ProtocolReport",
    "beam_splitter_unitary",
    "joint_state",
    "apply_beam_splitter",
    "epr_decomposition_check",
    "click_distribution",
    "herald_distribution",
    "run_protocol",
    "SweepSpec",
    "ComparisonRow",
    "oracle_compare",
    "run_sweep",
    "wilson_interval",
]
