"""Simulator of a two-cavity entanglement-swapping protocol.

Two atoms Bragg-scatter off distant cavities prepared in photon-number
superpositions, their momentum modes are mixed on 50/50 beam splitters,
and detector coincidences herald entangled states of the two cavities.
The package provides the exact state machinery, closed-form Bragg
amplitudes with an independent ladder cross-check, heralded click
statistics with seeded sampling, sweep tooling, and a CLI.  The top level
holds only ``__version__``; import everything else from its module
(``cavityswap.swap``, ``cavityswap.bragg``, ...).
"""

__version__ = "0.9.0"

__all__ = ["__version__"]
