"""Simulation state primitives: statevector and stabilizer tableau.

Running a circuit is the job of the engines (:mod:`repro.engines`);
this package holds only the states they evolve.  :class:`Statevector`,
the Monte-Carlo engine's trajectory batches and the density-matrix
engine execute gates via the shared in-place NumPy kernel layer in
:mod:`repro.simulator.kernels`.
"""

from . import kernels
from .stabilizer import StabilizerState, StabilizerError
from .statevector import (
    SimulationError,
    SimulationResult,
    Statevector,
)

__all__ = [
    "kernels",
    "StabilizerState",
    "StabilizerError",
    "SimulationError",
    "SimulationResult",
    "Statevector",
]
