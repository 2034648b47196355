"""Simulation backends: statevector, stabilizer, noisy, resource counter.

The statevector, noisy, and dense-unitary paths all execute gates via
the shared in-place NumPy kernel layer in :mod:`repro.simulator.kernels`.
"""

from . import kernels
from ..engines.noise import NoiseModel  # canonical home since PR 8
from .noise import NoisyBackend
from .resources import ResourceCounter, ResourceEstimate
from .stabilizer import StabilizerSimulator, StabilizerState, StabilizerError
from .statevector import (
    SimulationError,
    SimulationResult,
    Statevector,
    StatevectorSimulator,
    evolve_batch,
)

__all__ = [
    "kernels",
    "evolve_batch",
    "NoiseModel",
    "NoisyBackend",
    "ResourceCounter",
    "ResourceEstimate",
    "StabilizerSimulator",
    "StabilizerState",
    "StabilizerError",
    "SimulationError",
    "SimulationResult",
    "Statevector",
    "StatevectorSimulator",
]
