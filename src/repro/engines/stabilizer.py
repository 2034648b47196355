"""The ``stabilizer`` builtin engine — polynomial-time Clifford runs.

Owns the shot loop over :class:`~repro.simulator.stabilizer.StabilizerState`:
every shot starts a fresh CHP tableau at |0..0>, and measurements and
resets draw from one RNG stream shared by all shots.  Non-Clifford
gates raise the tableau's own :class:`StabilizerError`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.circuit import QuantumCircuit
from ..simulator.stabilizer import StabilizerState
from ..simulator.statevector import SimulationResult, _measured_width
from .base import (
    EngineCapabilities,
    reject_noise,
    reject_opts,
    reject_shots,
    reject_width,
)
from .noise import NoiseModel


class StabilizerEngine:
    """CHP tableau simulation for Clifford circuits."""

    name = "stabilizer"
    description = (
        "Aaronson-Gottesman tableau simulation "
        "(Clifford gates only, polynomial scaling)"
    )
    capabilities = EngineCapabilities(
        max_qubits=None, noise=False, exact=False, gate_set="clifford"
    )
    aliases = ("chp", "tableau")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Run a Clifford circuit ``shots`` times on fresh tableaus.

        Args:
            circuit: the Clifford circuit to execute.
            shots: measurement repetitions.
            noise: must be ``None`` or all-zero (this backend is
                noiseless; the error names the noisy alternatives).
            seed: RNG seed for measurement outcomes.
            **opts: no backend options are defined; any raises.

        Returns:
            The run's :class:`SimulationResult` (counts only).

        Raises:
            StabilizerError: for non-Clifford gates.
        """
        reject_shots(self, shots)
        reject_width(self, circuit)
        reject_noise(self, noise)
        reject_opts(self, opts)
        rng = np.random.default_rng(seed)
        counts: Dict[int, int] = {}
        for _ in range(shots):
            state = StabilizerState(circuit.num_qubits)
            creg = 0
            for gate in circuit.gates:
                if gate.is_measurement:
                    bit = state.measure(gate.targets[0], rng)
                    clbit = gate.cbits[0]
                    creg = (creg & ~(1 << clbit)) | (bit << clbit)
                elif gate.name == "reset":
                    if state.measure(gate.targets[0], rng):
                        state.apply_x(gate.targets[0])
                else:
                    state.apply_gate(gate)
            counts[creg] = counts.get(creg, 0) + 1
        return SimulationResult(counts, None, shots, _measured_width(circuit))


#: The backend instance listed in :mod:`repro.engines.registry`.
ENGINE = StabilizerEngine()
