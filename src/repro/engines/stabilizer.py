"""The ``stabilizer`` builtin engine — polynomial-time Clifford runs.

A thin adapter over :class:`repro.simulator.stabilizer.StabilizerSimulator`.
The direct simulator returns a raw counts dict; the adapter wraps the
byte-identical dict in a :class:`SimulationResult` so every engine has
one result type (the dict itself is golden-asserted against the direct
path in ``tests/engines/test_adapters_golden.py``).  Non-Clifford gates
raise the simulator's own :class:`StabilizerError`.
"""

from __future__ import annotations

from typing import Optional

from ..core.circuit import QuantumCircuit
from ..simulator.stabilizer import StabilizerSimulator
from ..simulator.statevector import SimulationResult, _measured_width
from .base import EngineCapabilities, reject_noise, reject_opts, reject_width
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
        """Run a Clifford circuit on a fresh :class:`StabilizerSimulator`.

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
        reject_width(self, circuit)
        reject_noise(self, noise)
        reject_opts(self, opts)
        counts = StabilizerSimulator(seed=seed).run(circuit, shots=shots)
        return SimulationResult(counts, None, shots, _measured_width(circuit))


#: the registry's lazy-loading hook (mirrors ``emit``'s ``EMITTER``).
ENGINE = StabilizerEngine()
