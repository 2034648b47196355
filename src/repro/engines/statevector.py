"""The ``statevector`` builtin engine — the default backend.

A thin adapter over :class:`repro.simulator.statevector.StatevectorSimulator`:
the registry path constructs the same simulator with the same arguments
as direct use, so results are identical shot-for-shot (golden-asserted
in ``tests/engines/test_adapters_golden.py``).
"""

from __future__ import annotations

from typing import Optional

from ..core.circuit import QuantumCircuit
from ..simulator.statevector import SimulationResult, StatevectorSimulator
from .base import EngineCapabilities, reject_noise, reject_opts, reject_width
from .noise import NoiseModel


class StatevectorEngine:
    """Pure-state simulation via the bit-sliced kernel layer."""

    name = "statevector"
    description = (
        "pure-state simulation on the fused bit-sliced kernels "
        "(universal gates, mid-circuit measurement)"
    )
    capabilities = EngineCapabilities(max_qubits=24, noise=False, exact=False)
    aliases = ("sv", "pure")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Run ``circuit`` on a fresh :class:`StatevectorSimulator`.

        Args:
            circuit: the circuit to execute.
            shots: measurement repetitions.
            noise: must be ``None`` or all-zero (this backend is
                noiseless; the error names the noisy alternatives).
            seed: RNG seed for measurement sampling.
            **opts: ``fusion=False`` disables the gate-fusion pre-pass;
                any other option raises.

        Returns:
            The run's :class:`SimulationResult` (with final state).
        """
        reject_width(self, circuit)
        reject_noise(self, noise)
        reject_opts(self, opts, allowed=("fusion",))
        simulator = StatevectorSimulator(
            seed=seed, fusion=opts.get("fusion", True)
        )
        return simulator.run(circuit, shots=shots)


#: the registry's lazy-loading hook (mirrors ``emit``'s ``EMITTER``).
ENGINE = StatevectorEngine()
