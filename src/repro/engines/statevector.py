"""The ``statevector`` builtin engine — the default backend.

Owns the shot loop over :class:`~repro.simulator.statevector.Statevector`:

* a measurement-free circuit is evolved once and returned as the
  final state;
* with terminal measurements the unitary prefix is evolved once and
  all ``shots`` outcomes come from one vectorized draw plus a
  bit-gather histogram;
* with mid-circuit measurement or reset the deterministic unitary
  prefix before the first non-unitary gate is evolved once and shared,
  and only the suffix is re-simulated per shot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.circuit import QuantumCircuit
from ..simulator.statevector import (
    SimulationError,
    SimulationResult,
    Statevector,
    _bit_gather_counts,
    _evolve_gates,
    _measured_width,
    _measurements_terminal,
)
from .base import (
    EngineCapabilities,
    reject_noise,
    reject_opts,
    reject_shots,
    reject_width,
)
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
        """Evolve ``circuit`` from |0..0> and sample ``shots`` outcomes.

        Args:
            circuit: the circuit to execute.
            shots: measurement repetitions.
            noise: must be ``None`` or all-zero (this backend is
                noiseless; the error names the noisy alternatives).
            seed: RNG seed for measurement sampling.
            **opts: none are supported; any option raises.

        Returns:
            The run's :class:`SimulationResult` with the final state
            (after mid-circuit measurement: the last shot's state).
        """
        reject_shots(self, shots)
        reject_width(self, circuit)
        reject_noise(self, noise)
        reject_opts(self, opts)
        rng = np.random.default_rng(seed)
        state = Statevector(circuit.num_qubits)
        if not circuit.has_measurements():
            state.evolve(circuit)
            return SimulationResult({}, state, shots)

        num_clbits = _measured_width(circuit)
        if _measurements_terminal(circuit):
            measure_map: List[Tuple[int, int]] = []
            prefix = []
            for gate in circuit.gates:
                if gate.is_measurement:
                    measure_map.append((gate.cbits[0], gate.targets[0]))
                elif gate.name == "reset":
                    raise SimulationError("reset after measurement unsupported")
                else:
                    prefix.append(gate)
            _evolve_gates(state, prefix)
            probs = state.probabilities()
            outcomes = rng.choice(probs.size, size=shots, p=probs / probs.sum())
            counts = _bit_gather_counts(outcomes, measure_map)
            return SimulationResult(counts, state, shots, num_clbits)

        split = next(
            i for i, gate in enumerate(circuit.gates)
            if gate.is_measurement or gate.name == "reset"
        )
        _evolve_gates(state, circuit.gates[:split])
        suffix = circuit.gates[split:]
        base = state
        counts: Dict[int, int] = {}
        for _ in range(shots):
            state = base.copy()
            creg = 0
            for gate in suffix:
                if gate.is_measurement:
                    bit = state.measure_qubit(gate.targets[0], rng)
                    clbit = gate.cbits[0]
                    creg = (creg & ~(1 << clbit)) | (bit << clbit)
                elif gate.name == "reset":
                    state.reset_qubit(gate.targets[0], rng)
                else:
                    state.apply_gate(gate)
            counts[creg] = counts.get(creg, 0) + 1
        return SimulationResult(
            counts, state if shots else None, shots, num_clbits
        )


#: The backend instance listed in :mod:`repro.engines.registry`.
ENGINE = StatevectorEngine()
