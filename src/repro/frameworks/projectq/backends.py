"""Engine backends: simulator, noisy chip model, circuit collector.

The paper's ProjectQ flow targets "the IBM Quantum Experience or a
local simulator"; both run on the engine registry (:mod:`repro.engines`):
the simulator is the ``statevector`` engine and the chip is the
``monte_carlo`` engine under the QE5 calibration (Sec. VI).
"""

from __future__ import annotations

from typing import Dict, Optional

from ... import engines
from ...core.circuit import QuantumCircuit
from ...engines.noise import QE5_NOISE, NoiseModel
from ...simulator.statevector import Statevector


class Backend:
    """Interface: consume a circuit, return one outcome (or None)."""

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        raise NotImplementedError


class Simulator(Backend):
    """Noiseless statevector backend (the 'local simulator').

    Runs one shot on the ``statevector`` engine.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self.final_state: Optional[Statevector] = None
        self.last_counts: Dict[int, int] = {}

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        result = engines.run(
            "statevector", circuit, shots=1, seed=self._seed
        )
        self.final_state = result.final_state
        self.last_counts = result.counts
        if result.counts:
            return next(iter(result.counts))
        return None

    def probabilities(self) -> Dict[int, float]:
        """Basis-state probabilities of the last flushed state."""
        if self.final_state is None:
            return {}
        probs = self.final_state.probabilities()
        return {
            basis: float(p) for basis, p in enumerate(probs) if p > 1e-12
        }


class IBMBackend(Backend):
    """Noisy shot-based backend standing in for the IBM QE chip.

    Runs ``shots`` executions on the ``monte_carlo`` engine under the
    calibrated noise model (default :data:`~repro.engines.QE5_NOISE`)
    and reports the modal outcome (what one reads off the chip's
    histogram); the full histogram is kept in ``last_counts``.
    """

    def __init__(
        self,
        shots: int = 1024,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
    ):
        self.shots = shots
        self._noise = QE5_NOISE if noise_model is None else noise_model
        self._seed = seed
        self.last_counts: Dict[int, int] = {}

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        result = engines.run(
            "monte_carlo", circuit, shots=self.shots,
            noise=self._noise, seed=self._seed,
        )
        self.last_counts = result.counts
        if not result.counts:
            return None
        return max(result.counts, key=lambda k: result.counts[k])

    def histogram(self) -> Dict[int, float]:
        total = sum(self.last_counts.values()) or 1
        return {k: v / total for k, v in sorted(self.last_counts.items())}


class CircuitCollector(Backend):
    """Backend that just hands back the built circuit (for exporters)."""

    def __init__(self) -> None:
        self.circuit: Optional[QuantumCircuit] = None

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        self.circuit = circuit.copy()
        return None
