"""The ``monte_carlo`` builtin engine — sampled noisy trajectories.

A thin adapter over :class:`repro.simulator.noise.NoisyBackend`: every
shot is one statevector column of a batched sweep, hit by random Pauli
errors and readout flips at the :class:`NoiseModel`'s rates.  The exact
counterpart is the ``density_matrix`` engine, which evolves the
trajectory *average* of this sampler (same depolarizing convention), so
the two agree within sampling tolerance — asserted in
``tests/engines/test_differential_density.py``.

Unlike the raw backend (which defaults to the QE5 calibration), the
engine treats ``noise=None`` as noiseless, matching the other engines'
convention that noise is only applied when the caller asks for it.
"""

from __future__ import annotations

from typing import Optional

from ..core.circuit import QuantumCircuit
from ..simulator.statevector import SimulationResult
from .base import EngineCapabilities, EngineError, reject_opts, reject_width
from .noise import NoiseModel


class MonteCarloEngine:
    """Shot-sampled Pauli/readout noise on statevector trajectories."""

    name = "monte_carlo"
    description = (
        "per-shot statevector trajectories with sampled "
        "Pauli/readout noise (the Fig. 6 device substitute)"
    )
    capabilities = EngineCapabilities(max_qubits=20, noise=True, exact=False)
    aliases = ("mc", "noisy")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Run ``circuit`` on a fresh :class:`NoisyBackend`.

        Args:
            circuit: the circuit to execute.
            shots: trajectory count.
            noise: the :class:`NoiseModel` to sample from (``None``
                means noiseless — pass ``QE5_NOISE`` explicitly for
                the paper's device rates).  Damping rates are exact-
                tier channels and are rejected here.
            seed: RNG seed for the error/measurement sampling.
            **opts: none are accepted; any option raises.

        Returns:
            The run's :class:`SimulationResult` (counts only).
        """
        reject_width(self, circuit)
        reject_opts(self, opts)
        model = noise if noise is not None else NoiseModel.noiseless()
        if not model.trajectory_safe:
            raise EngineError(
                "engine 'monte_carlo' samples Pauli/readout errors only; "
                "amplitude/phase damping needs the exact "
                "'density_matrix' engine"
            )
        from ..simulator.noise import NoisyBackend

        return NoisyBackend(model, seed=seed).run(circuit, shots=shots)


#: the registry's lazy-loading hook (mirrors ``emit``'s ``EMITTER``).
ENGINE = MonteCarloEngine()
