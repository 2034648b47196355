"""The engine table: name → backend resolution for every simulator.

The four built-in engines form one fixed
:class:`~repro.registry.BackendTable` (the same class as
:mod:`repro.emit.registry`); :func:`get`, :func:`engines` and
:func:`describe_engines` are its bound methods.  Resolution is
case-insensitive and alias-aware (``"sv"`` resolves to
``"statevector"``, ``"dm"`` to ``"density_matrix"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..registry import BackendTable
from . import density_matrix, monte_carlo, stabilizer, statevector
from .base import Engine, EngineError
from .noise import NoiseModel, as_noise_model

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit
    from ..simulator.statevector import SimulationResult

_TABLE = BackendTable(
    kind="engine",
    plural="engines",
    protocol="Engine",
    error=EngineError,
    entry_point="run",
    backends=(
        statevector.ENGINE,
        stabilizer.ENGINE,
        density_matrix.ENGINE,
        monte_carlo.ENGINE,
    ),
)

get = _TABLE.get
engines = _TABLE.names
describe_engines = _TABLE.describe


def run(
    engine: Union[str, Engine],
    circuit: "QuantumCircuit",
    *,
    shots: int = 1024,
    noise: Union[NoiseModel, str, None] = None,
    seed: Optional[int] = None,
) -> "SimulationResult":
    """Execute a circuit on a named engine.

    Args:
        engine: engine name or alias, or an engine instance.
        circuit: the circuit to execute.
        shots: measurement repetitions to report.
        noise: a :class:`NoiseModel`, a preset name (``"qe5"``), a
            ``"p1=0.001,p2=0.03"`` rate list, or ``None``.
        seed: RNG seed for reproducible sampling.

    Returns:
        The run's :class:`~repro.simulator.statevector.SimulationResult`.

    Raises:
        EngineError: for unknown engine names, unknown noise specs, or
            jobs the backend cannot run.
    """
    backend = get(engine)
    return backend.run(
        circuit, shots=shots, noise=as_noise_model(noise), seed=seed
    )
