"""The engine registry: name → backend resolution for every simulator.

The same :class:`~repro.registry.Registry` class as
:mod:`repro.emit.registry`, configured for engines: :func:`register`,
:func:`unregister`, :func:`get`, :func:`engines` and
:func:`describe_engines` are bound methods of one instance.  Built-in
engines load lazily on first registry use — importing
:mod:`repro.engines` alone pays for none of them.  Resolution is
case-insensitive and alias-aware (``"sv"`` resolves to
``"statevector"``, ``"dm"`` to ``"density_matrix"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..registry import Registry
from .base import Engine, EngineError
from .noise import NoiseModel, as_noise_model

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit
    from ..simulator.statevector import SimulationResult

#: The engine registry; built-in engine modules are listed in canonical
#: order and each exposes its backend instance as ``ENGINE``.
_REGISTRY = Registry(
    kind="engine",
    plural="engines",
    protocol="Engine",
    error=EngineError,
    required=("name", "description", "capabilities", "run"),
    package=__package__,
    modules=("statevector", "stabilizer", "density_matrix", "monte_carlo"),
    attribute="ENGINE",
)

register = _REGISTRY.register
unregister = _REGISTRY.unregister
get = _REGISTRY.get
engines = _REGISTRY.names
describe_engines = _REGISTRY.describe


def run(
    engine: Union[str, Engine],
    circuit: "QuantumCircuit",
    *,
    shots: int = 1024,
    noise: Union[NoiseModel, str, None] = None,
    seed: Optional[int] = None,
    **opts,
) -> "SimulationResult":
    """Execute a circuit on a named engine (registry dispatch).

    Args:
        engine: registered engine name or alias, or an engine instance.
        circuit: the circuit to execute.
        shots: measurement repetitions to report.
        noise: a :class:`NoiseModel`, a preset name (``"qe5"``), a
            ``"p1=0.001,p2=0.03"`` rate list, or ``None``.
        seed: RNG seed for reproducible sampling.
        **opts: backend-specific options.

    Returns:
        The run's :class:`~repro.simulator.statevector.SimulationResult`.

    Raises:
        EngineError: for unknown engine names, unknown noise specs, or
            jobs the backend cannot run.
    """
    backend = get(engine)
    return backend.run(
        circuit, shots=shots, noise=as_noise_model(noise), seed=seed, **opts
    )
