"""The :class:`Engine` protocol — what a simulation backend provides.

An engine executes a compiled :class:`~repro.core.circuit.QuantumCircuit`
on one simulation model (pure statevector, stabilizer tableau, exact
density matrix, Monte-Carlo trajectories, ...) and returns a
:class:`~repro.simulator.statevector.SimulationResult`.  Backends are
plain objects satisfying the protocol; the fixed table in
:mod:`repro.engines.registry` makes them addressable by name everywhere
an engine is accepted (``Target.engine``,
``CompilationResult.simulate``, ``python -m repro compile --engine``,
the RevKit shell's ``sim_*`` commands).

Each engine declares its :class:`EngineCapabilities` — the practical
qubit ceiling, whether it accepts a
:class:`~repro.engines.noise.NoiseModel`, whether its probabilities are
exact or sampled, and the gate classes it can execute — so callers can
pick a backend (and the registry can report why one refused a job)
without trying it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Optional, Protocol, Tuple, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit
    from ..simulator.statevector import SimulationResult
    from .noise import NoiseModel


class EngineError(ValueError):
    """Raised for unknown engines or jobs a backend cannot run."""


@dataclass(frozen=True)
class EngineCapabilities:
    """What a simulation backend can (and cannot) do.

    Attributes:
        max_qubits: practical circuit-width ceiling — the widest
            circuit the engine is expected to handle on workstation
            memory; ``None`` means effectively unbounded (stabilizer
            tableaus grow polynomially).  Every engine refuses wider
            circuits up front (:func:`reject_width`), before allocating
            any state.
        noise: whether :meth:`Engine.run` accepts a
            :class:`~repro.engines.noise.NoiseModel`.
        exact: whether outcome probabilities are computed exactly
            (read off a state or a density matrix) rather than
            estimated from sampled trajectories.
        gate_set: the gate classes the engine executes —
            ``"universal"`` (any gate with a unitary matrix) or
            ``"clifford"`` (stabilizer operations only).
    """

    max_qubits: Optional[int] = None
    noise: bool = False
    exact: bool = False
    gate_set: str = "universal"

    def describe(self) -> str:
        """Return a compact ``"<=n qubits, noise, exact"`` summary."""
        parts = [
            "any width" if self.max_qubits is None
            else f"<={self.max_qubits} qubits"
        ]
        parts.append("noise" if self.noise else "noiseless")
        parts.append("exact" if self.exact else "sampled")
        if self.gate_set != "universal":
            parts.append(self.gate_set)
        return ", ".join(parts)


@runtime_checkable
class Engine(Protocol):
    """What a simulation backend must provide.

    Attributes:
        name: canonical registry name (lowercase, e.g.
            ``"density_matrix"``).
        description: one-line summary shown by engine listings.
        capabilities: the backend's :class:`EngineCapabilities`.
        aliases: alternative names resolving to this backend (e.g.
            ``"dm"`` for ``density_matrix``).
    """

    name: str
    description: str
    capabilities: EngineCapabilities
    aliases: Tuple[str, ...]

    def run(
        self,
        circuit: "QuantumCircuit",
        *,
        shots: int = 1024,
        noise: Optional["NoiseModel"] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> "SimulationResult":
        """Execute ``circuit`` and return its measurement statistics.

        Args:
            circuit: the circuit to execute.
            shots: number of measurement repetitions to report.
            noise: optional noise model; engines whose capabilities
                declare ``noise=False`` must raise
                :class:`EngineError` for a non-trivial model instead
                of silently ignoring it.
            seed: RNG seed for reproducible sampling.
            **opts: backend-specific options.

        Returns:
            The run's :class:`~repro.simulator.statevector.SimulationResult`.
        """
        ...  # pragma: no cover


def reject_noise(engine: Engine, noise: Optional["NoiseModel"]) -> None:
    """Raise when a noiseless backend is handed a non-trivial model.

    Args:
        engine: the backend the model was passed to.
        noise: the model to vet (``None`` and all-zero models pass).

    Raises:
        EngineError: for a non-trivial model; the message names the
            noise-capable alternatives.
    """
    if noise is None or noise.is_noiseless:
        return
    raise EngineError(
        f"engine {engine.name!r} does not support noise models; use "
        "'density_matrix' (exact) or 'monte_carlo' (sampled) instead"
    )


def reject_opts(engine: Engine, opts: dict) -> None:
    """Raise for backend options: no engine takes any.

    Args:
        engine: the backend the options were passed to.
        opts: the keyword options to vet.

    Raises:
        EngineError: naming the first unknown option.
    """
    if opts:
        raise EngineError(
            f"engine {engine.name!r} got unknown option {next(iter(opts))!r}"
        )


def reject_shots(engine: Engine, shots: object) -> None:
    """Raise unless ``shots`` is a non-negative integer.

    Called first thing in every engine's ``run``, so a bad count fails
    with a typed error naming it instead of a NumPy error (or a result
    reporting ``shots == -1``).

    Args:
        engine: the backend the shot count was handed to.
        shots: the count to vet; ``bool`` is refused even though it is
            an ``int`` subclass.

    Raises:
        EngineError: naming the offending value.
    """
    if isinstance(shots, bool) or not isinstance(shots, Integral) or shots < 0:
        raise EngineError(
            f"engine {engine.name!r} needs a non-negative integer shot "
            f"count, got shots={shots!r}"
        )


def reject_width(engine: Engine, circuit: "QuantumCircuit") -> None:
    """Raise when ``circuit`` is wider than the engine's declared cap.

    Called at the top of every engine's ``run``, right after
    :func:`reject_shots`, so an oversized job fails with a typed error
    instead of a ``MemoryError`` from deep inside the state allocation.

    Args:
        engine: the backend the circuit was handed to.
        circuit: the circuit to vet.

    Raises:
        EngineError: naming the circuit width and the engine's cap.
    """
    cap = engine.capabilities.max_qubits
    if cap is not None and circuit.num_qubits > cap:
        raise EngineError(
            f"engine {engine.name!r} caps at {cap} qubits; the circuit "
            f"has {circuit.num_qubits}"
        )
