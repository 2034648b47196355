"""Quantum algorithms built on the compilation flow."""

from .grover import (
    GroverResult,
    diffusion_circuit,
    grover_circuit,
    optimal_iterations,
    solve_grover,
)
from .simon import SimonInstance, SimonResult, simon_circuit, solve_simon
from .hidden_shift import (
    HiddenShiftCircuit,
    HiddenShiftResult,
    deterministic_success_sweep,
    hidden_shift_circuit,
    phase_oracle_circuit,
    solve_hidden_shift,
)

__all__ = [
    "GroverResult",
    "diffusion_circuit",
    "grover_circuit",
    "optimal_iterations",
    "solve_grover",
    "SimonInstance",
    "SimonResult",
    "simon_circuit",
    "solve_simon",
    "HiddenShiftCircuit",
    "HiddenShiftResult",
    "deterministic_success_sweep",
    "hidden_shift_circuit",
    "phase_oracle_circuit",
    "solve_hidden_shift",
]
