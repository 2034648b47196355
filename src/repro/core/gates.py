"""Quantum gate definitions.

A :class:`Gate` is an immutable description of a quantum operation: a
name, the qubits it acts on (split into *controls* and *targets*), and
optional real parameters (rotation angles).  The unitary matrix of each
gate kind is provided by :func:`gate_matrix`, which returns the matrix
acting on the gate's own qubits only (controls included).

The gate vocabulary covers the Clifford+T set used throughout the paper
(H, X, Y, Z, S, S', T, T', CNOT, CZ, SWAP), arbitrary-angle rotations
(RX, RY, RZ, PHASE, U1/U2/U3 aliases used by early IBM QE), and
multiple-controlled X / Z gates which appear before Clifford+T mapping.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

#: Gates with no parameters, keyed by canonical name.
FIXED_GATES = (
    "id",
    "h",
    "x",
    "y",
    "z",
    "s",
    "sdg",
    "t",
    "tdg",
    "sx",
    "sxdg",
    "cx",
    "cy",
    "cz",
    "ch",
    "swap",
    "ccx",
    "ccz",
    "cswap",
    "mcx",
    "mcz",
)

#: Gates carrying one angle parameter.
ROTATION_GATES = ("rx", "ry", "rz", "p", "crz", "cp", "mcp")

#: Non-unitary circuit elements.
NON_UNITARY = ("measure", "reset", "barrier")

#: Names whose adjoint is themselves.
SELF_INVERSE = frozenset(
    {
        "id",
        "h",
        "x",
        "y",
        "z",
        "cx",
        "cy",
        "cz",
        "ch",
        "swap",
        "ccx",
        "ccz",
        "cswap",
        "mcx",
        "mcz",
        "barrier",
    }
)

#: name -> adjoint name for the non-self-inverse fixed gates.
ADJOINT_NAME = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
}

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_MATRICES: Dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}

#: single-qubit base of each controlled gate.
CONTROLLED_BASE = {
    "cx": "x",
    "cy": "y",
    "cz": "z",
    "ch": "h",
    "ccx": "x",
    "ccz": "z",
    "mcx": "x",
    "mcz": "z",
    "crz": "rz",
    "cp": "p",
    "mcp": "p",
    "cswap": "swap",
}


def rotation_matrix(name: str, angle: float) -> np.ndarray:
    """Return the 2x2 (or 4x4 for swap) matrix of a parametric base gate."""
    half = angle / 2.0
    if name == "rx":
        return np.array(
            [
                [math.cos(half), -1j * math.sin(half)],
                [-1j * math.sin(half), math.cos(half)],
            ],
            dtype=complex,
        )
    if name == "ry":
        return np.array(
            [
                [math.cos(half), -math.sin(half)],
                [math.sin(half), math.cos(half)],
            ],
            dtype=complex,
        )
    if name == "rz":
        return np.array(
            [[cmath.exp(-1j * half), 0], [0, cmath.exp(1j * half)]],
            dtype=complex,
        )
    if name == "p":
        return np.array([[1, 0], [0, cmath.exp(1j * angle)]], dtype=complex)
    raise ValueError(f"unknown rotation gate {name!r}")


def _controlled(matrix: np.ndarray, num_controls: int) -> np.ndarray:
    """Embed ``matrix`` as the bottom-right block of a controlled gate.

    Convention: control qubits are the *most significant* bits of the
    gate's local index space, so the base matrix applies only when all
    controls are 1.
    """
    base_dim = matrix.shape[0]
    dim = base_dim * (2 ** num_controls)
    out = np.eye(dim, dtype=complex)
    out[dim - base_dim:, dim - base_dim:] = matrix
    return out


# writes a frozen Gate's slots (in __post_init__, and when restoring a
# pickle, which skips __init__)
_set_field = object.__setattr__

_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True, slots=True)
class Gate:
    """One operation in a quantum circuit.

    Attributes:
        name: canonical lowercase gate name (see module constants).
        targets: qubit indices the base operation acts on.
        controls: qubit indices conditioning the operation (all must
            be |1> for the base operation to apply).
        params: real parameters, e.g. a rotation angle.
        cbits: classical bit indices (measurement results).
        qubits: all qubits touched by the gate, controls first, then
            targets.  Derived once at construction; it takes no part in
            ``repr``, equality, hashing or pickles.
    """

    name: str
    targets: Tuple[int, ...]
    controls: Tuple[int, ...] = ()
    params: Tuple[float, ...] = ()
    cbits: Tuple[int, ...] = field(default=())
    qubits: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        qubits = self.controls + self.targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(
                f"duplicate qubit in gate {self.name}: "
                f"{self.targets + self.controls}"
            )
        _set_field(self, "qubits", qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_measurement(self) -> bool:
        return self.name == "measure"

    @property
    def is_unitary(self) -> bool:
        return self.name not in NON_UNITARY

    @property
    def base_name(self) -> str:
        """Name of the underlying uncontrolled operation."""
        return CONTROLLED_BASE.get(self.name, self.name)

    def dagger(self) -> "Gate":
        """Return the adjoint gate."""
        if self.name in NON_UNITARY:
            raise ValueError(f"cannot invert non-unitary gate {self.name!r}")
        if self.name in SELF_INVERSE:
            return self
        if self.name in ADJOINT_NAME:
            return Gate(
                ADJOINT_NAME[self.name],
                self.targets,
                self.controls,
                self.params,
            )
        if self.base_name in ("rx", "ry", "rz", "p"):
            return Gate(
                self.name,
                self.targets,
                self.controls,
                tuple(-p for p in self.params),
            )
        raise ValueError(f"do not know how to invert gate {self.name!r}")

    def remap(self, mapping: Dict[int, int]) -> "Gate":
        """Return the same gate acting on relabelled qubits."""
        return Gate(
            self.name,
            tuple(mapping[q] for q in self.targets),
            tuple(mapping[q] for q in self.controls),
            self.params,
            tuple(self.cbits),
        )

    def matrix(self) -> np.ndarray:
        """Unitary matrix over this gate's own qubits.

        Qubit ordering within the matrix: ``self.qubits`` from most
        significant to least significant bit (controls are the most
        significant bits).
        """
        return gate_matrix(self)

    def __str__(self) -> str:
        parts = [self.name]
        if self.params:
            parts.append("(" + ", ".join(f"{p:.6g}" for p in self.params) + ")")
        if self.controls:
            parts.append(" c" + str(list(self.controls)))
        parts.append(" t" + str(list(self.targets)))
        return "".join(parts)


def _gate_getstate(gate: Gate) -> Dict[str, Any]:
    # the same state an unslotted Gate pickled, so pickles of a gate
    # are byte-identical across the two layouts
    return {
        "name": gate.name,
        "targets": gate.targets,
        "controls": gate.controls,
        "params": gate.params,
        "cbits": gate.cbits,
    }


def _gate_setstate(gate: Gate, state: Dict[str, Any]) -> None:
    for key, value in state.items():
        _set_field(gate, key, value)
    _set_field(gate, "qubits", gate.controls + gate.targets)


# Attached after the decorator: early Python 3.11 releases (before the
# CPython gh-104035 fix) let ``dataclass(frozen=True, slots=True)``
# replace pickle hooks defined in the class body with its own, which
# pickle ``qubits`` too and restore state by field position.
Gate.__getstate__ = _gate_getstate
Gate.__setstate__ = _gate_setstate


@lru_cache(maxsize=4096)
def _cached_base_matrix(base: str, params: Tuple[float, ...]) -> np.ndarray:
    if base == "swap":
        matrix = _SWAP_MATRIX.copy()
    elif base in _FIXED_MATRICES:
        matrix = _FIXED_MATRICES[base].copy()
    elif base in ("rx", "ry", "rz", "p"):
        matrix = rotation_matrix(base, params[0])
    else:
        raise ValueError(f"unknown gate {base!r}")
    matrix.flags.writeable = False  # shared across callers
    return matrix


@lru_cache(maxsize=4096)
def _cached_gate_matrix(
    base: str, params: Tuple[float, ...], num_controls: int
) -> np.ndarray:
    matrix = _cached_base_matrix(base, params)
    if num_controls:
        matrix = _controlled(matrix, num_controls)
        matrix.flags.writeable = False
    return matrix


def base_matrix(base: str, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Cached (read-only) matrix of an uncontrolled base gate."""
    return _cached_base_matrix(base, tuple(params))


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of ``gate`` on its local qubit space.

    Matrices of fixed and controlled gates are built once and cached
    (keyed by base name, parameters, and control count); the returned
    arrays are read-only — copy before mutating.
    """
    if not gate.is_unitary:
        raise ValueError(f"gate {gate.name!r} has no unitary matrix")
    try:
        return _cached_gate_matrix(gate.base_name, gate.params, len(gate.controls))
    except ValueError:
        raise ValueError(f"unknown gate {gate.name!r}") from None


def is_clifford_t_name(name: str) -> bool:
    """True if the gate name belongs to the Clifford+T basis used after
    mapping (single-qubit Clifford+T plus CNOT/CZ/SWAP)."""
    return name in {
        "id",
        "h",
        "x",
        "y",
        "z",
        "s",
        "sdg",
        "t",
        "tdg",
        "sx",
        "sxdg",
        "cx",
        "cz",
        "swap",
    }


def is_clifford_name(name: str, params: Tuple[float, ...] = ()) -> bool:
    """True if the gate is a Clifford operation (stabilizer-simulable)."""
    if name in {
        "id",
        "h",
        "x",
        "y",
        "z",
        "s",
        "sdg",
        "sx",
        "sxdg",
        "cx",
        "cy",
        "cz",
        "swap",
    }:
        return True
    if name in ("rz", "p") and params:
        # multiples of pi/2 are Clifford
        frac = params[0] / (math.pi / 2)
        return abs(frac - round(frac)) < 1e-12
    return False
