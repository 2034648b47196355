"""Per-input simulation of classical circuits: the reference oracle.

This is the package's original ``apply_classical_gates``, kept outside
the package as an independent oracle.  It pushes one basis state at a
time through an X/CNOT/Toffoli/SWAP circuit, so checking a circuit on
every input costs ``2^n`` Python passes over the gate list, which is
why the package replaced it with a translation into an MCT cascade
evaluated on all inputs at once.

``tests/verify/test_columns_agree.py`` checks that translation against
this function on random circuits with ``swap``/``cswap`` gates and
clean ancillae.
"""

from typing import Sequence

from repro.core.circuit import QuantumCircuit

#: Gate names acting as classical bit permutations.
CLASSICAL_GATES = frozenset(("x", "cx", "ccx", "mcx", "swap", "cswap"))

#: Gate names that are semantic no-ops.
NOOP_GATES = frozenset(("id", "barrier"))


def apply_classical_gates(circuit: QuantumCircuit, value: int) -> int:
    """Propagate a basis state through a classical (permutation) circuit.

    Args:
        circuit: an X/CX/Toffoli/SWAP-only circuit.
        value: input basis state as an integer (qubit 0 = LSB).

    Returns:
        The output basis state integer.

    Raises:
        ValueError: when a gate is not a classical permutation gate.
    """
    for gate in circuit.gates:
        name = gate.name
        if name in NOOP_GATES:
            continue
        if name not in CLASSICAL_GATES:
            raise ValueError(f"gate {name!r} is not a classical gate")
        if name == "swap" or name == "cswap":
            if gate.controls and not _bits_set(value, gate.controls):
                continue
            a, b = gate.targets
            bit_a = (value >> a) & 1
            bit_b = (value >> b) & 1
            if bit_a != bit_b:
                value ^= (1 << a) | (1 << b)
            continue
        # x / cx / ccx / mcx: flip the target when all controls are set
        if _bits_set(value, gate.controls):
            value ^= 1 << gate.targets[0]
    return value


def _bits_set(value: int, positions: Sequence[int]) -> bool:
    """Whether every bit of ``value`` at ``positions`` is one."""
    return all((value >> p) & 1 for p in positions)
