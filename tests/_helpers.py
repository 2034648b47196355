"""Shared non-fixture test helpers (importable as a plain module).

Kept outside ``conftest.py`` so test modules can import it absolutely:
pytest inserts ``tests/`` into ``sys.path`` (rootdir conftest, prepend
import mode), and a uniquely-named module avoids the clash between
``tests/conftest.py`` and ``benchmarks/conftest.py`` when the whole
repository is collected in one run.
"""

import random

import numpy as np

import repro
from repro.boolean.cube import Cube
from repro.boolean.truth_table import TruthTable
from repro.core.circuit import QuantumCircuit
from repro.engines.density_matrix import DensityMatrix


def random_clifford_t_circuit(num_qubits, num_gates, seed=0):
    """A random circuit over the Clifford+T basis (no measurement)."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits)
    one_qubit = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.35:
            a, b = rng.sample(range(num_qubits), 2)
            if rng.random() < 0.8:
                circuit.cx(a, b)
            else:
                circuit.cz(a, b)
        else:
            getattr(circuit, rng.choice(one_qubit))(
                rng.randrange(num_qubits)
            )
    return circuit


def cube_from_literals(literals):
    """The cube of ``(variable, positive?)`` pairs."""
    mask = polarity = 0
    for var, positive in literals:
        mask |= 1 << var
        polarity |= int(positive) << var
    return Cube(mask, polarity)


def assert_states_equal(state_a, state_b, atol=1e-9):
    assert state_a.num_qubits == state_b.num_qubits
    fidelity = abs(np.vdot(state_a.data, state_b.data)) ** 2
    assert fidelity > 1 - atol, f"states differ (fidelity {fidelity})"


def density_from_statevector(state):
    """The pure-state density matrix ``|psi><psi|`` of a ``Statevector``."""
    return DensityMatrix(
        state.num_qubits, np.outer(state.data, state.data.conj())
    )


def purity(rho):
    """``Tr(rho^2)``: 1 for pure states, ``1/2^n`` for maximal mixing."""
    return float(np.sum(np.abs(rho.data) ** 2))


def verify_embedding(g, function, in_place):
    """Check the embedding equations of ``g`` against ``f`` exhaustively.

    ``function`` is a ``TruthTable`` or a ``MultiTruthTable``.  In place
    (Eq. 2), ``g(x, 0...0)`` must carry ``f(x)`` on its low lines; out
    of place (Eq. 3), ``g(x, y)`` must be ``(x, y ^ f(x))``.
    """
    if isinstance(function, TruthTable):
        tables = [function]
    else:
        tables = list(function.outputs)
    n = tables[0].num_vars
    m = len(tables)

    def evaluate(x):
        fx = 0
        for j, table in enumerate(tables):
            fx |= table(x) << j
        return fx

    if in_place:
        return all(g(x) & ((1 << m) - 1) == evaluate(x) for x in range(1 << n))
    for value in range(1 << (n + m)):
        x = value & ((1 << n) - 1)
        y = value >> n
        if g(value) != x | ((y ^ evaluate(x)) << n):
            return False
    return True


def toffoli_gates(n, path):
    """Compile ``hwb`` n for ``toffoli`` over the disk tier at ``path``.

    The gate list is what a worker process sends back; a module-level
    function is what a process pool can pickle.
    """
    result = repro.compile({"hwb": n}, target="toffoli", cache=path)
    return list(result.reversible.gates)
