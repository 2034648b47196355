"""Reversible integer arithmetic — the Shor-workload substrate.

Sec. III of the paper: "Factoring needs constant modular arithmetic
[1], computing elliptic curve discrete logarithms ... requires generic
modular arithmetic [4]"; reference [3] builds factoring from
Toffoli-based modular multiplication.  This module provides those
combinational blocks as MCT networks, all verified by exhaustive
permutation simulation in the tests:

* :func:`cuccaro_adder` — the ripple-carry adder of Cuccaro et al.
  (CNOT/Toffoli only, one ancilla, in-place ``b <- a + b``);
* :func:`constant_adder` — ``x <- x + c (mod 2^n)`` built from MCTs
  (the carry-ripple construction of Häner et al. [3], simplified);
* :func:`controlled_increment` — controlled ``+1`` used by both;
* :func:`modular_constant_adder` — ``x <- x + c (mod N)`` via the
  add / compare / conditional-subtract ladder.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..synthesis.reversible import ReversibleCircuit


def _check_disjoint(*groups: Sequence[int]) -> None:
    flat = [line for group in groups for line in group]
    if len(set(flat)) != len(flat):
        raise ValueError("register lines must be disjoint")


def controlled_increment(
    num_lines: int,
    target: Sequence[int],
    controls: Sequence[int] = (),
) -> ReversibleCircuit:
    """``target <- target + 1 (mod 2^len)`` when all controls are 1.

    Classic MCT ripple: the highest bit flips iff all lower bits (and
    the controls) are 1, and so on downwards.
    """
    _check_disjoint(target, controls)
    circuit = ReversibleCircuit(num_lines, name="increment")
    bits = list(target)
    for top in range(len(bits) - 1, -1, -1):
        gate_controls = tuple(controls) + tuple(bits[:top])
        circuit.add_gate(bits[top], gate_controls)
    return circuit


def cuccaro_adder(
    num_bits: int,
    a_lines: Optional[Sequence[int]] = None,
    b_lines: Optional[Sequence[int]] = None,
    ancilla: Optional[int] = None,
    carry_out: Optional[int] = None,
) -> ReversibleCircuit:
    """In-place ripple-carry adder: ``|a>|b> -> |a>|a + b mod 2^n>``.

    Uses the Cuccaro–Draper–Kutin–Moulton MAJ/UMA construction with a
    single borrowed ancilla (must start |0>); optionally produces the
    carry-out on an extra line.

    Default layout: a on lines 0..n-1, b on n..2n-1, ancilla 2n,
    carry_out 2n+1 (if requested).
    """
    n = num_bits
    if a_lines is None:
        a_lines = list(range(n))
    if b_lines is None:
        b_lines = list(range(n, 2 * n))
    if ancilla is None:
        ancilla = 2 * n
    lines = [*a_lines, *b_lines, ancilla]
    if carry_out is not None:
        lines.append(carry_out)
    _check_disjoint(a_lines, b_lines, [ancilla], [] if carry_out is None else [carry_out])
    num_lines = max(lines) + 1
    circuit = ReversibleCircuit(num_lines, name="cuccaro")

    def maj(c: int, b: int, a: int) -> None:
        circuit.cnot(a, b)
        circuit.cnot(a, c)
        circuit.toffoli(c, b, a)

    def uma(c: int, b: int, a: int) -> None:
        circuit.toffoli(c, b, a)
        circuit.cnot(a, c)
        circuit.cnot(c, b)

    carry = ancilla
    chain = [(carry, b_lines[0], a_lines[0])]
    for i in range(1, n):
        chain.append((a_lines[i - 1], b_lines[i], a_lines[i]))
    for c, b, a in chain:
        maj(c, b, a)
    if carry_out is not None:
        circuit.cnot(a_lines[n - 1], carry_out)
    for c, b, a in reversed(chain):
        uma(c, b, a)
    return circuit


def constant_adder(
    num_bits: int,
    constant: int,
    controls: Sequence[int] = (),
    num_lines: Optional[int] = None,
) -> ReversibleCircuit:
    """``x <- x + c (mod 2^n)`` on lines ``0..n-1``, optionally controlled.

    Built as a cascade of controlled increments on the suffix registers
    (add bit i of c = +1 on bits i..n-1): O(n^2) MCT gates, no
    ancillae — the simple variant of the Häner et al. construction.
    """
    n = num_bits
    target = list(range(n))
    if num_lines is None:
        num_lines = max([*target, *controls], default=0) + 1
    _check_disjoint(target, controls)
    circuit = ReversibleCircuit(num_lines, name=f"add{constant}")
    constant %= 1 << n
    for bit in range(n - 1, -1, -1):
        if (constant >> bit) & 1:
            suffix = list(target[bit:])
            circuit.compose(
                controlled_increment(num_lines, suffix, controls)
            )
    return circuit


def modular_constant_adder(
    num_bits: int,
    constant: int,
    modulus: int,
) -> ReversibleCircuit:
    """``x <- x + c (mod N)`` for ``x < N`` (garbage-free).

    Standard ladder on ``n + 2`` lines (x on 0..n-1, compare flag n,
    scratch n+1):

      1. flag <- [x < N - c]           (constant comparison via MCTs)
      2. if flag: x += c  else: x += c - N  (two controlled constant adds)
      3. flag <- flag ^ [x >= c]       (uncompute the flag: after the
         addition, x >= c exactly when no wrap happened)

    Inputs with ``x >= N`` are don't-cares (mapped reversibly but
    meaninglessly), as usual for modular blocks.
    """
    n = num_bits
    if not 0 < modulus <= (1 << n):
        raise ValueError("modulus out of range")
    constant %= modulus
    flag = n
    num_lines = n + 1
    circuit = ReversibleCircuit(num_lines, name=f"add{constant}mod{modulus}")
    threshold = modulus - constant
    # step 1: flag <- [x < threshold] by explicit minterm-free compare:
    # flag flips for every x-prefix pattern proving x < threshold
    circuit.compose(
        _less_than_constant(n, threshold, flag, num_lines)
    )
    # step 2a: controlled add c (when flag = 1)
    circuit.compose(
        constant_adder(n, constant, controls=(flag,), num_lines=num_lines)
    )
    # step 2b: controlled add c - N mod 2^n (when flag = 0)
    circuit.x(flag)
    wrap_amount = (constant - modulus) % (1 << n)
    circuit.compose(
        constant_adder(n, wrap_amount, controls=(flag,), num_lines=num_lines)
    )
    circuit.x(flag)
    # step 3: uncompute flag: after the add, flag == [x' >= c] for
    # valid inputs; flip flag for every x' < c pattern, then invert
    circuit.compose(_less_than_constant(n, constant, flag, num_lines))
    circuit.x(flag)
    return circuit


def _less_than_constant(
    num_bits: int, constant: int, flag: int, num_lines: int
) -> ReversibleCircuit:
    """Flip ``flag`` iff the x register value is < constant.

    Prefix decomposition: x < c iff for some position i with c_i = 1,
    x agrees with c above i and x_i = 0.  Each such prefix pattern is
    one MCT with mixed polarities.
    """
    circuit = ReversibleCircuit(num_lines, name=f"lt{constant}")
    if constant >= (1 << num_bits):
        circuit.x(flag)
        return circuit
    for i in range(num_bits - 1, -1, -1):
        if not (constant >> i) & 1:
            continue
        controls = []
        polarity = []
        for j in range(num_bits - 1, i, -1):
            controls.append(j)
            polarity.append(bool((constant >> j) & 1))
        controls.append(i)
        polarity.append(False)
        circuit.add_gate(flag, tuple(controls), tuple(polarity))
    return circuit
