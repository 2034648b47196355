"""Vectorized in-place gate kernels for the statevector engine.

The seed simulator applied every gate with a tensordot → transpose →
ascontiguousarray pipeline, costing three full-state copies per gate.
This module replaces that hot path with in-place bit-sliced kernels
operating on views of the state reshaped as a ``(2,) * n`` tensor
(qubit ``q`` lives on axis ``n - 1 - q``):

* single-qubit gates update two half-state views with one 2x2 linear
  combination (antidiagonal and diagonal matrices get cheaper paths);
* controlled gates index the control axes at 1 and apply the base
  kernel on the surviving subview, so an ``mcx`` with ``c`` controls
  touches only ``2^(n-c)`` amplitudes and never materializes
  ``np.arange(2^n)``;
* diagonal gates (Z/S/T/RZ/P and their controlled forms) are pure
  elementwise multiplies on the relevant slices;
* arbitrary matrices fall back to :func:`apply_matrix`, a generic
  in-place ``2^k``-slice kernel (still no transpose / copy);
* fused blocks run as one axis-grouped BLAS matmul.

This module is the only place array sweeps live: the public entry
points (:func:`apply_gate`, :func:`apply_matrix`, :func:`apply_pauli`,
:func:`apply_ops`) own the gate semantics — named-gate dispatch,
control handling, gate fusion — and the private ``_apply_*`` sweeps
below do the NumPy slice math on the *flat* state of shape
``(2**n, *batch)``.

All kernels accept batched states: an array of shape ``(2^n, b...)``
is treated as ``b`` independent states, which lets
:mod:`repro.core.unitary` evolve a full ``2^n x 2^n`` unitary column
batch through the same code (and noise trajectories vectorize over the
same batch axis, see :mod:`repro.engines.monte_carlo`).

Dtype contract: states must be complex arrays.  The entry points
raise ``TypeError`` for real/integer states instead of silently
truncating the imaginary parts to zero (the historical behaviour was
an all-zero state plus a ``ComplexWarning``); state constructors
upcast real/integer/boolean input on ingest (:func:`_prepare`) and
refuse non-numeric data.

:func:`compile_circuit` is the gate-fusion pre-pass used by
``Statevector.evolve``.  It runs three stages:

1. wire-adjacent runs of single-qubit gates fold into one 2x2 matrix
   (products collapsing to the identity are dropped);
2. consecutive diagonal gates merge into a single local diagonal
   (they all commute, so a run becomes one elementwise multiply);
3. remaining ops are greedily grouped into multi-qubit *blocks* of at
   most ``BLOCK_QUBITS`` qubits — commuting ops may be pulled
   over unrelated gates, qiskit-aer/qulacs style — and each block is
   executed as one BLAS matmul over the state reshaped around the
   block's axes.  A cost heuristic keeps blocks only where the matmul
   beats the individual kernels, so circuits dominated by cheap
   permutation/diagonal gates (reversible logic, phase polynomials)
   stay on the bit-sliced path.

Long Clifford+T circuits therefore execute far fewer full-state
sweeps than they have gates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import cmath
import math

import numpy as np

from ..core.gates import Gate, base_matrix

# Freeing a 1 MB block raises glibc's dynamic mmap/trim thresholds, so
# per-gate temporaries of 7-8 wire dense unitaries reuse heap pages, not
# fresh ones (on some heap layouts: 2x fig10-verified job time).
np.empty(1 << 17)

#: base names whose matrix is diagonal in the computational basis.
DIAGONAL_BASES = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p"})

#: base names with a dedicated 2x2 kernel (everything single-qubit).
SINGLE_QUBIT_BASES = frozenset(
    {
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
        "rx",
        "ry",
        "rz",
        "p",
    }
)

#: diagonal fusion stops growing a merged diagonal beyond this many
#: qubits (the merged diagonal stores 2^m entries).
DIAG_FUSION_MAX_QUBITS = 12

#: upper bound on the qubit count of a fused matmul block.
BLOCK_QUBITS = 5

#: how far block fusion scans ahead for absorbable commuting ops.
BLOCK_LOOKAHEAD = 256

_IDENTITY_ATOL = 1e-14


def _require_complex(state: np.ndarray, where: str) -> None:
    """Refuse non-complex states at the public kernel entry points.

    The kernels update ``state`` in place, so a float64/int64 input
    cannot be upcast here — historically such states were silently
    corrupted (a Y gate on a float64 state produced all zeros with
    only a ``ComplexWarning``).  Callers who hold real data should
    upcast on ingest, e.g. ``np.asarray(data, dtype=complex)``.
    """
    dtype = getattr(state, "dtype", None)
    if dtype is None or not np.issubdtype(dtype, np.complexfloating):
        raise TypeError(
            f"{where} requires a complex state array (in-place kernels "
            f"cannot widen dtype {dtype}); upcast on ingest with "
            "np.asarray(data, dtype=complex)"
        )


def _prepare(data) -> np.ndarray:
    """Copy ``data`` into a complex state array (the dtype contract).

    Real floating, integer and boolean input upcasts to
    ``complex128``; complex input is copied.

    Raises:
        TypeError: for data that cannot upcast to complex (strings,
            objects, ...).
    """
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.number) and arr.dtype != bool:
        raise TypeError(
            f"cannot build a complex state from dtype {arr.dtype}; "
            "states must be numeric (upcastable to complex128)"
        )
    return np.array(arr, dtype=complex, copy=True)


def infer_num_qubits(state: np.ndarray) -> int:
    """Number of qubits of a flat or batched state array."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError("state length is not a power of two")
    return n


@lru_cache(maxsize=1024)
def _diag_entries(base: str, params: Tuple[float, ...]) -> Tuple[complex, complex]:
    """(d0, d1) diagonal of an uncontrolled diagonal base gate."""
    if base == "z":
        return (1.0, -1.0)
    if base == "s":
        return (1.0, 1j)
    if base == "sdg":
        return (1.0, -1j)
    if base == "t":
        return (1.0, cmath.exp(1j * math.pi / 4))
    if base == "tdg":
        return (1.0, cmath.exp(-1j * math.pi / 4))
    if base == "rz":
        half = params[0] / 2.0
        return (cmath.exp(-1j * half), cmath.exp(1j * half))
    if base == "p":
        return (1.0, cmath.exp(1j * params[0]))
    raise ValueError(f"gate {base!r} is not diagonal")


#: Pauli matrices for :func:`apply_pauli`'s X/Y antidiagonal paths.
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


# ----------------------------------------------------------------------
# array sweeps on the flat (2**n, *batch) state
# ----------------------------------------------------------------------
def _tensor(state: np.ndarray, n: int) -> np.ndarray:
    """View of ``state`` with one axis per qubit (batch axes trail)."""
    return state.reshape((2,) * n + state.shape[1:])


def _subview(t: np.ndarray, n: int, controls: Sequence[int]) -> np.ndarray:
    """View with every control axis fixed at |1>."""
    if not controls:
        return t
    idx: List[object] = [slice(None)] * n
    for c in controls:
        idx[n - 1 - c] = 1
    return t[tuple(idx)]


def _axis_after_controls(qubit: int, n: int, controls: Sequence[int]) -> int:
    """Axis of ``qubit`` inside the control subview."""
    return (n - 1 - qubit) - sum(1 for c in controls if c > qubit)


def _apply_1q(
    state: np.ndarray,
    n: int,
    matrix: np.ndarray,
    qubit: int,
    controls: Sequence[int] = (),
) -> None:
    """Apply a 2x2 matrix to ``qubit`` within the control subspace.

    One linear combination over two half-state views; diagonal and
    antidiagonal matrices take cheaper copy/scale paths.
    """
    t = _tensor(state, n)
    sub = _subview(t, n, controls)
    ax = _axis_after_controls(qubit, n, controls)
    i0 = (slice(None),) * ax + (0,)
    i1 = (slice(None),) * ax + (1,)
    a, b, c, d = matrix.ravel()
    if b == 0 and c == 0:  # diagonal
        if a != 1.0:
            sub[i0] *= a
        if d != 1.0:
            sub[i1] *= d
        return
    v0 = sub[i0]
    v1 = sub[i1]
    if a == 0 and d == 0:  # antidiagonal (X, Y, and phased variants)
        tmp = v0.copy()
        sub[i0] = v1 if b == 1.0 else b * v1
        sub[i1] = tmp if c == 1.0 else c * tmp
        return
    t0 = a * v0 + b * v1
    t1 = c * v0 + d * v1
    sub[i0] = t0
    sub[i1] = t1


def _apply_swap(
    state: np.ndarray,
    n: int,
    qubit_a: int,
    qubit_b: int,
    controls: Sequence[int] = (),
) -> None:
    """Exchange the |01> and |10> subspaces of two qubits."""
    t = _tensor(state, n)
    sub = _subview(t, n, controls)
    ax_a = _axis_after_controls(qubit_a, n, controls)
    ax_b = _axis_after_controls(qubit_b, n, controls)
    idx01: List[object] = [slice(None)] * (max(ax_a, ax_b) + 1)
    idx10 = list(idx01)
    idx01[ax_a] = 0
    idx01[ax_b] = 1
    idx10[ax_a] = 1
    idx10[ax_b] = 0
    i01 = tuple(idx01)
    i10 = tuple(idx10)
    tmp = sub[i01].copy()
    sub[i01] = sub[i10]
    sub[i10] = tmp


def _apply_slices(
    state: np.ndarray,
    n: int,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> None:
    """Generic in-place k-qubit kernel: one view per local basis state.

    ``qubits[0]`` is the most-significant bit of the matrix's local
    index space (matching ``Gate.matrix``).
    """
    t = _tensor(state, n)
    k = len(qubits)
    dim = 1 << k
    if matrix.shape != (dim, dim):
        raise ValueError("matrix does not match qubit count")
    if t.ndim == n:
        # gate touches every axis: keep a trailing length-1 axis so
        # the per-basis views stay writable arrays instead of scalars
        t = t.reshape((2,) * n + (1,))
    views = []
    for basis in range(dim):
        idx: List[object] = [slice(None)] * n
        for j, q in enumerate(qubits):
            idx[n - 1 - q] = (basis >> (k - 1 - j)) & 1
        views.append(t[tuple(idx)])
    rows = []
    for r in range(dim):
        acc = None
        for c in range(dim):
            coeff = matrix[r, c]
            if coeff == 0:
                continue
            if acc is None:
                acc = views[c] * coeff  # materializes; views stay readable
            else:
                acc += coeff * views[c]
        rows.append(acc)
    for r in range(dim):
        if rows[r] is None:
            views[r][...] = 0
        else:
            views[r][...] = rows[r]


def _apply_diag1(
    state: np.ndarray,
    n: int,
    d0: complex,
    d1: complex,
    qubit: int,
    controls: Sequence[int] = (),
) -> None:
    """Multiply the |0>/|1> slices of ``qubit`` by ``(d0, d1)``."""
    t = _tensor(state, n)
    sub = _subview(t, n, controls)
    ax = _axis_after_controls(qubit, n, controls)
    if d0 != 1.0:
        sub[(slice(None),) * ax + (0,)] *= d0
    if d1 != 1.0:
        sub[(slice(None),) * ax + (1,)] *= d1


def _apply_diag(
    state: np.ndarray,
    n: int,
    qubits_desc: Tuple[int, ...],
    diag: np.ndarray,
) -> None:
    """Multiply by a merged multi-qubit local diagonal.

    ``qubits_desc`` lists the touched qubits in descending order;
    ``qubits_desc[0]`` is the most-significant bit of ``diag``'s
    index space.
    """
    t = _tensor(state, n)
    shape = [1] * t.ndim
    for q in qubits_desc:
        shape[n - 1 - q] = 2
    t *= diag.reshape(shape)


def _apply_block(
    state: np.ndarray,
    n: int,
    qubits_desc: Tuple[int, ...],
    matrix: np.ndarray,
) -> None:
    """Apply a fused block matrix with one BLAS matmul.

    The state is reshaped so the block's qubit axes form one axis;
    if the block's qubits are contiguous this is a pure reshape,
    otherwise the axes are transposed next to each other first (two
    copies).  Batched states fall back to the generic slice kernel.
    """
    t = _tensor(state, n)
    f = len(qubits_desc)
    dim = 1 << f
    axes = [n - 1 - q for q in qubits_desc]  # ascending
    if t.ndim != n:  # batched (e.g. dense-unitary evolution)
        _apply_slices(state, n, matrix, qubits_desc)
        return
    if axes == list(range(axes[0], axes[0] + f)):
        if axes[-1] == n - 1:
            view = state.reshape(-1, dim)
            view[...] = view @ matrix.T
        else:
            view = state.reshape(1 << axes[0], dim, -1)
            view[...] = np.matmul(matrix, view)
        return
    perm = [a for a in range(n) if a not in axes] + axes
    transposed = np.transpose(t, perm)
    flat = np.ascontiguousarray(transposed).reshape(-1, dim)
    transposed[...] = (flat @ matrix.T).reshape(transposed.shape)


# ----------------------------------------------------------------------
# named-gate dispatch
# ----------------------------------------------------------------------
def _apply_named(state: np.ndarray, n: int, gate: Gate) -> bool:
    """Apply a named gate via its dedicated kernel; False if unknown."""
    name = gate.name
    if name in ("barrier", "id"):
        return True
    if not gate.is_unitary:
        return False
    base = gate.base_name
    if base in DIAGONAL_BASES:
        d0, d1 = _diag_entries(base, gate.params)
        _apply_diag1(state, n, d0, d1, gate.targets[0], gate.controls)
        return True
    if base in SINGLE_QUBIT_BASES:
        _apply_1q(
            state, n, base_matrix(base, gate.params),
            gate.targets[0], gate.controls,
        )
        return True
    if base == "swap":
        _apply_swap(state, n, gate.targets[0], gate.targets[1], gate.controls)
        return True
    return False


def apply_gate(
    state: np.ndarray,
    gate: Gate,
    num_qubits: Optional[int] = None,
) -> bool:
    """Apply a named gate in place on a flat/batched state.

    Returns True if a dedicated kernel handled the gate; False means
    the caller must fall back to :func:`apply_matrix` with the dense
    gate matrix.
    """
    _require_complex(state, "apply_gate")
    n = infer_num_qubits(state) if num_qubits is None else num_qubits
    return _apply_named(state, n, gate)


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: Optional[int] = None,
) -> None:
    """Apply an arbitrary ``2^k x 2^k`` matrix in place (dense fallback)."""
    _require_complex(state, "apply_matrix")
    n = infer_num_qubits(state) if num_qubits is None else num_qubits
    _apply_slices(state, n, np.asarray(matrix, dtype=complex), qubits)


def apply_pauli(
    state: np.ndarray,
    pauli: str,
    qubit: int,
    num_qubits: Optional[int] = None,
) -> None:
    """Apply a single Pauli X/Y/Z without building a Gate object."""
    _require_complex(state, "apply_pauli")
    n = infer_num_qubits(state) if num_qubits is None else num_qubits
    if pauli == "z":
        _apply_diag1(state, n, 1.0, -1.0, qubit)
    elif pauli == "x":
        _apply_1q(state, n, _PAULI_X, qubit)
    elif pauli == "y":
        _apply_1q(state, n, _PAULI_Y, qubit)
    else:
        raise ValueError(f"unknown Pauli {pauli!r}")


# ----------------------------------------------------------------------
# gate fusion / circuit compilation
# ----------------------------------------------------------------------
#: compiled op kinds: ("gate", Gate) | ("u1", (matrix, qubit)) |
#: ("diag", (qubits_msb_first, diagonal_vector)) |
#: ("block", (qubits_msb_first, dense_matrix))
CompiledOp = Tuple[str, object]


def _local_diag(op: CompiledOp) -> Optional[Tuple[Tuple[int, ...], np.ndarray]]:
    """If ``op`` is diagonal, return (qubits MSB-first, local diagonal)."""
    kind, payload = op
    if kind == "u1":
        matrix, qubit = payload
        if matrix[0, 1] == 0 and matrix[1, 0] == 0:
            return ((qubit,), np.array([matrix[0, 0], matrix[1, 1]]))
        return None
    if kind != "gate":
        return None
    gate = payload
    if gate.base_name not in DIAGONAL_BASES:
        return None
    d0, d1 = _diag_entries(gate.base_name, gate.params)
    k = len(gate.controls)
    local = np.ones(1 << (k + 1), dtype=complex)
    local[-2] = d0
    local[-1] = d1
    return (gate.qubits, local)


def _merge_diag_run(run: List[Tuple[Tuple[int, ...], np.ndarray]]) -> CompiledOp:
    """Fold a run of commuting diagonal gates into one local diagonal."""
    qubits = sorted({q for qs, _ in run for q in qs}, reverse=True)
    m = len(qubits)
    pos = {q: i for i, q in enumerate(qubits)}  # i == 0 is the MSB
    idx = np.arange(1 << m)
    merged = np.ones(1 << m, dtype=complex)
    for qs, local in run:
        k = len(qs)
        local_idx = np.zeros(1 << m, dtype=np.int64)
        for j, q in enumerate(qs):
            bit = (idx >> (m - 1 - pos[q])) & 1
            local_idx |= bit << (k - 1 - j)
        merged *= local[local_idx]
    return ("diag", (tuple(qubits), merged))


def _fuse_diagonals(ops: List[CompiledOp]) -> List[CompiledOp]:
    """Merge consecutive diagonal ops (they all commute) into one."""
    out: List[CompiledOp] = []
    run_ops: List[CompiledOp] = []
    run_diags: List[Tuple[Tuple[int, ...], np.ndarray]] = []
    run_qubits: set = set()

    def flush() -> None:
        if len(run_diags) >= 2:
            out.append(_merge_diag_run(run_diags))
        else:
            out.extend(run_ops)
        run_ops.clear()
        run_diags.clear()
        run_qubits.clear()

    for op in ops:
        info = _local_diag(op)
        if info is None:
            flush()
            out.append(op)
            continue
        qs, _ = info
        if len(run_qubits | set(qs)) > DIAG_FUSION_MAX_QUBITS:
            flush()
        run_ops.append(op)
        run_diags.append(info)
        run_qubits.update(qs)
    flush()
    return out


_EYE2 = np.eye(2, dtype=complex)


def _op_qubits(op: CompiledOp) -> Tuple[int, ...]:
    """Qubits touched by a compiled op."""
    kind, payload = op
    if kind == "gate":
        return payload.qubits
    if kind == "u1":
        return (payload[1],)
    return payload[0]  # diag / block


#: relative cost weight of an op executed by its dedicated kernel.
#: "cheap" ops (diagonal multiplies, slice permutations) barely touch
#: the state; "generic" ops pay a full 2x2 linear-combination sweep.
_CHEAP_WEIGHT = 0.35
_GENERIC_WEIGHT = 1.0

#: minimum summed member weight for a block of f qubits to beat its
#: members' individual kernels (one f-qubit matmul costs roughly this
#: many generic single-qubit sweeps; measured on the dev box).
_BLOCK_GAIN = {1: 0.7, 2: 1.0, 3: 1.1, 4: 1.3, 5: 1.9}


def _op_weight(op: CompiledOp) -> float:
    """Estimated kernel cost of an op, in generic-1q-sweep units."""
    kind, payload = op
    if kind == "diag":
        return _CHEAP_WEIGHT
    if kind == "u1":
        matrix = payload[0]
        off_diag = matrix[0, 1] == 0 and matrix[1, 0] == 0
        anti_diag = matrix[0, 0] == 0 and matrix[1, 1] == 0
        return _CHEAP_WEIGHT if off_diag or anti_diag else _GENERIC_WEIGHT
    if kind == "gate":
        return (
            _CHEAP_WEIGHT
            if payload.base_name in _CHEAP_BASES
            else _GENERIC_WEIGHT
        )
    return _GENERIC_WEIGHT


_CHEAP_BASES = frozenset(
    {"x", "y", "z", "s", "sdg", "t", "tdg", "rz", "p", "swap"}
)


def _block_matrix(
    members: List[CompiledOp], qubits_desc: Tuple[int, ...]
) -> np.ndarray:
    """Dense unitary of a member op sequence over the block's qubits.

    The block matrix is built by evolving an identity through the same
    batched kernels, with every member remapped onto the block-local
    qubit numbering (``qubits_desc[0]`` is the local MSB).
    """
    f = len(qubits_desc)
    local = {q: f - 1 - j for j, q in enumerate(qubits_desc)}
    remapped: List[CompiledOp] = []
    for kind, payload in members:
        if kind == "gate":
            remapped.append(("gate", payload.remap(local)))
        elif kind == "u1":
            matrix, qubit = payload
            remapped.append(("u1", (matrix, local[qubit])))
        else:  # diag: descending qubits stay descending under the remap
            qs, diag = payload
            remapped.append(("diag", (tuple(local[q] for q in qs), diag)))
    unitary = np.eye(1 << f, dtype=complex)
    apply_ops(unitary, remapped, f)
    return np.ascontiguousarray(unitary)


def _fuse_blocks(ops: List[CompiledOp]) -> List[CompiledOp]:
    """Greedily group ops into matmul blocks.

    Standard simulator gate fusion: starting from a seed op, absorb any
    later op whose qubits fit in the growing block support (at most
    ``BLOCK_QUBITS`` qubits) and that
    commutes past every skipped op in between (guaranteed by qubit
    disjointness from everything skipped).  A block is emitted as one
    dense matrix only when the cost heuristic says the single matmul
    beats the members' individual kernels; otherwise the members are
    emitted unchanged, preserving their relative order (which is
    equivalent, since each member commutes with all skipped ops that
    precede it).
    """
    total = len(ops)
    used = [False] * total
    out: List[CompiledOp] = []
    for i in range(total):
        if used[i]:
            continue
        used[i] = True
        seed_qubits = _op_qubits(ops[i])
        if len(seed_qubits) > BLOCK_QUBITS:
            out.append(ops[i])
            continue
        support = set(seed_qubits)
        members = [ops[i]]
        weight = _op_weight(ops[i])
        blocked: set = set()
        for j in range(i + 1, min(i + 1 + BLOCK_LOOKAHEAD, total)):
            if used[j]:
                continue
            qubits = set(_op_qubits(ops[j]))
            if not (qubits & blocked) and (
                len(support | qubits) <= BLOCK_QUBITS
            ):
                used[j] = True
                support |= qubits
                members.append(ops[j])
                weight += _op_weight(ops[j])
            else:
                blocked |= qubits
        f = len(support)
        if len(members) >= 2 and weight >= _BLOCK_GAIN[f]:
            qubits_desc = tuple(sorted(support, reverse=True))
            out.append(("block", (qubits_desc, _block_matrix(members, qubits_desc))))
        else:
            out.extend(members)
    return out


def compile_circuit(gates: Iterable[Gate]) -> List[CompiledOp]:
    """Compile a unitary gate sequence into fused kernel ops.

    Fusion folds wire-adjacent runs of single-qubit gates into one 2x2
    matrix (products that collapse to the identity are dropped), merges
    consecutive diagonal gates into one local diagonal of at most
    ``DIAG_FUSION_MAX_QUBITS`` qubits, and groups the remaining ops
    into matmul blocks of at most ``BLOCK_QUBITS`` qubits
    where the measured break-even curve says that wins.
    """
    ops: List[CompiledOp] = []
    pending: dict = {}  # qubit -> accumulated 2x2 matrix

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        a, b, c, d = matrix.ravel()  # scalar identity check: allclose is slow
        if (
            abs(a - 1.0) < _IDENTITY_ATOL
            and abs(d - 1.0) < _IDENTITY_ATOL
            and abs(b) < _IDENTITY_ATOL
            and abs(c) < _IDENTITY_ATOL
        ):
            return
        ops.append(("u1", (matrix, qubit)))

    for gate in gates:
        name = gate.name
        if name == "id":
            continue
        if name == "barrier":
            for q in list(pending):
                flush(q)
            continue
        if (
            gate.is_unitary
            and not gate.controls
            and len(gate.targets) == 1
            and gate.base_name in SINGLE_QUBIT_BASES
        ):
            q = gate.targets[0]
            matrix = base_matrix(gate.base_name, gate.params)
            pending[q] = matrix @ pending[q] if q in pending else matrix
            continue
        for q in gate.qubits:
            flush(q)
        ops.append(("gate", gate))
    for q in list(pending):
        flush(q)
    return _fuse_blocks(_fuse_diagonals(ops))


def apply_ops(
    state: np.ndarray,
    ops: Sequence[CompiledOp],
    num_qubits: Optional[int] = None,
) -> None:
    """Run a compiled op list in place on a flat/batched state."""
    _require_complex(state, "apply_ops")
    n = infer_num_qubits(state) if num_qubits is None else num_qubits
    for kind, payload in ops:
        if kind == "gate":
            gate = payload
            if not _apply_named(state, n, gate):
                _apply_slices(state, n, gate.matrix(), gate.qubits)
        elif kind == "u1":
            matrix, qubit = payload
            _apply_1q(state, n, matrix, qubit)
        elif kind == "diag":
            qubits, diag = payload
            _apply_diag(state, n, qubits, diag)
        elif kind == "block":
            qubits, matrix = payload
            _apply_block(state, n, qubits, matrix)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown compiled op kind {kind!r}")
