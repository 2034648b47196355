"""Truth-table representations of Boolean functions.

:class:`TruthTable` is a single-output function ``f : B^n -> B`` stored
as a ``2^n``-bit integer bitmask (bit ``x`` holds ``f(x)``); variable
``i`` is bit ``i`` of the input index (x1 in the paper's examples is
the least-significant variable).  :class:`MultiTruthTable` bundles
``m`` outputs ``f : B^n -> B^m``.

These are the explicit representations that feed the reversible
synthesis algorithms of Sec. V.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, List, Sequence


class TruthTable:
    """Single-output Boolean function over ``num_vars`` variables."""

    __slots__ = ("num_vars", "bits")

    def __init__(self, num_vars: int, bits: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        if num_vars > 24:
            raise ValueError("explicit truth table too large (num_vars > 24)")
        self.num_vars = num_vars
        mask = (1 << (1 << num_vars)) - 1
        self.bits = bits & mask

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls, num_vars: int, func: Callable[..., object]
    ) -> "TruthTable":
        """Tabulate ``func(x_0, ..., x_{n-1})`` (arguments are bools)."""
        bits = 0
        for x in range(1 << num_vars):
            args = [bool((x >> i) & 1) for i in range(num_vars)]
            if func(*args):
                bits |= 1 << x
        return cls(num_vars, bits)

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthTable":
        """Build from an explicit output list of length ``2^n``."""
        size = len(values)
        num_vars = size.bit_length() - 1
        if 1 << num_vars != size:
            raise ValueError("values length must be a power of two")
        bits = 0
        for x, value in enumerate(values):
            if value:
                bits |= 1 << x
        return cls(num_vars, bits)

    @classmethod
    def from_hex(cls, num_vars: int, hex_string: str) -> "TruthTable":
        return cls(num_vars, int(hex_string, 16))

    @classmethod
    def constant(cls, num_vars: int, value: bool) -> "TruthTable":
        bits = (1 << (1 << num_vars)) - 1 if value else 0
        return cls(num_vars, bits)

    @classmethod
    def projection(cls, num_vars: int, var: int) -> "TruthTable":
        """The function f(x) = x_var."""
        if not 0 <= var < num_vars:
            raise ValueError("projection variable out of range")
        bits = 0
        for x in range(1 << num_vars):
            if (x >> var) & 1:
                bits |= 1 << x
        return cls(num_vars, bits)

    @classmethod
    def inner_product(cls, half_vars: int) -> "TruthTable":
        """IP function ``f(x, y) = x . y`` on ``2 * half_vars`` variables.

        x-variables are the low indices ``0..half_vars-1``, y-variables
        the rest.  Built bit-parallel so it stays fast up to the
        package's 24-variable truth-table limit.
        """
        import numpy as np

        n = half_vars
        indices = np.arange(1 << (2 * n), dtype=np.uint64)
        x = indices & np.uint64((1 << n) - 1)
        y = indices >> np.uint64(n)
        conj = (x & y).astype(np.uint64)
        parity = np.zeros_like(conj, dtype=np.uint8)
        for bit in range(n):
            parity ^= ((conj >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)
        return cls.from_numpy(2 * n, parity)

    @classmethod
    def from_numpy(cls, num_vars: int, values) -> "TruthTable":
        """Build from a numpy 0/1 array of length ``2^n``."""
        import numpy as np

        packed = np.packbits(
            np.asarray(values, dtype=np.uint8), bitorder="little"
        )
        return cls(num_vars, int.from_bytes(packed.tobytes(), "little"))

    def to_numpy(self):
        """The output vector as a numpy uint8 array of length ``2^n``."""
        import numpy as np

        num_bytes = max(1, (self.size + 7) // 8)
        raw = np.frombuffer(
            self.bits.to_bytes(num_bytes, "little"), dtype=np.uint8
        )
        return np.unpackbits(raw, bitorder="little")[: self.size]

    # ------------------------------------------------------------------
    # evaluation / inspection
    # ------------------------------------------------------------------
    def __call__(self, x: int) -> int:
        return (self.bits >> x) & 1

    def evaluate(self, assignment: Sequence[int]) -> int:
        x = sum((1 << i) for i, bit in enumerate(assignment) if bit)
        return self(x)

    @property
    def size(self) -> int:
        return 1 << self.num_vars

    def count_ones(self) -> int:
        return bin(self.bits).count("1")

    def support(self) -> List[int]:
        """Variables the function actually depends on."""
        return [
            var
            for var in range(self.num_vars)
            if self.cofactor(var, 0) != self.cofactor(var, 1)
        ]

    def values(self) -> List[int]:
        return [(self.bits >> x) & 1 for x in range(self.size)]

    def to_hex(self) -> str:
        width = max(1, self.size // 4)
        return format(self.bits, f"0{width}x")

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("truth tables over different variable counts")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.num_vars == other.num_vars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Shannon cofactor: fix ``x_var = value``; same variable count
        (the fixed variable becomes don't-care)."""
        bits = 0
        for x in range(self.size):
            fixed = (x & ~(1 << var)) | (value << var)
            if self(fixed):
                bits |= 1 << x
        return TruthTable(self.num_vars, bits)

    def shift(self, s: int) -> "TruthTable":
        """Input shift: g(x) = f(x ^ s) — the paper's ``f(x + s)``."""
        bits = 0
        for x in range(self.size):
            if self(x ^ s):
                bits |= 1 << x
        return TruthTable(self.num_vars, bits)

    def permute_vars(self, permutation: Sequence[int]) -> "TruthTable":
        """Relabel variables: new variable i is old ``permutation[i]``."""
        if sorted(permutation) != list(range(self.num_vars)):
            raise ValueError("not a variable permutation")
        bits = 0
        for x in range(self.size):
            old = 0
            for new_var, old_var in enumerate(permutation):
                if (x >> new_var) & 1:
                    old |= 1 << old_var
            if self(old):
                bits |= 1 << x
        return TruthTable(self.num_vars, bits)

    def extend(self, num_vars: int) -> "TruthTable":
        """Re-express over a larger variable set (new vars are don't-care)."""
        if num_vars < self.num_vars:
            raise ValueError("cannot shrink a truth table")
        out = TruthTable(num_vars)
        small = self.size
        for x in range(1 << num_vars):
            if self(x & (small - 1)):
                out.bits |= 1 << x
        return out

    def __str__(self) -> str:
        return "".join(str(self(x)) for x in reversed(range(self.size)))

    def __repr__(self) -> str:
        return f"TruthTable({self.num_vars}, 0x{self.to_hex()})"


class MultiTruthTable:
    """Multi-output function ``f : B^n -> B^m`` as a list of tables."""

    def __init__(self, outputs: Sequence[TruthTable]):
        if not outputs:
            raise ValueError("need at least one output")
        num_vars = outputs[0].num_vars
        for table in outputs:
            if table.num_vars != num_vars:
                raise ValueError("outputs over differing variable counts")
        self.outputs = list(outputs)
        self.num_vars = num_vars

    @classmethod
    def from_function(
        cls, num_vars: int, num_outputs: int, func: Callable[[int], int]
    ) -> "MultiTruthTable":
        """Tabulate an integer-valued ``func(x) -> y`` with m output bits."""
        tables = [TruthTable(num_vars) for _ in range(num_outputs)]
        for x in range(1 << num_vars):
            y = func(x)
            for j in range(num_outputs):
                if (y >> j) & 1:
                    tables[j].bits |= 1 << x
        return cls(tables)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def __call__(self, x: int) -> int:
        return reduce(
            operator.or_,
            ((table(x) << j) for j, table in enumerate(self.outputs)),
            0,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiTruthTable)
            and self.outputs == other.outputs
        )

    def __getitem__(self, index: int) -> TruthTable:
        return self.outputs[index]

    def image(self) -> List[int]:
        return [self(x) for x in range(1 << self.num_vars)]

    def is_reversible(self) -> bool:
        """True if n == m and the function is a bijection."""
        if self.num_outputs != self.num_vars:
            return False
        return len(set(self.image())) == 1 << self.num_vars

    def __repr__(self) -> str:
        return (
            f"MultiTruthTable({self.num_vars} -> {self.num_outputs})"
        )
