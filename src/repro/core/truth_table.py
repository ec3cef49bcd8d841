"""Immutable truth-table representation of Boolean functions.

``TruthTable`` wraps the integer encoding of :mod:`repro.core.bitops` in a
value type with constructors, Boolean algebra, cofactor access and NPN
transformation support.  It plays the role Kitty's ``static_truth_table``
plays for the paper's C++ implementation.

Bit convention (paper Section II-A): bit ``m`` of the table is
``f((m)_2)`` where the little-endian code of ``m`` assigns variable
``x_0`` to the least significant index bit.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.core.transforms import NPNTransform

__all__ = ["TruthTable"]


@dataclass(frozen=True, order=True)
class TruthTable:
    """An ``n``-variable Boolean function stored as a ``2**n``-bit integer.

    Instances are immutable, hashable, and totally ordered by
    ``(n, bits)`` — the ordering used for canonical representatives.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= bitops.MAX_VARS:
            raise ValueError(f"unsupported variable count {self.n}")
        if not 0 <= self.bits <= bitops.table_mask(self.n):
            raise ValueError(f"table value does not fit in 2^{self.n} bits")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_binary(cls, text: str) -> "TruthTable":
        """Parse an MSB-first binary string, e.g. ``"11101000"`` (3-majority).

        The leftmost character is ``f(1, 1, ..., 1)`` — the printing
        convention of Kitty and of the paper's figures.
        """
        clean = text.strip().replace("_", "")
        length = len(clean)
        if length == 0 or length & (length - 1):
            raise ValueError(f"binary string length {length} is not a power of two")
        if set(clean) - {"0", "1"}:
            raise ValueError(f"invalid binary string {text!r}")
        return cls(length.bit_length() - 1, int(clean, 2))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        """Parse an MSB-first hex string of ``max(1, 2**n/4)`` digits."""
        clean = text.strip().removeprefix("0x").replace("_", "")
        expected = max(1, (1 << n) // 4)
        if len(clean) != expected:
            raise ValueError(
                f"expected {expected} hex digits for n={n}, got {len(clean)}"
            )
        return cls(n, int(clean, 16) & bitops.table_mask(n))

    @classmethod
    def from_function(cls, n: int, func: Callable[..., int]) -> "TruthTable":
        """Tabulate ``func(x_0, ..., x_{n-1})`` over all assignments."""
        bits = 0
        for m in range(1 << n):
            args = tuple((m >> i) & 1 for i in range(n))
            if func(*args):
                bits |= 1 << m
        return cls(n, bits)

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        """The constant-0 or constant-1 function."""
        return cls(n, bitops.table_mask(n) if value else 0)

    @classmethod
    def projection(cls, n: int, i: int, complemented: bool = False) -> "TruthTable":
        """The function ``x_i`` (or ``~x_i``)."""
        mask = bitops.var_mask(n, i)
        if complemented:
            mask ^= bitops.table_mask(n)
        return cls(n, mask)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "TruthTable":
        """Uniformly random ``n``-variable function."""
        return cls(n, rng.getrandbits(1 << n) if n else rng.getrandbits(1))

    @classmethod
    def majority(cls, n: int) -> "TruthTable":
        """The n-input majority function (n odd), e.g. the paper's ``f1``."""
        if n % 2 == 0:
            raise ValueError("majority needs an odd number of inputs")
        return cls.from_function(n, lambda *xs: int(sum(xs) > n // 2))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def evaluate(self, assignment: Iterable[int] | int) -> int:
        """Value of ``f`` at a word, given as bit tuple or minterm index."""
        if isinstance(assignment, int):
            index = assignment
            if not 0 <= index < (1 << self.n):
                raise ValueError(f"minterm {index} out of range")
        else:
            bits = tuple(assignment)
            if len(bits) != self.n:
                raise ValueError(f"expected {self.n} inputs, got {len(bits)}")
            index = sum((b & 1) << i for i, b in enumerate(bits))
        return (self.bits >> index) & 1

    def count_ones(self) -> int:
        """Satisfy count ``|f|`` — the 0-ary cofactor signature."""
        return bitops.popcount(self.bits)

    @property
    def is_balanced(self) -> bool:
        """True iff ``|f| == |~f| == 2^(n-1)`` (paper Section II-A)."""
        return self.count_ones() * 2 == 1 << self.n

    def minterms(self) -> Iterator[int]:
        """Indices of the satisfying assignments, ascending."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def support(self) -> tuple[int, ...]:
        """Variables the function actually depends on."""
        return tuple(
            i
            for i in range(self.n)
            if bitops.sensitivity_word(self.bits, self.n, i) != 0
        )

    @property
    def is_degenerate(self) -> bool:
        """True iff some variable is non-essential."""
        return len(self.support()) < self.n

    def has_symmetric_pair(self, i: int, j: int) -> bool:
        """True iff ``f`` is invariant under swapping ``x_i`` and ``x_j``."""
        return bitops.swap_inputs(self.bits, self.n, i, j) == self.bits

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, bitops.flip_output(self.bits, self.n))

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.bits & self._same_arity(other).bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.bits | self._same_arity(other).bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.bits ^ self._same_arity(other).bits)

    # ------------------------------------------------------------------
    # Cofactors and transformations
    # ------------------------------------------------------------------

    def cofactor(self, i: int, value: int) -> "TruthTable":
        """Shannon cofactor ``f|x_i=value`` as an ``(n-1)``-variable table."""
        if self.n == 0:
            raise ValueError("cannot take a cofactor of a 0-variable function")
        return TruthTable(
            self.n - 1, bitops.project_cofactor(self.bits, self.n, i, value)
        )

    def cofactor_count(self, i: int, value: int) -> int:
        """Satisfy count of the cofactor without materialising it."""
        mask = bitops.var_mask(self.n, i)
        if not value:
            mask ^= bitops.table_mask(self.n)
        return bitops.popcount(self.bits & mask)

    def flip_input(self, i: int) -> "TruthTable":
        return TruthTable(self.n, bitops.flip_input(self.bits, self.n, i))

    def flip_inputs(self, phase: int) -> "TruthTable":
        return TruthTable(self.n, bitops.flip_inputs(self.bits, self.n, phase))

    def swap_inputs(self, i: int, j: int) -> "TruthTable":
        return TruthTable(self.n, bitops.swap_inputs(self.bits, self.n, i, j))

    def permute(self, perm: tuple[int, ...]) -> "TruthTable":
        return TruthTable(self.n, bitops.permute_inputs(self.bits, self.n, perm))

    def apply(self, transform: NPNTransform) -> "TruthTable":
        """Apply an NPN transformation."""
        return TruthTable(self.n, transform.apply_table(self.bits, self.n))

    def extend(self, n: int) -> "TruthTable":
        """Re-express over ``n >= self.n`` variables (new ones don't-care)."""
        if n < self.n:
            raise ValueError("extend cannot shrink a function")
        bits = self.bits
        for k in range(self.n, n):
            bits = bitops.insert_variable(bits, k, k)
        return TruthTable(n, bits)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_binary(self) -> str:
        """MSB-first binary string (inverse of :meth:`from_binary`)."""
        return format(self.bits, f"0{1 << self.n}b")

    def to_hex(self) -> str:
        """MSB-first hex string (inverse of :meth:`from_hex`)."""
        return format(self.bits, f"0{max(1, (1 << self.n) // 4)}x")

    def bit_array(self) -> np.ndarray:
        """Numpy ``uint8`` view of the table, bit ``m`` at position ``m``."""
        return bitops.to_bit_array(self.bits, self.n)

    def __str__(self) -> str:
        return f"0x{self.to_hex()}" if self.n >= 2 else self.to_binary()

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, bits=0x{self.to_hex()})"

    def _same_arity(self, other: "TruthTable") -> "TruthTable":
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")
        return other
