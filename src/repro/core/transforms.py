"""The NPN transformation group acting on truth tables.

An NPN transformation is a triple ``(perm, input_phase, output_phase)``
describing input permutation, selective input negation and output negation
(Section II-A of the paper).  Acting on an ``n``-variable function ``f`` it
produces ``g`` with::

    g(x_0, ..., x_{n-1}) = output_phase XOR f(w_0, ..., w_{n-1})
    w_i = x_{perm[i]} XOR input_phase_i

i.e. input ``i`` of ``f`` is driven by variable ``perm[i]`` of ``g``,
optionally complemented, and the output is optionally complemented.  Two
functions are **NPN equivalent** iff some transformation maps one to the
other; dropping output negation gives **PN equivalence** and dropping both
negations gives **P equivalence**.

Transformations form a group of order ``2^(n+1) * n!``; :meth:`compose`
and :meth:`inverse` implement the group operations and
:func:`all_transforms` enumerates the group.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial

from repro.core import bitops

__all__ = ["NPNTransform", "all_transforms", "group_order", "random_transform"]


@dataclass(frozen=True)
class NPNTransform:
    """One element of the NPN transformation group.

    Attributes:
        perm: tuple where input ``i`` of the original function reads
            variable ``perm[i]`` of the transformed function.
        input_phase: n-bit word; bit ``i`` complements input ``i`` of the
            original function (the paper's selective negation ``(¬)``).
        output_phase: 1 to complement the output, 0 otherwise.
    """

    perm: tuple[int, ...]
    input_phase: int = 0
    output_phase: int = 0

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"{self.perm!r} is not a permutation")
        if not 0 <= self.input_phase < (1 << n):
            raise ValueError(f"input phase {self.input_phase:#x} needs {n} bits")
        if self.output_phase not in (0, 1):
            raise ValueError("output phase must be 0 or 1")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "NPNTransform":
        """The neutral element for ``n`` variables."""
        return cls(tuple(range(n)), 0, 0)

    # ------------------------------------------------------------------
    # Group structure
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of variables the transform acts on."""
        return len(self.perm)

    @property
    def is_identity(self) -> bool:
        return (
            self.perm == tuple(range(self.n))
            and self.input_phase == 0
            and self.output_phase == 0
        )

    def compose(self, other: "NPNTransform") -> "NPNTransform":
        """Transform equivalent to applying ``other`` first, then ``self``.

        ``self.compose(other).apply_table(t, n) ==
        self.apply_table(other.apply_table(t, n), n)`` for every table.
        """
        if self.n != other.n:
            raise ValueError("cannot compose transforms of different arity")
        n = self.n
        perm = tuple(self.perm[other.perm[i]] for i in range(n))
        phase = 0
        for i in range(n):
            bit = (self.input_phase >> other.perm[i]) & 1
            bit ^= (other.input_phase >> i) & 1
            phase |= bit << i
        return NPNTransform(perm, phase, self.output_phase ^ other.output_phase)

    def inverse(self) -> "NPNTransform":
        """The transform undoing ``self``."""
        n = self.n
        inv_perm = [0] * n
        phase = 0
        for i in range(n):
            inv_perm[self.perm[i]] = i
            phase |= ((self.input_phase >> i) & 1) << self.perm[i]
        return NPNTransform(tuple(inv_perm), phase, self.output_phase)

    # ------------------------------------------------------------------
    # Action on truth tables
    # ------------------------------------------------------------------

    def apply_table(self, table: int, n: int) -> int:
        """Apply to a raw integer truth table (see module docstring).

        Cost: O(n) big-int operations — input flips, then the permutation
        as delta swaps, then an optional output complement.
        """
        if n != self.n:
            raise ValueError(f"transform arity {self.n} != table arity {n}")
        out = bitops.flip_inputs(table, n, self.input_phase)
        out = bitops.permute_inputs(out, n, self.perm)
        if self.output_phase:
            out = bitops.flip_output(out, n)
        return out

    def apply_index(self, index: int) -> int:
        """Map a minterm index of the transformed function to the original's.

        If ``g = self(f)`` then ``g(x) = output_phase ^ f(self.apply_index(x))``
        for the word encoded by ``index``.
        """
        src = 0
        for i in range(self.n):
            bit = (index >> self.perm[i]) & 1
            bit ^= (self.input_phase >> i) & 1
            src |= bit << i
        return src

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready form (witness transport for the CLI and library)."""
        return {
            "perm": list(self.perm),
            "input_phase": self.input_phase,
            "output_phase": self.output_phase,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NPNTransform":
        """Inverse of :meth:`as_dict`; validates like the constructor."""
        return cls(
            tuple(data["perm"]),
            int(data.get("input_phase", 0)),
            int(data.get("output_phase", 0)),
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        neg = "".join(
            f"~x{p}" if (self.input_phase >> i) & 1 else f"x{p}"
            for i, p in enumerate(self.perm)
        )
        prefix = "~" if self.output_phase else ""
        return f"{prefix}f({neg})"


def group_order(n: int) -> int:
    """Order of the NPN group on ``n`` variables: ``2^(n+1) * n!``."""
    return (1 << (n + 1)) * factorial(n)


def all_transforms(n: int, include_output: bool = True):
    """Yield every NPN (or NP, if ``include_output`` is false) transform.

    The full group has ``2^(n+1) * n!`` elements; enumeration order is
    deterministic (output phase slowest, then permutation, then phase).
    """
    outputs = (0, 1) if include_output else (0,)
    for output_phase in outputs:
        for perm in itertools.permutations(range(n)):
            for phase in range(1 << n):
                yield NPNTransform(perm, phase, output_phase)


def random_transform(n: int, rng: random.Random) -> NPNTransform:
    """Uniformly random element of the NPN group."""
    perm = tuple(rng.sample(range(n), n))
    return NPNTransform(perm, rng.getrandbits(n) if n else 0, rng.getrandbits(1))
