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

Below the public API a batch of transforms travels as one
:class:`TransformColumns` value; an :class:`NPNTransform` is built only
for a witness that is returned.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import factorial

import numpy as np

from repro.core import bitops

__all__ = [
    "NPNTransform",
    "TransformColumns",
    "all_transforms",
    "group_order",
    "random_transform",
]


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
        """Inverse of :meth:`as_dict`; validates like the constructor.

        The dict is outside input (a served witness), so every perm
        entry and phase must be an ``int`` — not a ``bool``, a float or
        a string — or ``ValueError`` is raised.
        """
        perm = tuple(data["perm"])
        phases = data.get("input_phase", 0), data.get("output_phase", 0)
        if not all(type(value) is int for value in (*perm, *phases)):
            raise ValueError(f"transform fields must be integers: {data!r}")
        return cls(perm, *phases)

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


@dataclass(frozen=True)
class TransformColumns:
    """A batch of NPN transforms as parallel arrays.

    Row ``k`` is ``(perms[k, :ns[k]], input_phases[k], output_phases[k])``,
    the permutations ``intp`` and the phases ``int64``.  Rows may mix
    arities: ``perms`` holds the identity beyond each row's arity, a
    padding :meth:`inverse` and :meth:`compose` keep.  Each
    operation agrees row by row with its :class:`NPNTransform`
    reference; iterating builds one :class:`NPNTransform` per row.
    """

    ns: np.ndarray
    perms: np.ndarray
    input_phases: np.ndarray
    output_phases: np.ndarray

    @classmethod
    def of_arity(
        cls, n: int, perms, input_phases, output_phases
    ) -> "TransformColumns":
        """Rows all of arity ``n``; ``perms`` is ``[K, n]``."""
        input_phases = np.asarray(input_phases, dtype=np.int64)
        rows = len(input_phases)
        return cls(
            np.full(rows, n, dtype=np.intp),
            np.asarray(perms, dtype=np.intp).reshape(rows, n),
            input_phases,
            np.asarray(output_phases, dtype=np.int64),
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["TransformColumns"]
    ) -> "TransformColumns":
        """The rows of ``parts``, in order, padded to one width."""
        if not parts:
            return cls.of_arity(0, [], [], [])
        width = max(part.perms.shape[1] for part in parts)
        return cls(
            np.concatenate([part.ns for part in parts]),
            np.concatenate([part._padded(width) for part in parts]),
            np.concatenate([part.input_phases for part in parts]),
            np.concatenate([part.output_phases for part in parts]),
        )

    def __len__(self) -> int:
        return len(self.ns)

    def __iter__(self) -> Iterator[NPNTransform]:
        """One :class:`NPNTransform` per row, in order."""
        for n, perm, input_phase, output_phase in zip(
            self.ns.tolist(),
            self.perms.tolist(),
            self.input_phases.tolist(),
            self.output_phases.tolist(),
        ):
            yield NPNTransform(tuple(perm[:n]), input_phase, output_phase)

    def take(self, rows) -> "TransformColumns":
        """The rows at the integer indices ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return TransformColumns(
            self.ns[rows],
            self.perms[rows],
            self.input_phases[rows],
            self.output_phases[rows],
        )

    def inverse(self) -> "TransformColumns":
        """Row by row :meth:`NPNTransform.inverse`."""
        rows, width = self.perms.shape
        perms = np.empty_like(self.perms)
        perms[np.arange(rows)[:, None], self.perms] = np.arange(width)
        # Input phase bit ``i`` moves to bit ``perms[i]``.
        bits = (self.input_phases[:, None] >> np.arange(width)) & 1
        phases = (bits << self.perms).sum(axis=1, dtype=np.int64)
        return TransformColumns(self.ns, perms, phases, self.output_phases)

    def compose(self, other: "TransformColumns") -> "TransformColumns":
        """Row by row :meth:`NPNTransform.compose`: ``other`` first."""
        if not np.array_equal(self.ns, other.ns):
            raise ValueError("cannot compose transforms of different arity")
        width = max(self.perms.shape[1], other.perms.shape[1])
        inner = other._padded(width)
        perms = np.take_along_axis(self._padded(width), inner, axis=1)
        # Bit ``i``: bit ``inner[i]`` of this phase, xor bit ``i`` of other's.
        bits = (self.input_phases[:, None] >> inner) & 1
        phases = (bits << np.arange(width)).sum(axis=1, dtype=np.int64)
        return TransformColumns(
            self.ns,
            perms,
            phases ^ other.input_phases,
            self.output_phases ^ other.output_phases,
        )

    def _padded(self, width: int) -> np.ndarray:
        """``perms`` widened to ``width`` columns with the identity."""
        rows, have = self.perms.shape
        if have == width:
            return self.perms
        padding = np.broadcast_to(np.arange(have, width), (rows, width - have))
        return np.concatenate([self.perms, padding], axis=1)


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
