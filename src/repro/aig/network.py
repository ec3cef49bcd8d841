"""And-Inverter Graph (AIG) network with structural hashing.

Follows the AIGER literal convention: variable ``v`` has the positive
literal ``2v`` and the complemented literal ``2v + 1``.  Variable 0 is the
constant FALSE, so literal 0 is FALSE and literal 1 is TRUE.  Variables
``1..num_inputs`` are primary inputs; AND nodes take the following
indices.  Construction order is topological by design (fanins must exist
before the AND is created), which every traversal in this package relies
on.

``add_and`` performs the usual one-level rewrites (constant propagation,
idempotence, complementary fanins) and structural hashing, so builders can
compose gates freely without blowing the node count up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AIG", "Literal"]

#: A literal: 2 * variable + complement bit (AIGER convention).
Literal = int

FALSE: Literal = 0
TRUE: Literal = 1


@dataclass
class _AndNode:
    fanin0: Literal
    fanin1: Literal


@dataclass
class AIG:
    """A combinational And-Inverter Graph."""

    name: str = "aig"
    _inputs: list[str] = field(default_factory=list)
    _ands: list[_AndNode] = field(default_factory=list)
    _outputs: list[tuple[Literal, str]] = field(default_factory=list)
    _strash: dict[tuple[Literal, Literal], Literal] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name: str | None = None) -> Literal:
        """Create a primary input; returns its positive literal."""
        index = len(self._inputs) + 1
        self._inputs.append(name if name is not None else f"i{index - 1}")
        return 2 * index

    def add_inputs(self, count: int, prefix: str = "i") -> list[Literal]:
        """Create ``count`` named inputs at once."""
        return [self.add_input(f"{prefix}{k}") for k in range(count)]

    def add_and(self, a: Literal, b: Literal) -> Literal:
        """AND of two literals with rewriting and structural hashing."""
        self._check_literal(a)
        self._check_literal(b)
        if a > b:
            a, b = b, a
        if a == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        if a ^ 1 == b:
            return FALSE
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        self._ands.append(_AndNode(a, b))
        literal = 2 * (len(self._inputs) + len(self._ands))
        self._strash[key] = literal
        return literal

    def add_output(self, literal: Literal, name: str | None = None) -> None:
        self._check_literal(literal)
        self._outputs.append(
            (literal, name if name is not None else f"o{len(self._outputs)}")
        )

    # ------------------------------------------------------------------
    # Derived gates (all build on add_and)
    # ------------------------------------------------------------------

    @staticmethod
    def negate(literal: Literal) -> Literal:
        return literal ^ 1

    def add_or(self, a: Literal, b: Literal) -> Literal:
        return self.add_and(a ^ 1, b ^ 1) ^ 1

    def add_xor(self, a: Literal, b: Literal) -> Literal:
        return self.add_or(self.add_and(a, b ^ 1), self.add_and(a ^ 1, b))

    def add_xnor(self, a: Literal, b: Literal) -> Literal:
        return self.add_xor(a, b) ^ 1

    def add_mux(self, select: Literal, if_true: Literal, if_false: Literal) -> Literal:
        """``select ? if_true : if_false``."""
        return self.add_or(
            self.add_and(select, if_true), self.add_and(select ^ 1, if_false)
        )

    def add_maj(self, a: Literal, b: Literal, c: Literal) -> Literal:
        return self.add_or(
            self.add_and(a, b), self.add_or(self.add_and(a, c), self.add_and(b, c))
        )

    def add_and_tree(self, literals: list[Literal]) -> Literal:
        """Balanced AND over any number of literals (empty -> TRUE)."""
        items = list(literals)
        if not items:
            return TRUE
        while len(items) > 1:
            items = [
                self.add_and(items[k], items[k + 1])
                if k + 1 < len(items)
                else items[k]
                for k in range(0, len(items), 2)
            ]
        return items[0]

    def add_or_tree(self, literals: list[Literal]) -> Literal:
        return self.add_and_tree([lit ^ 1 for lit in literals]) ^ 1

    def add_xor_tree(self, literals: list[Literal]) -> Literal:
        items = list(literals)
        if not items:
            return FALSE
        while len(items) > 1:
            items = [
                self.add_xor(items[k], items[k + 1])
                if k + 1 < len(items)
                else items[k]
                for k in range(0, len(items), 2)
            ]
        return items[0]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_vars(self) -> int:
        """Total variables including the constant (index 0)."""
        return 1 + len(self._inputs) + len(self._ands)

    def input_names(self) -> tuple[str, ...]:
        return tuple(self._inputs)

    def outputs(self) -> tuple[tuple[Literal, str], ...]:
        return tuple(self._outputs)

    def input_variables(self) -> range:
        """Variable indices of the primary inputs."""
        return range(1, 1 + len(self._inputs))

    def and_variables(self) -> range:
        """Variable indices of the AND nodes, in topological order."""
        first = 1 + len(self._inputs)
        return range(first, first + len(self._ands))

    def fanins(self, variable: int) -> tuple[Literal, Literal]:
        """Fanin literals of an AND variable."""
        first = 1 + len(self._inputs)
        if not first <= variable < self.num_vars:
            raise ValueError(f"variable {variable} is not an AND node")
        node = self._ands[variable - first]
        return node.fanin0, node.fanin1

    def is_input(self, variable: int) -> bool:
        return 1 <= variable <= len(self._inputs)

    def levels(self) -> dict[int, int]:
        """Logic depth of every variable (inputs and constant at level 0)."""
        level = {0: 0}
        for v in self.input_variables():
            level[v] = 0
        for v in self.and_variables():
            f0, f1 = self.fanins(v)
            level[v] = 1 + max(level[f0 // 2], level[f1 // 2])
        return level

    def depth(self) -> int:
        """Maximum output level."""
        if not self._outputs:
            return 0
        level = self.levels()
        return max(level[lit // 2] for lit, __ in self._outputs)

    def _check_literal(self, literal: Literal) -> None:
        if not 0 <= literal < 2 * self.num_vars:
            raise ValueError(f"literal {literal} references an unknown variable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AIG(name={self.name!r}, inputs={self.num_inputs}, "
            f"ands={self.num_ands}, outputs={self.num_outputs})"
        )
