"""Bit-parallel AIG simulation and cone/cut truth-table computation.

Simulation words are Python ints used as bit vectors: pattern ``p`` of a
signal is bit ``p`` of its word.  Simulating all ``2^k`` assignments of
``k`` chosen variables therefore means seeding those variables with the
truth-table projection masks of :func:`repro.core.bitops.var_mask` and
sweeping the network once — the standard trick behind truth-table
computation in cut-based technology mapping.

Cut enumeration (:mod:`repro.aig.cuts`) does not call
:func:`cut_function` per cut: it computes every kept cut's table in one
level-synchronous numpy simulation per circuit, with each leaf a free
variable as here.  :func:`cut_function` stays as the reference oracle
that every enumerated table must equal.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.aig.network import AIG, Literal
from repro.core import bitops
from repro.core.truth_table import TruthTable

__all__ = ["simulate", "simulate_words", "cone_function", "cut_function"]


def simulate(aig: AIG, inputs: Sequence[int]) -> list[int]:
    """Evaluate all outputs for one input assignment (0/1 values)."""
    if len(inputs) != aig.num_inputs:
        raise ValueError(f"expected {aig.num_inputs} input values")
    words = simulate_words(aig, [bit & 1 for bit in inputs], width=1)
    return [words[lit] & 1 for lit, __ in aig.outputs()]


def simulate_words(
    aig: AIG, input_words: Sequence[int], width: int
) -> dict[Literal, int]:
    """Sweep the network once over bit-parallel input words.

    Returns a map from every *literal* to its simulation word (masked to
    ``width`` bits), so callers can look up complemented signals directly.
    """
    if len(input_words) != aig.num_inputs:
        raise ValueError(f"expected {aig.num_inputs} input words")
    mask = (1 << width) - 1
    values: dict[int, int] = {0: 0}
    for variable, word in zip(aig.input_variables(), input_words):
        values[variable] = word & mask
    for variable in aig.and_variables():
        f0, f1 = aig.fanins(variable)
        values[variable] = _literal_word(values, f0, mask) & _literal_word(
            values, f1, mask
        )
    return {
        2 * v: word for v, word in values.items()
    } | {2 * v + 1: word ^ mask for v, word in values.items()}


def cone_function(
    aig: AIG, root: Literal, leaves: Sequence[int]
) -> TruthTable:
    """Truth table of ``root`` as a function of the ``leaves`` variables.

    The cone of ``root`` must be covered by ``leaves``: every path from
    ``root`` towards the inputs must hit a leaf (or the constant).  Raises
    ``ValueError`` otherwise.  Leaf order defines variable order: leaf
    ``k`` becomes truth-table variable ``k``.
    """
    k = len(leaves)
    if k > bitops.MAX_VARS:
        raise ValueError(f"cone function over {k} leaves is unsupported")
    mask = bitops.table_mask(k)
    values: dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        values[leaf] = bitops.var_mask(k, position)
    root_var = root // 2

    order = _cone_variables(aig, root_var, set(values))
    for variable in order:
        f0, f1 = aig.fanins(variable)
        values[variable] = _literal_word(values, f0, mask) & _literal_word(
            values, f1, mask
        )
    word = _literal_word(values, root, mask)
    return TruthTable(k, word)


def cut_function(aig: AIG, root: int, cut: Iterable[int]) -> TruthTable:
    """Truth table of AND variable ``root`` over a cut's leaves (sorted).

    The reference oracle for the tables :func:`repro.aig.cuts.enumerate_cuts`
    computes: one fresh cone walk per call.
    """
    return cone_function(aig, 2 * root, sorted(cut))


def _cone_variables(aig: AIG, root_var: int, known: set[int]) -> list[int]:
    """Cone variables between the leaves and ``root_var``, topologically."""
    if root_var in known or root_var == 0:
        return []
    order: list[int] = []
    seen = set(known)
    stack = [(root_var, False)]
    while stack:
        variable, expanded = stack.pop()
        if variable in seen:
            continue
        if expanded:
            seen.add(variable)
            order.append(variable)
            continue
        if aig.is_input(variable):
            raise ValueError(
                f"cone of variable {root_var} escapes the leaves at input "
                f"{variable}"
            )
        stack.append((variable, True))
        f0, f1 = aig.fanins(variable)
        for fanin in (f0 // 2, f1 // 2):
            if fanin not in seen and fanin != 0:
                stack.append((fanin, False))
    return order


def _literal_word(values: dict[int, int], literal: Literal, mask: int) -> int:
    word = values[literal // 2]
    return word ^ mask if literal & 1 else word
