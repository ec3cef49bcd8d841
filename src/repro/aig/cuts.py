"""k-feasible priority-cut enumeration — the paper's truth-table front end.

A *cut* of node ``v`` is a set of variables (leaves) such that every path
from ``v`` to the primary inputs passes through a leaf; it is k-feasible
when it has at most ``k`` leaves.  Bottom-up enumeration merges the cut
sets of the two fanins, filters oversized and dominated cuts, and keeps at
most ``max_cuts`` per node (priority cuts) so the enumeration stays
polynomial on large networks — the standard scheme from cut-based FPGA
mapping, which is also how the paper extracts Boolean functions from the
EPFL benchmarks.

Every cut carries an exact leaf mask (a Python int, bit ``i`` set for
leaf variable ``i``): merging two fanin cuts is ``a.mask | b.mask`` plus
``bit_count()``, and ``s`` dominates ``c`` when ``s.mask & ~c.mask == 0``
(checked only against survivors with fewer leaves).

Every kept cut also carries its truth table over its sorted leaves, so
no cone is walked per cut.  A merged cut's table is the AND of its two
fanin cuts' tables, each stretched to the union leaves (replicated, then
its variables swapped into place from the top down) and complemented
per the fanin literal.  One case breaks that rule: a union leaf can lie
strictly inside a fanin cut's cone, where
:func:`~repro.aig.simulate.cone_function` treats it as a free variable
while the merge would compute it from the fanin cut's leaves.  Each cut
therefore also tracks the mask of its cone-interior nodes (root
included, leaves excluded); where the union mask meets either fanin's
interior, the table comes from ``cone_function`` instead.  Every table
thus equals :func:`~repro.aig.simulate.cut_function` of the same cut,
which stays as the reference oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, zip_longest

from repro.aig.network import AIG
from repro.aig.simulate import cone_function
from repro.core import bitops
from repro.core.truth_table import TruthTable

__all__ = ["Cut", "enumerate_cuts", "cut_statistics", "iter_cut_functions"]


@dataclass(frozen=True)
class Cut:
    """An immutable cut: leaf variables, their exact bitmask, its function.

    ``function`` is the cut's truth table over its sorted leaves (leaf
    ``i`` is table variable ``i``) and ``interior`` the mask of the nodes
    strictly inside its cone.  :func:`enumerate_cuts` fills both in; a
    cut built by :meth:`of` or :func:`merge_cuts` has no function.
    Neither takes part in equality: a cut is its leaf set.
    """

    leaves: tuple[int, ...]
    mask: int
    function: int | None = field(default=None, compare=False)
    interior: int = field(default=0, compare=False, repr=False)

    @classmethod
    def of(cls, leaves: tuple[int, ...]) -> "Cut":
        mask = 0
        for leaf in leaves:
            mask |= 1 << leaf
        return cls(leaves, mask)

    @property
    def size(self) -> int:
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's.

        A dominated cut is redundant: any function computable over the
        superset cut is computable over the subset cut.
        """
        return self.mask & ~other.mask == 0


def merge_cuts(a: Cut, b: Cut, k: int) -> Cut | None:
    """Union of two fanin cuts if it stays k-feasible."""
    mask = a.mask | b.mask
    if mask.bit_count() > k:
        return None
    return Cut(_leaves(mask), mask)


def enumerate_cuts(
    aig: AIG, k: int, max_cuts: int = 16, include_trivial: bool = True
) -> dict[int, list[Cut]]:
    """All (priority) k-feasible cuts of every variable, with their tables.

    Args:
        aig: the network.
        k: maximum cut size (the paper sweeps the equivalent of 4..10).
        max_cuts: per-node cap; the kept cuts are the smallest ones
            (classical priority-cut pruning).
        include_trivial: keep the singleton ``{v}`` cut on AND nodes.

    Returns:
        Map from variable index to its cut list.  Inputs own just their
        trivial cut.  Every cut's ``function`` is its truth table.
    """
    if not 1 <= k <= bitops.MAX_VARS:
        raise ValueError(f"cut size must be in 1..{bitops.MAX_VARS}")
    cuts: dict[int, list[Cut]] = {}
    for variable in aig.input_variables():
        cuts[variable] = [_trivial_cut(variable)]
    constant = [_CONSTANT_CUT]
    for variable in aig.and_variables():
        f0, f1 = aig.fanins(variable)
        # First fanin pair per leaf set, in fanin-cut order.
        pairs: dict[int, tuple[Cut, Cut]] = {}
        for cut_a in cuts.get(f0 >> 1, constant):
            for cut_b in cuts.get(f1 >> 1, constant):
                mask = cut_a.mask | cut_b.mask
                if mask.bit_count() <= k and mask not in pairs:
                    pairs[mask] = (cut_a, cut_b)
        kept = [
            _merged(aig, variable, leaves, mask, *pairs[mask], f0 & 1, f1 & 1)
            for leaves, mask in _select(pairs, max_cuts)
        ]
        if include_trivial:
            kept.append(_trivial_cut(variable))
        cuts[variable] = kept
    return cuts


def iter_cut_functions(
    aig: AIG, sizes: Iterable[int], max_cuts: int = 16
) -> Iterator[tuple[int, Cut, TruthTable]]:
    """Stream ``(root, cut, truth table)`` for every cut of a wanted size.

    Every enumerated cut occurrence is yielded — including duplicate
    functions from different nodes — so downstream consumers can count
    honest per-cut hit rates (the library cut-matching experiment) or
    deduplicate themselves (the extraction pipeline's behaviour).
    Deterministic: AND variables in topological order, each node's cut
    list in priority order.  The tables are the ones enumeration
    carries; nothing is cached between calls.  Invalid ``sizes`` raise
    here, at call time, not at first iteration.
    """
    wanted = sorted(set(sizes))
    if not wanted or wanted[0] < 1:
        raise ValueError("cut sizes must be positive")
    return _iter_cut_functions(aig, wanted, max_cuts)


def _iter_cut_functions(aig: AIG, wanted: list[int], max_cuts: int):
    cuts = enumerate_cuts(aig, k=max(wanted), max_cuts=max_cuts)
    wanted_set = set(wanted)
    for variable in aig.and_variables():
        for cut in cuts[variable]:
            if cut.size in wanted_set:
                yield variable, cut, TruthTable(cut.size, cut.function)


def cut_statistics(cuts: dict[int, list[Cut]]) -> dict[int, int]:
    """Histogram of cut sizes over all nodes (bench instrumentation)."""
    histogram: dict[int, int] = {}
    for cut_list in cuts.values():
        for cut in cut_list:
            histogram[cut.size] = histogram.get(cut.size, 0) + 1
    return dict(sorted(histogram.items()))


#: The empty cut owned by the constant node; its table is constant 0.
_CONSTANT_CUT = Cut((), 0, 0)


def _trivial_cut(variable: int) -> Cut:
    """The singleton cut ``{v}``: the projection ``x_0`` over one leaf."""
    return Cut((variable,), 1 << variable, 0b10)


def _leaves(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    leaves = []
    while mask:
        low = mask & -mask
        leaves.append(low.bit_length() - 1)
        mask ^= low
    return tuple(leaves)


def _select(
    pairs: dict[int, tuple[Cut, Cut]], max_cuts: int
) -> list[tuple[tuple[int, ...], int]]:
    """Drop dominated leaf sets; keep ``max_cuts`` diverse ones.

    Each set is checked against the survivors of smaller sizes only (an
    equal-size set can only be dominated by itself), so the check needs
    no order within a size; the survivors of each size are then sorted
    by their leaves.  Selection round-robins across size groups instead
    of keeping only the smallest cuts: the downstream consumer is
    function *extraction*, which needs large cuts as much as small ones.
    Returns ``(leaves, mask)`` pairs in selection order.
    """
    by_size: dict[int, list[int]] = {}
    for mask in pairs:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    groups = []
    smaller: list[int] = []
    for size in sorted(by_size):
        survivors = []
        for mask in by_size[size]:
            for subset in smaller:
                if subset & mask == subset:
                    break
            else:
                survivors.append(mask)
        smaller += survivors
        groups.append(sorted((_leaves(mask), mask) for mask in survivors))
    ranked = (cut for rank in zip_longest(*groups) for cut in rank if cut is not None)
    return list(islice(ranked, max_cuts))


def _merged(
    aig: AIG,
    root: int,
    leaves: tuple[int, ...],
    mask: int,
    cut_a: Cut,
    cut_b: Cut,
    negate_a: int,
    negate_b: int,
) -> Cut:
    """The cut of ``root`` over ``leaves``, from its fanin pair."""
    if (cut_a.interior | cut_b.interior) & mask:
        return _cone_cut(aig, root, leaves, mask)
    table = _stretch(cut_a, leaves, negate_a) & _stretch(cut_b, leaves, negate_b)
    return Cut(leaves, mask, table, cut_a.interior | cut_b.interior | 1 << root)


def _cone_cut(aig: AIG, root: int, leaves: tuple[int, ...], mask: int) -> Cut:
    """A cut whose table the merge cannot give, from the cone walk."""
    interior = 0
    stack = [root]
    while stack:
        variable = stack.pop()
        bit = 1 << variable
        if variable == 0 or (mask | interior) & bit:
            continue
        interior |= bit
        f0, f1 = aig.fanins(variable)
        stack += (f0 >> 1, f1 >> 1)
    table = cone_function(aig, 2 * root, leaves).bits
    return Cut(leaves, mask, table, interior)


def _stretch(cut: Cut, leaves: tuple[int, ...], negate: int) -> int:
    """``cut``'s table over the superset ``leaves``, complemented if asked."""
    table = cut.function
    if cut.leaves != leaves:
        positions = tuple(map(leaves.index, cut.leaves))
        replicate, swaps = _stretch_plan(len(leaves), positions)
        table *= replicate
        for shift, low_side in swaps:
            delta = ((table >> shift) ^ table) & low_side
            table ^= delta ^ (delta << shift)
    return table ^ bitops.table_mask(len(leaves)) if negate else table


@lru_cache(maxsize=1 << 12)
def _stretch_plan(
    n: int, positions: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """How to move an ``m``-variable table onto ``n`` variables.

    Variable ``i`` of the source goes to ``positions[i]`` (ascending).
    Multiplying by the returned repunit copies the table over the
    ``n - m`` new (don't-care) variables; the delta swaps, one per moved
    variable from the top down, then exchange each source variable with
    the don't-care variable sitting at its target position.
    """
    m = len(positions)
    replicate = bitops.table_mask(n) // bitops.table_mask(m)
    swaps = []
    for i in reversed(range(m)):
        j = positions[i]
        if j != i:
            low_side = bitops.var_mask(n, i) & ~bitops.var_mask(n, j)
            swaps.append(((1 << j) - (1 << i), low_side))
    return replicate, tuple(swaps)
