"""k-feasible priority-cut enumeration — the paper's truth-table front end.

A *cut* of node ``v`` is a set of variables (leaves) such that every path
from ``v`` to the primary inputs passes through a leaf; it is k-feasible
when it has at most ``k`` leaves.  Bottom-up enumeration merges the cut
sets of the two fanins, filters oversized and dominated cuts, and keeps at
most ``max_cuts`` per node (priority cuts) so the enumeration stays
polynomial on large networks — the standard scheme from cut-based FPGA
mapping, which is also how the paper extracts Boolean functions from the
EPFL benchmarks.

Phase 1 picks the leaf sets on plain int masks and builds no table.  Bit
``top - v`` stands for variable ``v`` (``top`` the largest index), so the
descending order of equal-size masks is the ascending order of their
sorted leaves.  Phase 2 computes every kept cut's table in one
level-synchronous numpy simulation per circuit: a cut is a column of
``uint64`` words (``2^(n-6)`` for an ``n``-leaf cut with ``n > 6``), each
level's AND nodes are one gather, and each leaf is then overwritten with
its projection word at its own level.  A leaf inside another leaf's cone
thus stays a free variable, as in :func:`~repro.aig.simulate.cone_function`,
so every table equals :func:`~repro.aig.simulate.cut_function`, which
stays as the reference oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice, zip_longest
from typing import NamedTuple

import numpy as np

from repro.aig.network import AIG
from repro.core import bitops
from repro.core.truth_table import TruthTable

__all__ = [
    "Cut", "CutArrays", "cut_arrays", "enumerate_cuts", "cut_statistics",
    "iter_cut_functions",
]

#: Word budget of one simulation block's value matrix (``rows x columns x
#: words``); a block holds as many cut columns as fit, and at least one.
_BLOCK_WORDS = 1 << 16


@dataclass(frozen=True)
class Cut:
    """An immutable cut: leaf variables and its function.

    ``function`` is the cut's truth table over its sorted leaves (leaf
    ``i`` is table variable ``i``).  :func:`enumerate_cuts` fills it in;
    a cut built from its leaves alone has none.  It takes no part in
    equality: a cut is its leaf set.
    """

    leaves: tuple[int, ...]
    function: int | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.leaves)


class CutArrays(NamedTuple):
    """Kept cuts of a network's AND nodes, one row each, in enumeration
    order: AND variables topologically, each node's cuts in priority
    order, its trivial cut last.  ``tables[i]`` is cut ``i``'s table over
    its sorted ``leaves[i]`` as little-endian ``uint64`` words (one, or
    ``2^(k-6)`` for ``k > 6``), zero beyond its ``2^sizes[i]`` bits."""

    roots: np.ndarray
    sizes: np.ndarray
    leaves: list[tuple[int, ...]]
    tables: np.ndarray

    def functions(self) -> list[int]:
        """Every row's table as one Python int."""
        if self.tables.shape[1] == 1:
            return self.tables[:, 0].tolist()
        return [int.from_bytes(row.tobytes(), "little") for row in self.tables]


def cut_arrays(
    aig: AIG, sizes: Iterable[int], max_cuts: int = 16, include_trivial: bool = True
) -> CutArrays:
    """The priority cuts of the wanted ``sizes``, with their tables.

    Args:
        aig: the network.
        sizes: leaf counts to return; the largest is the cut size ``k``
            (the paper sweeps the equivalent of 4..10), and selection
            sees every size up to it.
        max_cuts: per-node cap; the kept cuts are the smallest ones
            (classical priority-cut pruning).
        include_trivial: keep the singleton ``{v}`` cut on AND nodes.
    """
    wanted = set(sizes)
    if not wanted or min(wanted) < 1:
        raise ValueError("cut sizes must be positive")
    if max(wanted) > bitops.MAX_VARS:
        raise ValueError(f"cut size must be in 1..{bitops.MAX_VARS}")
    fanins = [aig.fanins(variable) for variable in aig.and_variables()]
    top = aig.num_vars - 1
    roots: list[int] = []
    leaves: list[tuple[int, ...]] = []
    for root, masks in zip(
        aig.and_variables(),
        _priority_masks(aig, fanins, max(wanted), max_cuts, include_trivial),
    ):
        masks = [mask for mask in masks if mask.bit_count() in wanted]
        roots += [root] * len(masks)
        leaves += [_leaves(mask, top) for mask in masks]
    root_array = np.array(roots, dtype=np.int64)
    size_array = np.fromiter(map(len, leaves), dtype=np.int64, count=len(leaves))
    tables = _simulate(aig, fanins, root_array, size_array, leaves, max(wanted))
    return CutArrays(root_array, size_array, leaves, tables)


def enumerate_cuts(
    aig: AIG, k: int, max_cuts: int = 16, include_trivial: bool = True
) -> dict[int, list[Cut]]:
    """All (priority) k-feasible cuts of every variable, with their tables.

    Arguments as for :func:`cut_arrays` with ``sizes = 1..k``.

    Returns:
        Map from variable index to its cut list.  Inputs own just their
        trivial cut.  Every cut's ``function`` is its truth table.
    """
    arrays = cut_arrays(aig, range(1, k + 1), max_cuts, include_trivial)
    cuts = {v: [Cut((v,), 0b10)] for v in aig.input_variables()}
    cuts.update((v, []) for v in aig.and_variables())
    for root, leaves, function in zip(
        arrays.roots.tolist(), arrays.leaves, arrays.functions()
    ):
        cuts[root].append(Cut(leaves, function))
    return cuts


def iter_cut_functions(
    aig: AIG, sizes: Iterable[int], max_cuts: int = 16
) -> Iterator[tuple[int, Cut, TruthTable]]:
    """Stream ``(root, cut, truth table)`` for every cut of a wanted size.

    Every enumerated cut occurrence is yielded — including duplicate
    functions from different nodes — so downstream consumers can count
    honest per-cut hit rates or deduplicate themselves (the extraction
    pipeline's behaviour).  Deterministic: AND variables in topological
    order, each node's cut list in priority order.  The cuts are
    enumerated at call time, so invalid ``sizes`` raise here; nothing is
    cached between calls.
    """
    arrays = cut_arrays(aig, sizes, max_cuts)
    return (
        (root, Cut(leaves, function), TruthTable(len(leaves), function))
        for root, leaves, function in zip(
            arrays.roots.tolist(), arrays.leaves, arrays.functions()
        )
    )


def cut_statistics(cuts: dict[int, list[Cut]]) -> dict[int, int]:
    """Histogram of cut sizes over all nodes (bench instrumentation)."""
    histogram: dict[int, int] = {}
    for cut_list in cuts.values():
        for cut in cut_list:
            histogram[cut.size] = histogram.get(cut.size, 0) + 1
    return dict(sorted(histogram.items()))


def _priority_masks(
    aig: AIG, fanins: list, k: int, max_cuts: int, include_trivial: bool
) -> list[list[int]]:
    """Phase 1: every AND node's kept leaf sets, as masks."""
    top = aig.num_vars - 1
    # Indexed by variable.  An AND node never has a constant fanin.
    masks: list[list[int]] = [[]]
    masks += ([1 << (top - variable)] for variable in aig.input_variables())
    for variable, (f0, f1) in zip(aig.and_variables(), fanins):
        by_size: dict[int, list[int]] = {}
        for mask in {a | b for a in masks[f0 >> 1] for b in masks[f1 >> 1]}:
            size = mask.bit_count()
            if size <= k:
                by_size.setdefault(size, []).append(mask)
        kept = _select(by_size, max_cuts)
        if include_trivial:
            kept.append(1 << (top - variable))
        masks.append(kept)
    return masks[aig.num_inputs + 1 :]


def _select(by_size: dict[int, list[int]], max_cuts: int) -> list[int]:
    """Drop dominated leaf sets; keep ``max_cuts`` diverse ones.

    Each set is checked against the survivors of smaller sizes only (an
    equal-size set can only be dominated by itself), so the check needs
    no order within a size; the survivors of each size are then sorted
    by their leaves (descending masks).  Selection round-robins across
    size groups instead of keeping only the smallest cuts: the
    downstream consumer is function *extraction*, which needs large cuts
    as much as small ones.  Returns the masks in selection order.
    """
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
        groups.append(sorted(survivors, reverse=True))
    ranked = (m for rank in zip_longest(*groups) for m in rank if m is not None)
    return list(islice(ranked, max_cuts))


def _leaves(mask: int, top: int) -> tuple[int, ...]:
    """The variables of a phase-1 mask, ascending."""
    leaves = []
    while mask:
        high = mask.bit_length() - 1
        leaves.append(top - high)
        mask ^= 1 << high
    return tuple(leaves)


#: Table mask of an ``n``-leaf cut below six leaves, and the XOR word of a
#: fanin literal's complement bit.
_SHORT_MASKS = np.array([bitops.table_mask(n) for n in range(6)], dtype=np.uint64)
_NEGATE = np.array([0, bitops.table_mask(6)], dtype=np.uint64)


def _simulate(
    aig: AIG, fanins: list, roots: np.ndarray, sizes: np.ndarray, leaves: list, k: int
) -> np.ndarray:
    """Phase 2: every cut's table, one row of ``2^max(0, k-6)`` words.

    Cuts with equal word counts run together, in blocks of columns.
    """
    tables = np.zeros((len(roots), 1 << max(0, k - 6)), dtype=np.uint64)
    flat = np.fromiter(chain.from_iterable(leaves), np.int64, int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    entry_cut = np.repeat(np.arange(len(roots)), sizes)
    entry_position = np.arange(len(flat)) - starts[entry_cut]
    net = _Netlist(aig, fanins)
    words = np.left_shift(1, np.maximum(sizes - 6, 0))
    # A set, not np.unique: np.unique imports numpy.ma (about 1 MiB).
    for width in sorted(set(words.tolist())):
        columns = np.flatnonzero(words == width)
        projections = _projections(width)
        for block in _blocks(roots[columns], flat[starts[columns]], width):
            cols = columns[block]
            column_of = np.full(len(roots), -1)
            column_of[cols] = np.arange(len(cols))
            entry_column = column_of[entry_cut]
            entries = entry_column >= 0
            tables[cols, :width] = _simulate_block(
                net,
                roots[cols],
                flat[entries],
                entry_column[entries],
                projections[entry_position[entries]],
            )
    short = sizes < 6
    tables[short, 0] &= _SHORT_MASKS[sizes[short]]
    return tables


def _projections(width: int) -> np.ndarray:
    """Row ``i`` is the projection ``x_i`` as ``width`` words."""
    n = 5 + width.bit_length()
    return np.array([bitops.to_words(bitops.var_mask(n, i), n) for i in range(n)])


def _blocks(roots: np.ndarray, first: np.ndarray, width: int) -> Iterator[slice]:
    """Consecutive column slices whose value matrix fits the word budget:
    a block has a row per variable from its smallest first leaf to its
    largest root, plus a zero row."""
    start, count = 0, len(roots)
    while start < count:
        span = min(count - start, max(1, _BLOCK_WORDS // (2 * width)))
        low = np.minimum.accumulate(first[start : start + span])
        high = np.maximum.accumulate(roots[start : start + span])
        cost = (high - low + 2) * np.arange(1, span + 1) * width
        end = start + max(1, int(np.searchsorted(cost, _BLOCK_WORDS, "right")))
        yield slice(start, end)
        start = end


class _Netlist:
    """The network as arrays: levels, fanin variables, negation words."""

    def __init__(self, aig: AIG, fanins: list):
        level = [0] * (aig.num_inputs + 1)
        for f0, f1 in fanins:
            level.append(1 + max(level[f0 >> 1], level[f1 >> 1]))
        self.level = np.array(level, dtype=np.int64)
        self.by_level = np.argsort(self.level, kind="stable")
        literals = np.zeros((aig.num_vars, 2), dtype=np.int64)
        literals[aig.num_inputs + 1 :] = np.reshape(fanins, (-1, 2))
        self.fanin = literals >> 1
        self.negate = _NEGATE[literals & 1][:, :, None, None]


def _simulate_block(
    net: _Netlist,
    roots: np.ndarray,
    leaf: np.ndarray,
    column: np.ndarray,
    word: np.ndarray,
) -> np.ndarray:
    """The root words of one block; ``leaf[i]`` of column ``column[i]``
    takes the projection ``word[i]``.

    Rows run over the variables from the smallest leaf to the largest
    root in level order, so each level's AND nodes are one slice.  The
    last row stays zero and stands in for every fanin below the smallest
    leaf, which no cut of the block reaches.
    """
    variables = net.by_level
    level = net.level[variables]
    keep = (variables >= leaf.min()) & (variables <= roots.max())
    keep &= level <= net.level[roots].max()
    variables, level = variables[keep], level[keep]
    row_of = np.full(len(net.level), len(variables))
    row_of[variables] = np.arange(len(variables))
    values = np.zeros((len(variables) + 1, len(roots), word.shape[1]), dtype=np.uint64)
    fanin_row = row_of[net.fanin[variables]]
    negate = net.negate[variables]
    order = np.argsort(net.level[leaf], kind="stable")
    leaf, column, word = leaf[order], column[order], word[order]
    leaf_row = row_of[leaf]
    levels = np.arange(int(level[-1]) + 2)
    row_at = np.searchsorted(level, levels).tolist()
    leaf_at = np.searchsorted(net.level[leaf], levels).tolist()
    for lv in range(len(levels) - 1):
        s, e = row_at[lv], row_at[lv + 1]
        if lv and e > s:
            pair = values[fanin_row[s:e]]
            pair ^= negate[s:e]
            np.bitwise_and(pair[:, 0], pair[:, 1], out=values[s:e])
        a, b = leaf_at[lv], leaf_at[lv + 1]
        if b > a:
            values[leaf_row[a:b], column[a:b]] = word[a:b]
    return values[row_of[roots], np.arange(len(roots))]
