"""Signature-guided *exact* NPN canonicalisation — the paper's future work.

The paper closes with: "Influence and sensitivity still have great
potential to be extended to the traditional method to achieve exact NPN
classification, and we will explore them in the future."  This module is
that extension, realised:

The canonical form is defined as the minimum truth table over all
**key-respecting** transforms — transforms that (a) normalise polarities
from cofactor counts where counts decide, and (b) arrange variables in
non-decreasing order of their face/point keys (influence + cofactor pair
+ per-polarity sensitivity histograms, sharpened by 2-ary cross-cofactor
refinement).  Because the keys are NP-invariant, the key-respecting
transform sets of two NPN-equivalent functions correspond one-to-one, so
the restricted minimum is a *complete and sound* canonical form — exact
classification — while the enumeration space shrinks from
``2^(n+1) * n!`` to the product of residual tie-block factorials times
``2^(#count-balanced variables)``.

A fully symmetric tie block (every pair NE-symmetric) is collapsed to a
single arrangement: any order yields the same table.  For typical cut
functions the whole search degenerates to a handful of candidates, giving
Kitty-exact results at a fraction of Kitty's cost (measured in
``benchmarks/bench_ablation_guided.py``).
"""

from __future__ import annotations

import itertools

from repro.baselines.base import KeyedClassifier, register_classifier
from repro.baselines.matcher import variable_keys
from repro.baselines.refinement import ordering_transform, refine_partition
from repro.core.truth_table import TruthTable

__all__ = ["guided_exact_canonical", "GuidedExactClassifier", "search_space_size"]


def guided_exact_canonical(tt: TruthTable) -> TruthTable:
    """Exact canonical form via face/point-key-restricted enumeration."""
    n = tt.n
    if n == 0:
        return TruthTable(0, 0)
    half = 1 << (n - 1)
    count = tt.count_ones()
    if count < half:
        output_phases = (0,)
    elif count > half:
        output_phases = (1,)
    else:
        output_phases = (0, 1)

    best: TruthTable | None = None
    for output_phase in output_phases:
        base = tt if output_phase == 0 else ~tt
        for candidate in _pn_candidates(base):
            if best is None or candidate < best:
                best = candidate
    return best


def _pn_candidates(base: TruthTable):
    """Yield the key-respecting PN images of ``base`` (output fixed)."""
    n = base.n
    determined_phase = 0
    undecided: list[int] = []
    for i in range(n):
        positive = base.cofactor_count(i, 1)
        negative = base.cofactor_count(i, 0)
        if positive > negative:
            determined_phase |= 1 << i
        elif positive == negative:
            undecided.append(i)
    normalized = base.flip_inputs(determined_phase)

    blocks = refine_partition(
        normalized, initial_keys=list(variable_keys(normalized))
    )
    block_orders = [_block_arrangements(normalized, block) for block in blocks]

    for arrangement in itertools.product(*block_orders):
        order = [v for block in arrangement for v in block]
        for extra in _phase_masks(undecided):
            transform = ordering_transform(
                n, order, determined_phase ^ extra, 0
            )
            yield base.apply(transform)


def _block_arrangements(tt: TruthTable, block: list[int]) -> list[tuple[int, ...]]:
    """Within-block orders to try; collapses fully symmetric blocks."""
    if len(block) <= 1:
        return [tuple(block)]
    symmetric = all(
        tt.has_symmetric_pair(block[a], block[b])
        for a in range(len(block))
        for b in range(a + 1, len(block))
    )
    if symmetric:
        return [tuple(block)]
    return [tuple(p) for p in itertools.permutations(block)]


def _phase_masks(undecided: list[int]):
    """All selective negations over the count-balanced variables."""
    for bits in range(1 << len(undecided)):
        mask = 0
        for position, variable in enumerate(undecided):
            if (bits >> position) & 1:
                mask |= 1 << variable
        yield mask


def search_space_size(tt: TruthTable) -> int:
    """Candidates the guided search enumerates (vs ``2^(n+1) n!`` for Kitty).

    Instrumentation for the ablation bench.
    """
    n = tt.n
    if n == 0:
        return 1
    half = 1 << (n - 1)
    count = tt.count_ones()
    output_phases = 2 if count == half else 1
    total = 0
    for output_phase in range(2):
        if output_phases == 1 and (
            (output_phase == 0) != (count < half)
        ):
            continue
        base = tt if output_phase == 0 else ~tt
        determined = 0
        undecided = 0
        for i in range(n):
            positive = base.cofactor_count(i, 1)
            negative = base.cofactor_count(i, 0)
            if positive > negative:
                determined |= 1 << i
            elif positive == negative:
                undecided += 1
        normalized = base.flip_inputs(determined)
        blocks = refine_partition(
            normalized, initial_keys=list(variable_keys(normalized))
        )
        arrangements = 1
        for block in blocks:
            arrangements *= len(_block_arrangements(normalized, block))
        total += arrangements * (1 << undecided)
    return total


@register_classifier
class GuidedExactClassifier(KeyedClassifier):
    """Exact classifier keyed by the guided canonical form.

    Same exactness as ``kitty``; the per-function cost adapts to the
    function's signature structure instead of always paying ``2^n * n!``.
    """

    name = "guided"

    def key(self, tt: TruthTable):
        return tt.n, guided_exact_canonical(tt).bits
