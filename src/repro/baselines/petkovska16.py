"""Petkovska et al., FPL'16 — the ``testnpn -7`` baseline of Table III.

"Fast hierarchical NPN classification" layers increasingly expensive
canonicalisation steps, stopping as soon as the form is unique:

1. polarity normalisation from 1-ary cofactor counts (as Huang'13);
2. variable ordering by iterated partition refinement with 2-ary
   cross-cofactor keys (:func:`repro.baselines.refinement.refine_partition`);
3. *bounded* enumeration inside the residual tie blocks: if the number of
   block-local permutations (times output polarities for balanced
   functions) stays within a budget, the lexicographically smallest table
   wins; otherwise the tie is left in index order.

The budget is what separates this method from exact classification: most
functions canonicalise perfectly, highly symmetric ones occasionally
split — a small overcount (the paper measures 1752 vs 1673 exact classes
at n = 6) at moderate runtime.
"""

from __future__ import annotations

import itertools
from math import factorial

from repro.baselines.base import KeyedClassifier, register_classifier
from repro.baselines.refinement import (
    ordering_transform,
    phase_normalize,
    refine_partition,
)
from repro.core.truth_table import TruthTable

__all__ = ["petkovska_canonical", "Petkovska16Classifier"]

#: Maximum number of candidate orders explored inside tie blocks.
DEFAULT_BUDGET = 48


def petkovska_canonical(tt: TruthTable, budget: int = DEFAULT_BUDGET) -> TruthTable:
    """Hierarchical canonical form with a bounded tie-enumeration budget."""
    n = tt.n
    if n == 0:
        return TruthTable(0, 0)
    normalized, output_phase, input_phase = phase_normalize(tt)
    blocks = refine_partition(normalized)

    combinations = 1
    for block in blocks:
        combinations *= factorial(len(block))
    polarities = (0, 1) if tt.is_balanced else (0,)
    total = combinations * len(polarities)

    if total <= 1:
        order = [v for block in blocks for v in block]
        transform = ordering_transform(n, order, input_phase, output_phase)
        return tt.apply(transform)

    if total > budget:
        # Over budget: refine what we can, leave residual ties in index
        # order — the hierarchical method's deliberate inexactness.
        order = [v for block in blocks for v in block]
        transform = ordering_transform(n, order, input_phase, output_phase)
        return tt.apply(transform)

    best = None
    for polarity in polarities:
        base = tt if polarity == 0 else ~tt
        base_norm, base_out, base_in = phase_normalize(base)
        base_blocks = refine_partition(base_norm)
        for arrangement in itertools.product(
            *(itertools.permutations(block) for block in base_blocks)
        ):
            order = [v for block in arrangement for v in block]
            transform = ordering_transform(n, order, base_in, base_out)
            candidate = base.apply(transform)
            if best is None or candidate < best:
                best = candidate
    return best


@register_classifier
class Petkovska16Classifier(KeyedClassifier):
    """Classifier keyed by the hierarchical canonical form."""

    name = "petkovska16"

    def __init__(self, budget: int = DEFAULT_BUDGET) -> None:
        self.budget = budget

    def key(self, tt: TruthTable):
        return tt.n, petkovska_canonical(tt, self.budget).bits
