"""Huang et al., FPT'13 — the ``testnpn -6`` baseline of Table III.

"Fast Boolean matching based on NPN classification" computes a canonical
form in a single linear pass over 1-ary cofactor counts:

1. complement the output if ones are the majority,
2. complement every input whose positive cofactor outweighs the negative,
3. sort variables by their (normalised) positive-cofactor count, breaking
   ties by original index.

No tie is ever resolved semantically, so NPN-equivalent functions with
balanced outputs, balanced variables or equal cofactor counts frequently
receive different "canonical" forms — the method is ultra fast but splits
classes heavily (the paper measures 251 claimed classes against 49 exact
ones at n = 4).  Our reconstruction keeps exactly that character.
"""

from __future__ import annotations

from repro.baselines.base import KeyedClassifier, register_classifier
from repro.baselines.refinement import ordering_transform, phase_normalize
from repro.core.truth_table import TruthTable

__all__ = ["huang_canonical", "Huang13Classifier"]


def huang_canonical(tt: TruthTable) -> TruthTable:
    """Single-pass heuristic canonical form (see module docstring)."""
    n = tt.n
    if n == 0:
        return TruthTable(0, 0)
    normalized, output_phase, input_phase = phase_normalize(tt)
    counts = [normalized.cofactor_count(i, 1) for i in range(n)]
    order = sorted(range(n), key=lambda i: (counts[i], i))
    transform = ordering_transform(n, order, input_phase, output_phase)
    return tt.apply(transform)


@register_classifier
class Huang13Classifier(KeyedClassifier):
    """Classifier keyed by the Huang'13 heuristic canonical form."""

    name = "huang13"

    def key(self, tt: TruthTable):
        return tt.n, huang_canonical(tt).bits
