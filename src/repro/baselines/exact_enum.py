"""Exhaustive exact NPN canonicalisation — the "Kitty" baseline of Table III.

The canonical form of a function is the lexicographically smallest truth
table over its entire NPN orbit (all ``2^(n+1) * n!`` transformations).
Enumeration uses one elementary table operation per step:

* permutations via Heap's algorithm (one variable swap per step),
* input phases via the reflected Gray code (one variable flip per step),
* both output polarities.

This is the same strategy as Kitty's ``exact_npn_canonization``.  Exact by
construction, and — like the paper reports for Kitty — impractically slow
beyond n = 6; larger instances go through
:class:`repro.baselines.exact.ExactClassifier` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import KeyedClassifier, register_classifier
from repro.core import bitops
from repro.core.transforms import NPNTransform, all_transforms
from repro.core.truth_table import TruthTable

__all__ = [
    "CanonicalForm",
    "exact_npn_canonical",
    "exact_npn_canonical_reference",
    "ExactEnumerationClassifier",
]


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative plus a transform that reaches it."""

    representative: TruthTable
    transform: NPNTransform

    def verify(self, original: TruthTable) -> bool:
        """Check ``transform(original) == representative``."""
        return original.apply(self.transform) == self.representative


def exact_npn_canonical(tt: TruthTable) -> CanonicalForm:
    """Minimum truth table over the NPN orbit, with a witnessing transform."""
    n = tt.n
    if n == 0:
        # Orbit of a constant is {f, ~f}; the representative is constant 0.
        rep = TruthTable(0, 0)
        return CanonicalForm(rep, NPNTransform((), 0, tt.bits & 1))
    best_bits = None
    best_state = None  # (output_phase, perm tuple, gray mask)
    for output_phase in (0, 1):
        base = tt.bits if output_phase == 0 else bitops.flip_output(tt.bits, n)
        for perm, permuted in _heap_permutations(base, n):
            candidate = permuted
            gray = 0
            step = 0
            while True:
                if best_bits is None or candidate < best_bits:
                    best_bits = candidate
                    # `perm` is Heap's live list — snapshot it.
                    best_state = (output_phase, tuple(perm), gray)
                step += 1
                if step == 1 << n:
                    break
                var = (step & -step).bit_length() - 1
                candidate = bitops.flip_input(candidate, n, var)
                gray ^= 1 << var
    output_phase, perm, gray = best_state
    # candidate = flip_inputs(permute(base, perm), gray) corresponds to
    # input phase p_i = gray bit at perm[i] (flips applied after permuting).
    input_phase = 0
    for i in range(n):
        input_phase |= ((gray >> perm[i]) & 1) << i
    transform = NPNTransform(tuple(perm), input_phase, output_phase)
    return CanonicalForm(TruthTable(n, best_bits), transform)


def exact_npn_canonical_reference(tt: TruthTable) -> TruthTable:
    """O(2^(n+1) n! * 2^n) brute-force oracle for tiny ``n``."""
    return min(tt.apply(t) for t in all_transforms(tt.n))


def _heap_permutations(table: int, n: int):
    """Yield ``(perm, permuted_table)`` for all n! permutations.

    Heap's algorithm swaps one pair of array entries between consecutive
    permutations; the table is updated with the matching variable swap, so
    the invariant ``permuted_table == permute_inputs(table, perm)`` holds
    throughout (swapping values u, v in the array composes the value
    transposition on the left of the effective permutation).
    """
    perm = list(range(n))
    current = table
    yield perm, current
    counters = [0] * n
    i = 1
    while i < n:
        if counters[i] < i:
            j = counters[i] if i % 2 else 0
            current = bitops.swap_inputs(current, n, perm[i], perm[j])
            perm[i], perm[j] = perm[j], perm[i]
            yield perm, current
            counters[i] += 1
            i = 1
        else:
            counters[i] = 0
            i += 1


@register_classifier
class ExactEnumerationClassifier(KeyedClassifier):
    """Exact classifier keyed by the exhaustive canonical form.

    The analogue of the paper's Kitty column: exact classification with a
    per-function cost of ``O(2^n * n!)`` table operations.
    """

    name = "kitty"

    def key(self, tt: TruthTable):
        return tt.n, exact_npn_canonical(tt).representative.bits
