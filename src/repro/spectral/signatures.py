"""Spectral (Walsh) signatures for Boolean matching.

The paper's related-work section cites Walsh spectra [7] as one of the
classical signature families.  We implement them as an additional, optional
discriminator so the ablation benches can compare the paper's face/point
signatures against the spectral alternative.

NPN invariance: under input negation the Walsh coefficients only change
sign; under input permutation they are permuted within each index-weight
class; under output negation the whole spectrum changes sign.  Hence the
sorted multiset of absolute coefficients is an NPN invariant.
"""

from __future__ import annotations

from repro.core.truth_table import TruthTable
from repro.spectral.walsh import walsh_spectrum

__all__ = ["spectral_signature"]


def spectral_signature(tt: TruthTable) -> tuple[int, ...]:
    """Sorted multiset of absolute Walsh coefficients (NPN invariant)."""
    spectrum = walsh_spectrum(tt.bits, tt.n)
    return tuple(sorted(int(abs(c)) for c in spectrum))
