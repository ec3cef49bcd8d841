"""Ordered signature vectors (paper Section III, Definitions 6-10).

Each vector is a *sorted multiset* of raw characteristics, making it
invariant under input permutation and (where proved in the paper's
Theorems 1-4) input/output negation:

* ``OCV_l`` — ordered l-ary cofactor vector (face characteristics),
* ``OIV``   — ordered influence vector (point-face characteristics),
* ``OSV``, ``OSV0``, ``OSV1`` — ordered (0-/1-)sensitivity vectors,
* ``OSDV``, ``OSDV0``, ``OSDV1`` — ordered sensitivity *distance* vectors:
  for each local-sensitivity level, the histogram over Hamming distances
  of word pairs sharing that level.

Sorted multisets over the bounded domain ``0..n`` are stored two ways: the
verbatim sorted tuple (``osv`` — matches the paper's tables) and the
equivalent fixed-length histogram (``osv_histogram`` — what the classifier
hashes).  Both carry identical information; tests assert the equivalence.

OSDV pair counting delegates to the Walsh-Hadamard XOR auto-correlation in
:mod:`repro.spectral.walsh`, turning the naive ``O(4^n)`` pair scan into
``O(2^n * n)`` per sensitivity level.
"""

from __future__ import annotations

import numpy as np

from repro.core import characteristics as chars
from repro.core.truth_table import TruthTable
from repro.spectral.walsh import pair_distance_histogram

__all__ = [
    "ocv",
    "ocv1",
    "ocv2",
    "oiv",
    "osv",
    "osv0",
    "osv1",
    "osv_histogram",
    "osdv",
    "osdv0",
    "osdv1",
    "sensitivity_buckets",
]


# ----------------------------------------------------------------------
# Ordered cofactor vectors (Definition 6)
# ----------------------------------------------------------------------


def ocv(tt: TruthTable, ell: int) -> tuple[int, ...]:
    """The l-ary ordered cofactor vector ``OCV_l`` (sorted, length C(n,l)*2^l)."""
    return tuple(sorted(chars.cofactor_counts(tt, ell)))


def ocv1(tt: TruthTable) -> tuple[int, ...]:
    """``OCV_1`` — sorted 1-ary cofactor counts (length 2n)."""
    return tuple(sorted(chars.cofactor_counts_1ary(tt)))


def ocv2(tt: TruthTable) -> tuple[int, ...]:
    """``OCV_2`` — sorted 2-ary cofactor counts (length 2n(n-1))."""
    return ocv(tt, 2)


# ----------------------------------------------------------------------
# Ordered influence vector (Definition 7)
# ----------------------------------------------------------------------


def oiv(tt: TruthTable) -> tuple[int, ...]:
    """``OIV`` — sorted integer influences (length n, Theorem 1 invariant)."""
    return tuple(sorted(chars.influences(tt)))


# ----------------------------------------------------------------------
# Ordered sensitivity vectors (Definition 8)
# ----------------------------------------------------------------------


def osv(tt: TruthTable) -> tuple[int, ...]:
    """``OSV`` — sorted local sensitivities of all ``2^n`` words."""
    return tuple(sorted(int(s) for s in chars.sensitivity_profile(tt)))


def osv1(tt: TruthTable) -> tuple[int, ...]:
    """``OSV1`` — sorted local sensitivities of the 1-words (length ``|f|``)."""
    profile = chars.sensitivity_profile(tt)
    ones = tt.bit_array().astype(bool)
    return tuple(sorted(int(s) for s in profile[ones]))


def osv0(tt: TruthTable) -> tuple[int, ...]:
    """``OSV0`` — sorted local sensitivities of the 0-words."""
    profile = chars.sensitivity_profile(tt)
    ones = tt.bit_array().astype(bool)
    return tuple(sorted(int(s) for s in profile[~ones]))


def osv_histogram(tt: TruthTable) -> tuple[int, ...]:
    """Histogram form of ``OSV``: entry ``s`` counts words with ``sen = s``."""
    profile = chars.sensitivity_profile(tt)
    return tuple(np.bincount(profile, minlength=tt.n + 1).tolist())


# ----------------------------------------------------------------------
# Ordered sensitivity distance vectors (Definitions 9-10)
# ----------------------------------------------------------------------


def sensitivity_buckets(
    tt: TruthTable, value: int | None = None
) -> list[np.ndarray]:
    """Indicator vectors of words grouped by local sensitivity level.

    Entry ``s`` marks the words with ``sen(f, X) = s`` — restricted to
    words with ``f(X) = value`` when ``value`` is 0 or 1.
    """
    profile = chars.sensitivity_profile(tt)
    buckets = []
    if value is None:
        keep = np.ones(1 << tt.n, dtype=bool)
    else:
        keep = tt.bit_array().astype(bool)
        if value == 0:
            keep = ~keep
    for level in range(tt.n + 1):
        buckets.append(((profile == level) & keep).astype(np.int64))
    return buckets


def _osdv_from_buckets(buckets: list[np.ndarray], n: int) -> tuple[int, ...]:
    """Flatten Definition 10: ``(sigma_0, ..., sigma_n)`` row-major.

    ``sigma_s = (delta_s1, ..., delta_sn)`` where ``delta_sj`` counts the
    unordered word pairs with common sensitivity ``s`` at Hamming distance
    ``j``.  Empty or singleton buckets contribute all-zero rows.
    """
    rows = []
    for indicator in buckets:
        if int(indicator.sum()) < 2:
            rows.extend([0] * n)
            continue
        histogram = pair_distance_histogram(indicator, n)
        rows.extend(int(c) for c in histogram[1:])
    return tuple(rows)


def osdv(tt: TruthTable) -> tuple[int, ...]:
    """``OSDV`` over all words — flattened, length ``n * (n + 1)``."""
    return _osdv_from_buckets(sensitivity_buckets(tt, None), tt.n)


def osdv1(tt: TruthTable) -> tuple[int, ...]:
    """``OSDV1`` — restricted to 1-words."""
    return _osdv_from_buckets(sensitivity_buckets(tt, 1), tt.n)


def osdv0(tt: TruthTable) -> tuple[int, ...]:
    """``OSDV0`` — restricted to 0-words."""
    return _osdv_from_buckets(sensitivity_buckets(tt, 0), tt.n)
