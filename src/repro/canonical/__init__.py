"""Influence-aided exact NPN canonical forms (arXiv 2308.12311 direction).

The package pairs the source paper's face/point signatures with a true
canonical form:

* :mod:`repro.canonical.influence` — per-variable influence vectors and
  the influence-sorted candidate permutation order that finds a strong
  incumbent early;
* :mod:`repro.canonical.form` — the exact canonicalizer: ``canonical_min``
  gather kernels for ``n <= 6``, an influence-ordered, incumbent-bounded
  scalar search above, and the ``n{n}-c{hex}`` class-id scheme.

Exact *classification* is :class:`repro.baselines.exact.ExactClassifier`
(signature buckets, matcher inside each bucket); a class library then
names each class by the canonical form of its first member.
"""

from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    influence_canonical_scalar,
)
from repro.canonical.influence import candidate_permutations, influence_vector

__all__ = [
    "canonical_class_id",
    "canonical_form",
    "canonical_forms",
    "candidate_permutations",
    "influence_canonical_scalar",
    "influence_vector",
]
