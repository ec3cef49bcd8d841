"""Influence-aided exact NPN canonical forms (arXiv 2308.12311 direction).

The package pairs the source paper's face/point signatures with a true
canonical form:

* :mod:`repro.canonical.influence` — per-variable influence vectors and
  the influence-sorted candidate permutation order that finds a strong
  incumbent early;
* :mod:`repro.canonical.form` — the one exact canonicalizer and the
  ``n{n}-c{hex}`` class-id scheme.  It alone chooses how a form is
  computed (``canonical_min`` gather kernels for ``n <= 6``, one call
  per arity; an influence-ordered, incumbent-bounded scalar search
  above) and takes batches of mixed arity.  Every form comes with the
  transform reaching it when asked, at every arity.

Exact *classification* is :class:`repro.baselines.exact.ExactClassifier`
(signature buckets, matcher inside each bucket); a class library then
names each class by the canonical form of its first member.
"""

from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    canonical_forms_with_transforms,
    influence_canonical_scalar,
)
from repro.canonical.influence import candidate_permutations, influence_vector

__all__ = [
    "canonical_class_id",
    "canonical_form",
    "canonical_forms",
    "canonical_forms_with_transforms",
    "candidate_permutations",
    "influence_canonical_scalar",
    "influence_vector",
]
