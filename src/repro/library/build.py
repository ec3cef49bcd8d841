"""Building class libraries from classification results and corpora.

Every class representative is the *exact orbit minimum* at every arity —
computed by one :func:`repro.canonical.form.canonical_forms` call over
the first member of every group, whatever their arities.  The class id is a pure function of the orbit
(``n{n}-c{hex}``), so two independently built libraries mint identical
ids for the same orbit.

Builders accept a ready grouping — a
:class:`~repro.core.classifier.ClassificationResult` of a signature
engine or the :class:`~repro.baselines.base.GroupingResult` of
:class:`~repro.baselines.exact.ExactClassifier` — and every group
becomes one class.  The per-function and batched engines produce
byte-identical buckets, so they build the same library.  The exact
classifier can build more classes above ``n = 4``: a signature bucket
may hold more than one NPN orbit (the n=5 functions ``0x3de88452`` and
``0x83161d9a`` share an MSV), which the signature engines keep as one
class and the exact classifier splits into one class per orbit.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.baselines.base import GroupingResult
from repro.baselines.exact import ExactClassifier
from repro.canonical.form import canonical_forms
from repro.core.classifier import ClassificationResult
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier
from repro.kernels import canonical_min  # noqa: F401 - a perfbench span target
from repro.library.store import ClassLibrary
from repro.workloads.library_corpus import exhaustive_tables

__all__ = [
    "build_library",
    "library_from_result",
    "build_exhaustive_library",
]


def library_from_result(
    result: ClassificationResult | GroupingResult,
) -> ClassLibrary:
    """Build a library from any classifier's groups.

    Every group becomes one class, named by the canonical form of its
    first member — all canonicalized in one batch.
    """
    library = ClassLibrary()
    groups = list(result.groups.values())
    forms = canonical_forms([members[0] for members in groups])
    for form, members in zip(forms, groups):
        library.add_class(form, size=len(members), canonical_rep=True)
    return library


def build_library(
    tables: Iterable[TruthTable], exact: bool = False
) -> ClassLibrary:
    """Classify ``tables`` and build a library.

    By default every signature bucket of the batched engine is one
    class.  ``exact=True`` classifies with
    :class:`~repro.baselines.exact.ExactClassifier` instead, so a
    bucket holding two NPN orbits becomes two classes.
    """
    classifier = ExactClassifier() if exact else BatchedClassifier()
    return library_from_result(classifier.classify(list(tables)))


def build_exhaustive_library(n: int) -> ClassLibrary:
    """Library over *all* ``2^(2^n)`` functions of ``n`` variables (n <= 4).

    The complete class inventory of the arity; at n = 4 this is the
    classical 222 NPN classes.  The MSV is exact up to n = 4, so the
    signature buckets already are the classes.
    """
    return build_library(exhaustive_tables(n))
