"""Building class libraries from classification results and corpora.

Every class representative is the *exact orbit minimum* at every arity —
computed through the batched :func:`repro.canonical.form.canonical_forms`
path (``canonical_min`` gather kernels for ``n <= 6``, the
influence-guided scalar search above), one call per arity over the first
member of every bucket.  The class id is a pure function of the orbit
(``n{n}-c{hex}``), so two independently built libraries mint identical
ids for the same orbit.  Results from the
:class:`~repro.canonical.engine.CanonicalClassifier` already carry
canonical representatives as their group keys; those are reused without
recomputation.

Builders accept a ready :class:`~repro.core.classifier.ClassificationResult`
from any engine, and every bucket becomes one class.  The per-function
and batched engines produce byte-identical buckets, so they build the
same library.  The canonical engine can build more classes above
``n = 4``: a signature bucket may hold more than one NPN orbit (the
n=5 functions ``0x3de88452`` and ``0x83161d9a`` share an MSV), which
the signature engines keep as one class and the canonical engine
splits into one class per orbit.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.canonical.form import canonical_forms
from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS
from repro.core.truth_table import TruthTable
from repro.kernels import canonical_min  # noqa: F401 - a perfbench span target
from repro.library.store import ClassLibrary
from repro.workloads.library_corpus import exhaustive_tables

__all__ = [
    "build_library",
    "library_from_result",
    "build_exhaustive_library",
]


def library_from_result(result: ClassificationResult) -> ClassLibrary:
    """Build a library from any engine's classification result.

    Every bucket becomes one class.  Each bucket's first member is
    canonicalized — batched per arity — unless the result already
    carries canonical keys (the canonical engine), which are trusted
    as-is.
    """
    library = ClassLibrary(result.parts)
    buckets = list(result.groups.values())
    keys = list(result.groups.keys())
    reps: dict[int, TruthTable] = {}
    pending_by_n: dict[int, list[int]] = {}
    for index, key in enumerate(keys):
        table = getattr(key, "table", None)
        if isinstance(table, TruthTable):
            # CanonicalClass keys *are* the exact representatives.
            reps[index] = table
        else:
            first = buckets[index][0]
            pending_by_n.setdefault(first.n, []).append(index)
    for n, bucket_indices in pending_by_n.items():
        forms = canonical_forms([buckets[i][0] for i in bucket_indices], n)
        for i, rep in zip(bucket_indices, forms):
            reps[i] = rep
    for index, members in enumerate(buckets):
        library.add_class(reps[index], size=len(members), canonical_rep=True)
    return library


def build_library(
    tables: Iterable[TruthTable],
    parts=DEFAULT_PARTS,
    engine: str = "batched",
) -> ClassLibrary:
    """Classify ``tables`` with the chosen engine and build a library."""
    from repro.engine import make_classifier

    classifier = make_classifier(engine, parts=parts)
    return library_from_result(classifier.classify(list(tables)))


def build_exhaustive_library(
    n: int,
    parts=DEFAULT_PARTS,
    engine: str = "batched",
) -> ClassLibrary:
    """Library over *all* ``2^(2^n)`` functions of ``n`` variables (n <= 4).

    The complete class inventory of the arity; at n = 4 this is the
    classical 222 NPN classes.
    """
    return build_library(exhaustive_tables(n), parts=parts, engine=engine)
