"""Building class libraries from classification results and corpora.

Under the default **canonical** id scheme every class representative is
the *exact orbit minimum* at every arity — computed through the batched
:func:`repro.canonical.form.canonical_forms` path (``canonical_min``
gather kernels for ``n <= 6``, the influence-guided scalar search
above), one call per arity over the first member of every bucket.  The
class id is a pure function of the orbit (``n{n}-c{hex}``), so two
independently built libraries mint identical ids for the same orbit.
Results from the :class:`~repro.canonical.engine.CanonicalClassifier`
already carry canonical representatives as their group keys; those are
reused without recomputation.

The legacy **digest** scheme keeps its original election rule:

* ``n <= EXACT_REP_MAX_VARS`` (4): exhaustive orbit minima;
* ``n >= 5``: the lexicographically smallest observed member of the
  signature bucket — deterministic for a fixed corpus, stable under
  merges because :meth:`ClassLibrary.merged_with` keeps the smaller
  representative.

Builders accept a ready :class:`~repro.core.classifier.ClassificationResult`
from *any* engine — per-function, batched, sharded and canonical all
produce consistent buckets, so the resulting library is
engine-independent.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.canonical.form import canonical_forms
from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS
from repro.core.truth_table import TruthTable
from repro.kernels import canonical_min, canonical_min_table
from repro.library.store import ClassLibrary
from repro.workloads.library_corpus import exhaustive_tables

__all__ = [
    "EXACT_REP_MAX_VARS",
    "build_library",
    "library_from_result",
    "build_exhaustive_library",
    "elect_representative",
]

#: Largest arity whose digest-scheme representatives are exhaustive
#: orbit minima (canonical-scheme representatives are exact at *every*
#: arity).
EXACT_REP_MAX_VARS = 4


def elect_representative(members: list[TruthTable]) -> tuple[TruthTable, bool]:
    """Digest-scheme representative of one signature bucket (see module doc).

    Returns ``(representative, exact)`` where ``exact`` records whether
    the representative is the orbit minimum or an elected member.
    """
    if not members:
        raise ValueError("cannot elect a representative from an empty bucket")
    n = members[0].n
    if n <= EXACT_REP_MAX_VARS:
        return canonical_min_table(members[0]), True
    return min(members), False


def library_from_result(
    result: ClassificationResult, id_scheme: str = "canonical"
) -> ClassLibrary:
    """Build a library from any engine's classification result.

    Every bucket becomes one class.  Canonical scheme: each bucket's
    first member is canonicalized — batched per arity — unless the
    result already carries canonical keys (the canonical engine), which
    are trusted as-is.  Digest scheme: the legacy election rule.
    """
    library = ClassLibrary(result.parts, id_scheme)
    buckets = list(result.groups.values())
    if id_scheme == "canonical":
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
            forms = canonical_forms(
                [buckets[i][0] for i in bucket_indices],
                n,
                cache_dir=library.kernel_cache_dir,
            )
            for i, rep in zip(bucket_indices, forms):
                reps[i] = rep
        for index, members in enumerate(buckets):
            library.add_class(
                reps[index],
                size=len(members),
                exact=True,
                canonical_rep=True,
            )
        return library
    exact_by_n: dict[int, list[int]] = {}
    for index, members in enumerate(buckets):
        if members and members[0].n <= EXACT_REP_MAX_VARS:
            exact_by_n.setdefault(members[0].n, []).append(index)
    exact_reps: dict[int, TruthTable] = {}
    for n, bucket_indices in exact_by_n.items():
        minima = canonical_min([buckets[i][0] for i in bucket_indices])
        for i, bits in zip(bucket_indices, minima):
            exact_reps[i] = TruthTable(n, int(bits))
    for index, members in enumerate(buckets):
        if index in exact_reps:
            library.add_class(
                exact_reps[index], size=len(members), exact=True
            )
        else:
            representative, exact = elect_representative(members)
            library.add_class(representative, size=len(members), exact=exact)
    return library


def build_library(
    tables: Iterable[TruthTable],
    parts=DEFAULT_PARTS,
    engine: str = "batched",
    workers: int | None = None,
    id_scheme: str = "canonical",
) -> ClassLibrary:
    """Classify ``tables`` with the chosen engine and build a library."""
    from repro.engine import make_classifier

    classifier = make_classifier(engine, parts=parts, workers=workers)
    return library_from_result(
        classifier.classify(list(tables)), id_scheme=id_scheme
    )


def build_exhaustive_library(
    n: int,
    parts=DEFAULT_PARTS,
    engine: str = "batched",
    workers: int | None = None,
    id_scheme: str = "canonical",
) -> ClassLibrary:
    """Library over *all* ``2^(2^n)`` functions of ``n`` variables (n <= 4).

    The complete class inventory of the arity; at n = 4 this is the
    classical 222 NPN classes.
    """
    return build_library(
        exhaustive_tables(n),
        parts=parts,
        engine=engine,
        workers=workers,
        id_scheme=id_scheme,
    )
