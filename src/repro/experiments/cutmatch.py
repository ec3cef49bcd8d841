"""End-to-end AIG cut matching against a prebuilt class library.

The paper's EPFL scenario as one experiment: enumerate the k-feasible
cuts of every network, compute each cut's truth table, and resolve it
against a :class:`~repro.library.ClassLibrary` — class id plus verified
NPN witness per hit.  The report shows, per circuit, how many cut
occurrences and distinct cut functions the library covers (the hit
rate a technology mapper would see when using the library as its cell
index), and which classes absorb the most cuts.

Matching is deduplicated on the raw truth table across the whole run
and batched: every circuit's cuts come from one
:func:`~repro.aig.cuts.cut_arrays` call (root, size and table arrays),
the ``(size, table)`` rows of all circuits are deduplicated by one
sort, and only the distinct functions become
:class:`~repro.core.truth_table.TruthTable` objects, resolved in one
:meth:`~repro.library.ClassLibrary.match_many` call.  A function
appearing at hundreds of nodes is resolved once — at ``n <= 5`` by its
canonical form (one kernel pass per arity, the form *is* the class id),
above that by signature plus witness search — which is precisely the
economics that make a persistent library worth building.  Per-circuit
counts are array reductions over the occurrences' distinct-function ids.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.aig.cuts import cut_arrays
# Not called here: perfbench's ``aig.enumerate`` span wraps this name.
from repro.aig.cuts import iter_cut_functions  # noqa: F401
from repro.aig.network import AIG
from repro.core.truth_table import TruthTable
from repro.library.store import ClassLibrary

__all__ = ["run_cut_matching", "cut_match_rows", "class_hit_rows"]


def run_cut_matching(
    library: ClassLibrary,
    circuits: dict[str, AIG],
    sizes=(4,),
    max_cuts: int = 16,
) -> tuple[list[dict], Counter]:
    """Match every wanted-size cut of every circuit against the library.

    Returns ``(rows, class_hits)``: per-circuit summary rows (plus a
    TOTAL row) and a counter of per-class cut-occurrence hits.  Every
    circuit's cuts are enumerated first; the distinct functions of the
    whole run then resolve in one :meth:`ClassLibrary.match_many` call.
    Every returned hit carried a verified witness; a query no stored
    class matches counts as a miss.
    """
    names = sorted(circuits)
    # One row per cut occurrence: its size, then its table words.
    keys = [
        np.column_stack([cuts.sizes.astype(np.uint64), cuts.tables])
        for cuts in (cut_arrays(circuits[name], sizes, max_cuts) for name in names)
    ]
    occurrences = np.concatenate(keys) if keys else np.zeros((0, 2), np.uint64)
    function_of, first = _number_rows(occurrences)
    distinct = [
        TruthTable(int(row[0]), int.from_bytes(row[1:].tobytes(), "little"))
        for row in occurrences[first]
    ]
    # Classes numbered in order of first hit, as the counter lists them.
    class_ids: dict[str, int] = {}
    class_of = np.full(len(distinct), -1, dtype=np.int64)
    for function, hit in enumerate(library.match_many(distinct)):
        if hit is not None:
            class_of[function] = class_ids.setdefault(hit.class_id, len(class_ids))
    hits = np.bincount(class_of[function_of] + 1, minlength=len(class_ids) + 1)
    class_hits = Counter(dict(zip(class_ids, hits[1:].tolist())))
    rows = [
        _row(name, functions, class_of)
        for name, functions in zip(
            names, np.split(function_of, np.cumsum([len(key) for key in keys])[:-1])
        )
    ]
    rows.append(_row("TOTAL", function_of, class_of))
    return rows, class_hits


def cut_match_rows(
    library: ClassLibrary, rows: list[dict], class_hits: Counter
) -> list[dict]:
    """Append library-coverage context to the per-circuit rows."""
    summary = list(rows)
    covered = len(class_hits)
    summary.append(
        {
            "circuit": "library classes hit",
            "cuts": covered,
            "hit_rate": round(covered / library.num_classes, 4)
            if library.num_classes
            else 0.0,
        }
    )
    return summary


def class_hit_rows(
    library: ClassLibrary, class_hits: Counter, top: int = 10
) -> list[dict]:
    """The ``top`` classes by cut hits, with their stored metadata."""
    rows = []
    for class_id, hits in class_hits.most_common(top):
        entry = library.classes[class_id]
        rows.append(
            {
                "class_id": class_id,
                "n": entry.n,
                "hits": hits,
                "representative": f"0x{entry.representative.to_hex()}",
                "library_size": entry.size,
            }
        )
    return rows


def _number_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows numbered in order of first occurrence.

    Returns ``(number, first)``: each row's number, and the index of
    each number's first row.  A stable lexicographic sort stands in for
    ``np.unique(axis=0)``, which imports ``numpy.ma`` (about 1 MiB).
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    # The sort is stable, so a run's first row is its earliest.
    first = order[starts]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    number = np.empty(len(order), dtype=np.int64)
    number[order] = rank[np.cumsum(starts) - 1]
    return number, np.sort(first)


def _row(name: str, functions: np.ndarray, class_of: np.ndarray) -> dict:
    """Summary of one circuit's occurrences, given as distinct-function ids."""
    cuts = len(functions)
    matched = int((class_of[functions] >= 0).sum())
    seen = np.zeros(len(class_of), dtype=bool)
    seen[functions] = True
    return {
        "circuit": name,
        "cuts": cuts,
        "matched": matched,
        "hit_rate": round(matched / cuts, 4) if cuts else 0.0,
        "unique_functions": int(seen.sum()),
        "unique_matched": int((seen & (class_of >= 0)).sum()),
    }
