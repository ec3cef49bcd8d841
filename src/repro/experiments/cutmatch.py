"""End-to-end AIG cut matching against a prebuilt class library.

The paper's EPFL scenario as one experiment: enumerate the k-feasible
cuts of every network, compute each cut's truth table, and resolve it
against a :class:`~repro.library.ClassLibrary` — class id plus verified
NPN witness per hit.  The report shows, per circuit, how many cut
occurrences and distinct cut functions the library covers (the hit
rate a technology mapper would see when using the library as its cell
index), and which classes absorb the most cuts.

Matching is deduplicated on the raw truth table across the whole run
and batched: all circuits' cuts are enumerated first, and their distinct
functions resolve in one :meth:`~repro.library.ClassLibrary.match_many`
call.  A function appearing at hundreds of nodes is resolved once — at
``n <= 5`` by its canonical form (one kernel pass per arity, the form
*is* the class id), above that by signature plus witness search — which
is precisely the economics that make a persistent library worth
building.
"""

from __future__ import annotations

from collections import Counter

from repro.aig.cuts import iter_cut_functions
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
    per_circuit: list[tuple[str, list[tuple[int, int]]]] = []
    distinct: dict[tuple[int, int], TruthTable] = {}
    for name, aig in sorted(circuits.items()):
        keys = []
        for _, _, tt in iter_cut_functions(aig, sizes, max_cuts=max_cuts):
            key = (tt.n, tt.bits)
            keys.append(key)
            distinct.setdefault(key, tt)
        per_circuit.append((name, keys))
    matches = library.match_many(distinct.values())
    memo: dict[tuple[int, int], str | None] = {
        key: None if hit is None else hit.class_id
        for key, hit in zip(distinct, matches)
    }
    class_hits: Counter = Counter()
    rows: list[dict] = []
    totals = Counter()
    total_unique: set[tuple[int, int]] = set()
    for name, keys in per_circuit:
        matched = 0
        for key in keys:
            class_id = memo[key]
            if class_id is not None:
                matched += 1
                class_hits[class_id] += 1
        unique = set(keys)
        rows.append(_row(name, len(keys), matched, unique, memo))
        totals["cuts"] += len(keys)
        totals["matched"] += matched
        total_unique |= unique
    rows.append(_row("TOTAL", totals["cuts"], totals["matched"], total_unique, memo))
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


def _row(name: str, cuts: int, matched: int, unique, memo) -> dict:
    matched_unique = sum(1 for key in unique if memo[key] is not None)
    return {
        "circuit": name,
        "cuts": cuts,
        "matched": matched,
        "hit_rate": round(matched / cuts, 4) if cuts else 0.0,
        "unique_functions": len(unique),
        "unique_matched": matched_unique,
    }
